package core

import (
	"bytes"
	"slices"

	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/overlay"
)

// BroadcastWith disseminates a message to every node in the system
// (§3.3.4). Phase one is Byzantine agreement inside the caller's vgroup
// (the bcastOp below); phase two is gossip over the H-graph, shaped by the
// application's Forward callback. BroadcastOpts has no fields: the
// broadcast is the paper's broadcast(m).
func (n *Node) BroadcastWith(data []byte, _ BroadcastOpts) error {
	if n.phase != phaseMember || n.st == nil {
		return ErrNotMember
	}
	if len(data) > MaxBroadcastBytes {
		return ErrBroadcastTooLarge
	}
	n.opSeq++
	id := crypto.Hash([]byte("atum-bcast"))
	id = crypto.HashUint64(id, uint64(n.cfg.Identity.ID))
	id = crypto.HashUint64(id, n.opSeq)
	id = crypto.Hash(id[:], data)
	n.proposeOp(bcastOp{BcastID: id, Origin: n.cfg.Identity.ID, Data: data})
	return nil
}

// applyBcast delivers a committed broadcast inside the origin vgroup and
// starts the gossip phase. This is the one place a broadcast's gossip payload
// is encoded and hashed: every later hop forwards these bytes as accepted.
func (n *Node) applyBcast(o bcastOp) {
	if !n.markSeen(o.BcastID) {
		return
	}
	d := Delivery{BcastID: o.BcastID, Origin: o.Origin, Data: o.Data}
	// Encoded before Deliver: the application owns d.Data from then on.
	payload := encodePayload(gossipPayload{BcastID: d.BcastID, Origin: d.Origin, Data: d.Data})
	digest := crypto.Hash(payload)
	if n.cfg.Callbacks.Deliver != nil {
		n.cfg.Callbacks.Deliver(d)
	}
	n.forwardGossip(d, payload, digest, group.Key{})
	n.noteDelivered(digest, payload)
}

// handleGossip processes one gossip hop accepted from a neighboring vgroup.
// No agreement is needed: members act independently but identically —
// dedup by broadcast ID, deliver, and forward along links chosen by the
// (deterministic by default) Forward callback. Identically includes the
// bytes: a member forwards the payload it accepted, verbatim, so the votes of
// one vgroup's members land on one digest whichever path reached each first.
//
// A node that delivered a broadcast settles what its inbox still holds of it,
// from any link, and drops later copies within the cache horizon at one probe
// (noteDelivered, observeCopy), so an acceptance that races the first ends at
// markSeen. The payload is decoded as a view and Data is copied only for the
// one Deliver — the accepted buffer is shared with the inbox, the forward
// queue, the delivered cache and, on simnet, every other recipient. It reports
// whether the broadcast was delivered.
func (n *Node) handleGossip(acc group.Accepted) bool {
	p, err := decodeGossipView(acc.Payload)
	if err != nil {
		n.logf("accepted %d: bad payload: %v", acc.Kind, err)
		return false
	}
	if !n.markSeen(p.BcastID) {
		return false
	}
	d := Delivery{BcastID: p.BcastID, Origin: p.Origin, Data: bytes.Clone(p.Data)}
	if n.cfg.Callbacks.Deliver != nil {
		n.cfg.Callbacks.Deliver(d)
	}
	n.forwardGossip(d, acc.Payload, acc.Digest, acc.Src)
	n.noteDelivered(acc.Digest, acc.Payload)
	return true
}

// forwardGossip offers every overlay link to the Forward callback and queues
// this member's vote on the chosen links that still need one: payload is the
// encoded gossipPayload of d and digest its hash. The default (nil callback)
// floods all cycles in both directions, which is the latency-optimal
// configuration the paper's ASub experiments use; AStream restricts forwarding
// to one or two cycles (§6.3). This is the one place gossip is enqueued; the
// egress scheduler (internal/egress) changes only how the chosen sends are
// framed, never which sends are chosen.
//
// What a vote says. A gossip message's identity is the digest of its payload:
// MsgID = Digest, a derived item, so neither a plain copy nor a carrier run
// spends bytes on an ID the receiver computes anyway. The inbox is keyed by
// source composition and the payload contains the BcastID, so the digest is
// unique per (source, broadcast) — and the same on every link.
//
// Whom a vote is sent to. All a copy toward neighbor composition K can
// establish is that one correct member of K holds the broadcast — K's members
// then deliver and forward by themselves. So this member sends K nothing when
// that is already known: when at least f+1 members of K — GroupID and Epoch; a
// neighbor known at another epoch may have other members — have voted this
// digest in this node's own inbox, at most f of them faulty. from, the
// composition the broadcast was accepted from (zero at the origin), is the
// case where a majority did. No member decides for another: each consults its
// own inbox, and a member that has seen fewer votes sends.
//
// Who sends the bytes. On a relayed hop each member of K gets them from exactly
// one member of this vgroup, the one group.RelaySender names for it
// (BatchItem.Relay), and a digest-only vote from the rest. A member whose one
// copy does not come has three ways to the bytes (pull.go): another link's
// copy (the inbox lends it), a voter (pull), and its own vgroup's heartbeats
// (catch-up). At the origin (from is zero) K hears of the broadcast on this
// link alone, so no other link can lend: there the f+1 lowest-index members
// attach the bytes, one of them correct — the argument §5.1 makes for a
// majority — and the rest vote the digest (a nil Payload, group.BatchItem).
//
// A link the broadcast was offered on will echo it: the neighbor floods its own
// neighbors, this vgroup among them. This node has delivered, so the echo, like
// every later copy within the cache horizon, is turned away at one map probe
// before the inbox (observeCopy), and what the inbox held of the broadcast is
// settled once this forward has counted its votes (noteDelivered).
func (n *Node) forwardGossip(d Delivery, payload []byte, digest crypto.Digest, from group.Key) {
	st := n.st
	if st == nil {
		return
	}
	it := group.BatchItem{Kind: kindGossip, MsgID: digest, Digest: digest, DerivedID: true, Payload: payload}
	if from != (group.Key{}) {
		it.Relay = true
	} else if st.comp.Index(n.cfg.Identity.ID) > n.cfg.Mode.F(st.comp.N()) {
		it.Payload = nil
	}
	// One send per neighbor composition, however many links lead to it.
	sent := make([]group.Key, 0, 8)
	for c := 0; c < st.nbrs.NumCycles(); c++ {
		for _, dir := range [...]overlay.Direction{overlay.Pred, overlay.Succ} {
			nbr := st.nbrs.At(overlay.Link{Cycle: c, Dir: dir})
			key := nbr.Key()
			if nbr.GroupID == 0 || nbr.GroupID == st.comp.GroupID || slices.Contains(sent, key) {
				continue
			}
			link := ForwardLink{Cycle: c, Succ: dir == overlay.Succ, Neighbor: nbr.GroupID}
			if n.cfg.Callbacks.Forward != nil && !n.cfg.Callbacks.Forward(d, link) {
				continue
			}
			sent = append(sent, key)
			if key != from && n.inbox.Votes(nbr, kindGossip, digest, digest) <= n.cfg.Mode.F(nbr.N()) {
				n.egress.Group(st.comp, nbr, it)
			}
		}
	}
}

// applyNeighborUpdate installs a neighbor's reconfigured composition.
func (n *Node) applyNeighborUpdate(p neighborUpdatePayload) {
	if n.st == nil || p.NewComp.N() == 0 {
		return
	}
	n.learnComp(p.NewComp)
	n.st.nbrs.UpdateGroup(p.NewComp)
}

// applySetNeighbor re-points one overlay link (merge gap closing and split
// insertion).
func (n *Node) applySetNeighbor(p setNeighborPayload) {
	if n.st == nil || p.Comp.N() == 0 {
		return
	}
	n.learnComp(p.Comp)
	n.st.nbrs.Set(overlay.Link{Cycle: p.Cycle, Dir: p.Dir}, p.Comp.Clone())
}

// applyCycleAssign gives this (freshly split) vgroup its position on one
// cycle: unlink from the old position, adopt the new one.
func (n *Node) applyCycleAssign(p cycleAssignPayload) {
	st := n.st
	if st == nil || p.Cycle < 0 || p.Cycle >= st.nbrs.NumCycles() {
		return
	}
	n.learnComp(p.Pred)
	n.learnComp(p.Succ)
	oldPred := st.nbrs.Preds[p.Cycle]
	oldSucc := st.nbrs.Succs[p.Cycle]
	// Close the gap we leave behind (unless we were between the same
	// groups already, or self-looped).
	if oldPred.GroupID != st.comp.GroupID && oldPred.GroupID != p.Pred.GroupID {
		pl := encodePayload(setNeighborPayload{Cycle: p.Cycle, Dir: overlay.Succ, Comp: oldSucc.Clone()})
		n.sendGroup(st.comp, oldPred, kindSetNeighbor,
			setNbrMsgID(st.comp, oldPred.GroupID, p.Cycle, overlay.Succ), pl)
	}
	if oldSucc.GroupID != st.comp.GroupID && oldSucc.GroupID != p.Succ.GroupID {
		pl := encodePayload(setNeighborPayload{Cycle: p.Cycle, Dir: overlay.Pred, Comp: oldPred.Clone()})
		n.sendGroup(st.comp, oldSucc, kindSetNeighbor,
			setNbrMsgID(st.comp, oldSucc.GroupID, p.Cycle, overlay.Pred), pl)
	}
	st.nbrs.Preds[p.Cycle] = p.Pred.Clone()
	st.nbrs.Succs[p.Cycle] = p.Succ.Clone()
}

func setNbrMsgID(src group.Composition, dst ids.GroupID, cycle int, dir overlay.Direction) crypto.Digest {
	d := crypto.Hash([]byte("atum-setnbr"))
	d = crypto.HashUint64(d, uint64(src.GroupID))
	d = crypto.HashUint64(d, src.Epoch)
	d = crypto.HashUint64(d, uint64(dst))
	d = crypto.HashUint64(d, uint64(cycle)<<8|uint64(dir))
	return d
}

// maybeRefreshSender heals stale neighbor views: when another vgroup
// addresses us through an old epoch of our composition, members that
// belonged to that epoch reply with the current composition, stamped with
// the old epoch — which the sender can still validate. This bounds the
// drift between heavily churning neighbor vgroups to about one epoch per
// round trip; without it, simultaneous churn on both sides of a link can
// starve it permanently (§7's "complications" in practice).
func (n *Node) maybeRefreshSender(m group.GroupMsg) {
	st := n.st
	if st == nil || n.phase != phaseMember || n.byzActive() {
		return
	}
	if m.DstGroup != st.comp.GroupID || m.DstEpoch == 0 || m.DstEpoch >= st.comp.Epoch {
		return
	}
	oldKey := group.Key{GroupID: st.comp.GroupID, Epoch: m.DstEpoch}
	oldComp, ok := n.comps[oldKey]
	if !ok || !oldComp.Contains(n.cfg.Identity.ID) {
		return // we cannot attest that epoch
	}
	srcKey := group.Key{GroupID: m.SrcGroup, Epoch: m.SrcEpoch}
	if !n.freshSent.allow(srcKey, n.env.Now()) {
		return
	}
	srcComp, ok := n.lookupComp(srcKey)
	if !ok || srcComp.N() == 0 {
		return
	}
	payload := encodePayload(neighborUpdatePayload{NewComp: st.comp.Clone()})
	msgID := freshMsgID(st.comp, m.SrcGroup)
	n.sendGroup(oldComp, srcComp, kindNeighborUpdate, msgID, payload)
}

func freshMsgID(cur group.Composition, to ids.GroupID) crypto.Digest {
	d := crypto.Hash([]byte("atum-fresh"))
	d = crypto.HashUint64(d, uint64(cur.GroupID))
	d = crypto.HashUint64(d, cur.Epoch)
	d = crypto.HashUint64(d, uint64(to))
	return d
}
