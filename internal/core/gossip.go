package core

import (
	"bytes"
	"slices"
	"time"

	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/overlay"
)

// BroadcastWith disseminates a message to every node in the system
// (§3.3.4). Phase one is Byzantine agreement inside the caller's vgroup
// (the bcastOp below); phase two is gossip over the H-graph, shaped by the
// application's Forward callback. opts carries the flow-control options: an
// optional TTL for the origin's first-hop egress enqueues (remote
// forwarders use defaults — see BroadcastOpts); the paper's zero-option
// behaviour is BroadcastOpts{}. Nothing in the wire format changes; the
// options only shape how the origin's egress scheduler treats this
// broadcast's gossip items.
func (n *Node) BroadcastWith(data []byte, opts BroadcastOpts) error {
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
	if opts != (BroadcastOpts{}) {
		n.rememberBcastOpts(id, opts)
	}
	n.proposeOp(bcastOp{BcastID: id, Origin: n.cfg.Identity.ID, Data: data})
	return nil
}

// maxBcastOpts bounds the pending-options map: entries are consumed when the
// broadcast's op commits and applies locally; a node whose proposals never
// commit (departure mid-broadcast) must not leak them.
const maxBcastOpts = 1024

// rememberBcastOpts stashes the origin-side options until the bcastOp
// commits (applyBcast consumes them).
func (n *Node) rememberBcastOpts(id crypto.Digest, opts BroadcastOpts) {
	if n.bcastOpts == nil {
		n.bcastOpts = make(map[crypto.Digest]BroadcastOpts)
	}
	if _, ok := n.bcastOpts[id]; !ok {
		n.bcastOptsQ = append(n.bcastOptsQ, id)
		if len(n.bcastOptsQ) > maxBcastOpts {
			drop := n.bcastOptsQ[0]
			n.bcastOptsQ = n.bcastOptsQ[1:]
			delete(n.bcastOpts, drop)
		}
	}
	n.bcastOpts[id] = opts
}

// takeBcastOpts consumes the origin-side options for a committed broadcast
// (zero for remote origins and default-option sends).
func (n *Node) takeBcastOpts(id crypto.Digest) BroadcastOpts {
	opts, ok := n.bcastOpts[id]
	if ok {
		delete(n.bcastOpts, id)
	}
	return opts
}

// applyBcast delivers a committed broadcast inside the origin vgroup and
// starts the gossip phase. This is the one place a broadcast's gossip payload
// is encoded and hashed: every later hop forwards these bytes as accepted.
func (n *Node) applyBcast(o bcastOp) {
	if !n.markSeen(o.BcastID) {
		return
	}
	opts := n.takeBcastOpts(o.BcastID)
	d := Delivery{BcastID: o.BcastID, Origin: o.Origin, Data: o.Data}
	// Encoded before Deliver: the application owns d.Data from then on.
	payload := encodePayload(gossipPayload{BcastID: d.BcastID, Origin: d.Origin, Data: d.Data})
	if n.cfg.Callbacks.Deliver != nil {
		n.cfg.Callbacks.Deliver(d)
	}
	n.forwardGossip(d, payload, crypto.Hash(payload), group.Key{}, opts)
}

// handleGossip processes one gossip hop accepted from a neighboring vgroup.
// No agreement is needed: members act independently but identically —
// dedup by broadcast ID, deliver, and forward along links chosen by the
// (deterministic by default) Forward callback. Identically includes the
// bytes: a member forwards the payload it accepted, verbatim, so the votes of
// one vgroup's members land on one digest whichever path reached each first.
//
// A node accepts the same broadcast once per neighbor link; all but the first
// acceptance end at markSeen, so the payload is decoded as a view and Data is
// copied only for the one Deliver — the accepted buffer is shared with the
// inbox, the forward queue and, on simnet, every other recipient.
func (n *Node) handleGossip(acc group.Accepted) {
	p, err := decodeGossipView(acc.Payload)
	if err != nil {
		n.logf("accepted %d: bad payload: %v", acc.Kind, err)
		return
	}
	if !n.markSeen(p.BcastID) {
		return
	}
	d := Delivery{BcastID: p.BcastID, Origin: p.Origin, Data: bytes.Clone(p.Data)}
	if n.cfg.Callbacks.Deliver != nil {
		n.cfg.Callbacks.Deliver(d)
	}
	n.forwardGossip(d, acc.Payload, acc.Digest, acc.Src, BroadcastOpts{})
}

// forwardGossip offers every overlay link to the Forward callback and queues
// this member's vote on the chosen links that still need one: payload is the
// encoded gossipPayload of d and digest its hash. The default (nil callback)
// floods all cycles in both directions, which is the latency-optimal
// configuration the paper's ASub experiments use; AStream restricts forwarding
// to one or two cycles (§6.3). This is the one place gossip is enqueued; the
// egress scheduler (internal/egress) changes only how the chosen sends are
// framed, never which sends are chosen. opts carries the origin's
// flow-control options (zero at remote hops).
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
// Who sends the bytes. A nil Payload is a digest-only vote from any member
// (group.BatchItem). Among the f+1 lowest-index members of this vgroup one is
// correct and sends the bytes on every link it votes on — the argument §5.1
// makes for a majority; the rest vote the digest.
//
// A link the broadcast was offered on will echo it: the neighbor floods its own
// neighbors, this vgroup among them. This node has delivered, so the echo is
// settled in the inbox — under the neighbor's freshest known composition, the
// one it stamps its sends with — which releases the votes counted above and
// turns every later copy away at one map probe instead of collecting votes for
// a broadcast markSeen would drop.
func (n *Node) forwardGossip(d Delivery, payload []byte, digest crypto.Digest, from group.Key, opts BroadcastOpts) {
	st := n.st
	if st == nil {
		return
	}
	now := n.env.Now()
	var expires time.Duration
	if opts.TTL > 0 {
		expires = now + opts.TTL
	}
	it := group.BatchItem{Kind: kindGossip, MsgID: digest, Digest: digest, DerivedID: true}
	if st.comp.Index(n.cfg.Identity.ID) <= n.cfg.Mode.F(st.comp.N()) {
		it.Payload = payload
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
				n.sendGroupItem(st.comp, nbr, it, expires)
			}
			echo := key
			if latest, ok := n.latestComp[nbr.GroupID]; ok && latest.Epoch > echo.Epoch {
				echo = latest.Key()
			}
			n.inbox.Settle(now, echo, digest)
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
