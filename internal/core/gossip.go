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
	n.proposeOp(bcastOp{BcastID: bcastID(n.cfg.Identity.ID, n.opSeq, data), Origin: n.cfg.Identity.ID, Data: data})
	return nil
}

// bcastID names the origin's seq-th operation, a broadcast of data.
func bcastID(origin ids.NodeID, seq uint64, data []byte) crypto.Digest {
	prefix := crypto.Derive("atum-bcast", nil, uint64(origin), seq)
	return crypto.Hash(prefix[:], data)
}

// applyBcast delivers a committed broadcast inside the origin vgroup and
// starts the gossip phase. This is the one place a broadcast's gossip payload
// is encoded and hashed: every later hop forwards these bytes as accepted.
func (n *Node) applyBcast(o bcastOp) {
	d := Delivery{BcastID: o.BcastID, Origin: o.Origin, Data: o.Data}
	// Encoded before Deliver: the application owns d.Data from then on.
	payload := encodePayload(gossipPayload{BcastID: d.BcastID, Origin: d.Origin, Data: d.Data})
	n.deliver(d, payload, crypto.Hash(payload), group.Key{})
}

// handleGossip processes one gossip hop accepted from a neighboring vgroup.
// No agreement is needed: members act independently but identically —
// deliver a payload not delivered yet, and forward it along links chosen by
// the (deterministic by default) Forward callback. Identically includes the
// bytes: a member forwards the payload it accepted, verbatim, so the votes of
// one vgroup's members land on one digest whichever path reached each first.
//
// The payload is decoded as a view and only Data is copied, for Deliver — the
// accepted buffer is shared with the inbox, the forward queue, the delivered
// index and, on simnet, every other recipient. It reports whether the
// broadcast was delivered.
func (n *Node) handleGossip(acc group.Accepted) bool {
	p, err := decodeGossip(acc.Payload)
	if err != nil {
		n.logf("accepted %d: bad payload: %v", acc.Kind, err)
		return false
	}
	return n.deliver(Delivery{BcastID: p.BcastID, Origin: p.Origin, Data: bytes.Clone(p.Data)}, acc.Payload, acc.Digest, acc.Src)
}

// deliver is the one delivery of a broadcast, at the origin vgroup and at
// every hop: payload is the encoded gossipPayload of d, digest its hash, from
// the composition it was accepted from (zero at the origin). Exactly-once is
// per broadcast payload: the delivered index, keyed by the digest, lets each
// in once. Then d is handed to Deliver and forwarded, and what the node still
// held for the digest — a catch-up entry, a pull, any link's pending entry —
// is released, so a copy that races the first ends at one probe of the index
// (observeCopy). It reports whether d was delivered.
func (n *Node) deliver(d Delivery, payload []byte, digest crypto.Digest, from group.Key) bool {
	if !n.delivered.add(digest, payload, n.env.Now()) {
		return false
	}
	if n.cfg.Callbacks.Deliver != nil {
		n.cfg.Callbacks.Deliver(d)
	}
	n.forwardGossip(d, payload, digest, from)
	n.rep.unlist(digest)
	delete(n.rep.pulls, digest)
	n.inbox.SettleAll(digest)
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
// then deliver and forward by themselves. So this member sends K nothing once
// that is known: once at least f+1 members of K — GroupID and Epoch; a
// neighbor known at another epoch may have other members — are in its holders
// record for the digest (below), at most f of them faulty. It asks when it
// queues the vote and again when the vote's batch leaves (withdrawGossip), so
// the votes K casts meanwhile count too. from, the composition the broadcast
// was accepted from (zero at the origin), is the case where a majority did. No
// member decides for another: each consults its own record, and a member that
// has heard fewer votes sends.
//
// Who sends the bytes. On a relayed hop each member of K gets them from exactly
// one member of this vgroup, the one group.RelaySender names for it
// (BatchItem.Relay), and a digest-only vote from the rest — from that one too
// when the record holds the member's own vote or any vote from K
// (holdsGossip). That copy waits a relay lag for such a vote before it leaves.
// In a synchronous round the two ends of the link take turns
// (relayLagPerRound): the lower vgroup's served copies wait two lags, and the
// higher vgroup's whole batch waits one, so that the link rule hears the lower
// one's votes. A member whose one copy does not come has three ways to the
// bytes (pull.go): another link's copy (the inbox lends it), a voter (pull),
// and its own vgroup's heartbeats (catch-up). At the origin (from is
// zero) K hears of the broadcast on this link alone, so no other link can
// lend: there the f+1 lowest-index members attach the bytes, one of them
// correct — the argument §5.1 makes for a majority — and the rest vote the
// digest (a nil Payload, group.BatchItem).
//
// A link the broadcast was offered on will echo it: the neighbor floods its own
// neighbors, this vgroup among them. This node has delivered, so the echo, like
// every later copy, is turned away at one probe of the delivered index before
// the inbox (observeCopy), and what the inbox held of the broadcast is released
// once this forward has counted its votes (deliver).
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
	// The record is read again as the votes leave, a send at once included, so
	// it is stored before the first one is queued, and this forward holds a
	// reference to it until the last one is.
	rec := n.seedHolders(digest)
	if len(n.holders) < maxHeldDigests {
		n.holders[digest] = rec
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
			if key != from && !linkHeld(rec.votes, nbr, n.cfg.Mode.F(nbr.N())) {
				rec.refs++
				n.egress.Group(st.comp, nbr, it)
			}
		}
	}
	n.refHolders(digest, -1)
}

// The holders record: who is known to hold a broadcast this node delivered and
// is forwarding, by gossip digest. A correct member votes a broadcast only once
// it delivered it, so every vote heard names a holder; links are authenticated,
// so a faulty sender can lie about itself and no one else. forwardGossip seeds
// the record from the votes the inbox holds when the broadcast is delivered,
// before deliver settles them; observeCopy adds every copy it turns away while
// the forwards wait. A digest's record lives until the last of its queued or
// parked copies has left the egress port or been withdrawn (refHolders,
// gossipLeft, withdrawGossip), however many round ticks that spans. Two rules read it, and they only withhold sends — it
// never decides a delivery:
//
//   - the link rule (linkHeld): K is sent no vote once f+1 members of K voted
//     the digest under K's exact key, one of them correct. forwardGossip asks
//     when it queues the vote, the egress scheduler again as the vote's batch
//     closes, and the port once more as a second speaker's batch leaves
//     (withdrawGossip);
//   - the member and vgroup rules (holdsGossip): on a relayed hop, the
//     RelaySender of a member j of K sends j the digest alone when j voted it,
//     or when any member of K voted it under K's exact key. A vote from k says
//     only that k holds the broadcast, not that j will: on each link toward K
//     j's bytes come from one member, its RelaySender there, which may be
//     faulty or may itself withhold them under the vgroup rule after another
//     member of K voted toward its vgroup. So j can be left with the bytes
//     from no link, and its delivery then rests on lending, a pull or its
//     vgroup's catch-up (pull.go). A faulty k that votes without holding
//     strips this link's bytes from every member of K: that costs them time,
//     not delivery.
//
// A vote is kept only from a member of the composition it names, as this node
// knows it exactly. The record holds at most maxHeldDigests digests — those
// with copies queued or parked — and maxHeldVotes votes for each; a vote past
// either is not kept, which can only cost a send.
type holder struct {
	from ids.NodeID
	src  group.Key
}

// heldRecord is one digest's entry in the holders record: the votes heard, and
// how many of the digest's copies are queued or parked (plus one while
// forwardGossip queues them). votes starts in the record's own array, so a
// record is one allocation; it is only ever held by pointer.
type heldRecord struct {
	votes  []holder
	refs   int
	inline [heldVotesCap]holder
}

// keep adds h to r's votes unless it is there.
func (r *heldRecord) keep(h holder) {
	if !slices.Contains(r.votes, h) {
		r.votes = append(r.votes, h)
	}
}

// held returns the votes of r, none when r is nil (no record).
func (r *heldRecord) held() []holder {
	if r == nil {
		return nil
	}
	return r.votes
}

// Bounds of the holders record. The contracted workloads have copies queued or
// parked for a few dozen digests at once, each voted by at most the members of
// 2·HC neighbors. A record opens with room for heldVotesCap votes: the median
// a record ends with on sync_steady, where they range from 0 to 31.
const (
	maxHeldDigests = 256
	maxHeldVotes   = 128
	heldVotesCap   = 8
)

// seedHolders returns a record of digest holding the votes for it the inbox's
// shared entries of it hold, and forwardGossip's reference.
func (n *Node) seedHolders(digest crypto.Digest) *heldRecord {
	r := &heldRecord{refs: 1}
	r.votes = r.inline[:0]
	n.inbox.Voters(digest, func(src group.Key, from ids.NodeID, kind group.Kind) {
		if kind == kindGossip && len(r.votes) < maxHeldVotes && n.memberOf(src, from) {
			r.keep(holder{from: from, src: src})
		}
	})
	return r
}

// noteHolder records from's vote under src for a delivered digest whose
// copies have not all left yet.
func (n *Node) noteHolder(digest crypto.Digest, from ids.NodeID, src group.Key) {
	if r := n.holders[digest]; r != nil && len(r.votes) < maxHeldVotes && n.memberOf(src, from) {
		r.keep(holder{from: from, src: src})
	}
}

// refHolders adds delta to the references to digest's record, and drops the
// record when none is left.
func (n *Node) refHolders(digest crypto.Digest, delta int) {
	if r := n.holders[digest]; r != nil {
		if r.refs += delta; r.refs <= 0 {
			delete(n.holders, digest)
		}
	}
}

// gossipLeft is told of every item whose copies left the egress port
// (egress.Rules.Left): a gossip copy's record loses a reference.
func (n *Node) gossipLeft(it group.BatchItem) {
	if it.Kind == kindGossip {
		n.refHolders(it.Digest, -1)
	}
}

// memberOf reports whether id is a member of the composition of k, known
// exactly.
func (n *Node) memberOf(k group.Key, id ids.NodeID) bool {
	c, ok := n.exactComp(k)
	return ok && c.Contains(id)
}

// linkHeld is the link rule: more than f members of k voted under k's key.
func linkHeld(held []holder, k group.Composition, f int) bool {
	votes := 0
	for _, h := range held {
		if h.src == k.Key() && k.Contains(h.from) {
			votes++
		}
	}
	return votes > f
}

// withdrawGossip is the link rule asked again as a batch toward dst closes,
// and once more as it leaves when this vgroup speaks second on the link
// (egress.Rules.Withdraw). A copy it withdraws never leaves, so it drops the
// copy's reference to the record itself.
func (n *Node) withdrawGossip(dst group.Composition, it group.BatchItem) bool {
	if it.Kind != kindGossip || !linkHeld(n.holders[it.Digest].held(), dst, n.cfg.Mode.F(dst.N())) {
		return false
	}
	n.counts.GossipWithdrawn++
	n.refHolders(it.Digest, -1)
	return true
}

// holdsGossip is the member and vgroup rules (egress.Rules.Holds): member, of
// dst, voted digest, or some member of dst did under dst's key.
func (n *Node) holdsGossip(dst group.Key, member ids.NodeID, digest crypto.Digest) bool {
	for _, h := range n.holders[digest].held() {
		if h.from == member || h.src == dst {
			return true
		}
	}
	return false
}

// applyNeighborUpdate installs a neighbor's reconfigured composition.
func (n *Node) applyNeighborUpdate(p neighborUpdatePayload) {
	if n.st == nil || p.NewComp.N() == 0 {
		return
	}
	n.st.nbrs.UpdateGroup(n.learnComp(p.NewComp))
}

// applySetNeighbor re-points one overlay link (merge gap closing and split
// insertion).
func (n *Node) applySetNeighbor(p setNeighborPayload) {
	if n.st == nil || p.Comp.N() == 0 {
		return
	}
	n.st.nbrs.Set(overlay.Link{Cycle: p.Cycle, Dir: p.Dir}, n.learnComp(p.Comp))
}

// applyCycleAssign gives this (freshly split) vgroup its position on one
// cycle: unlink from the old position, adopt the new one.
func (n *Node) applyCycleAssign(p cycleAssignPayload) {
	st := n.st
	if st == nil || p.Cycle < 0 || p.Cycle >= st.nbrs.NumCycles() {
		return
	}
	p.Pred = n.learnComp(p.Pred)
	p.Succ = n.learnComp(p.Succ)
	oldPred := st.nbrs.Preds[p.Cycle]
	oldSucc := st.nbrs.Succs[p.Cycle]
	// Close the gap we leave behind (unless we were between the same
	// groups already, or self-looped).
	if oldPred.GroupID != st.comp.GroupID && oldPred.GroupID != p.Pred.GroupID {
		pl := encodePayload(setNeighborPayload{Cycle: p.Cycle, Dir: overlay.Succ, Comp: oldSucc})
		n.sendGroup(st.comp, oldPred, kindSetNeighbor,
			setNbrMsgID(st.comp, oldPred.GroupID, p.Cycle, overlay.Succ), pl)
	}
	if oldSucc.GroupID != st.comp.GroupID && oldSucc.GroupID != p.Succ.GroupID {
		pl := encodePayload(setNeighborPayload{Cycle: p.Cycle, Dir: overlay.Pred, Comp: oldPred})
		n.sendGroup(st.comp, oldSucc, kindSetNeighbor,
			setNbrMsgID(st.comp, oldSucc.GroupID, p.Cycle, overlay.Pred), pl)
	}
	st.nbrs.Preds[p.Cycle] = p.Pred
	st.nbrs.Succs[p.Cycle] = p.Succ
}

func setNbrMsgID(src group.Composition, dst ids.GroupID, cycle int, dir overlay.Direction) crypto.Digest {
	return crypto.Derive("atum-setnbr", nil, uint64(src.GroupID), src.Epoch, uint64(dst), uint64(cycle)<<8|uint64(dir))
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
	if st == nil || n.phase != phaseMember {
		return
	}
	if m.DstGroup != st.comp.GroupID || m.DstEpoch == 0 || m.DstEpoch >= st.comp.Epoch {
		return
	}
	oldKey := group.Key{GroupID: st.comp.GroupID, Epoch: m.DstEpoch}
	oldComp, ok := n.comps.exact(oldKey)
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
	payload := encodePayload(neighborUpdatePayload{NewComp: st.comp})
	msgID := freshMsgID(st.comp, m.SrcGroup)
	n.sendGroup(oldComp, srcComp, kindNeighborUpdate, msgID, payload)
}

func freshMsgID(cur group.Composition, to ids.GroupID) crypto.Digest {
	return crypto.Derive("atum-fresh", nil, uint64(cur.GroupID), cur.Epoch, uint64(to))
}
