package core

import (
	"fmt"

	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/smr"
)

// applyCommitted is the deterministic transition function: it runs with the
// same operations in the same order at every correct member of the vgroup.
func (n *Node) applyCommitted(op smr.Operation) {
	dig := opDigest(op.Data)
	v, err := decodeWire(op.Data, classOp)
	if err != nil {
		n.logf("apply: undecodable op from %v: %v", op.Proposer, err)
		return
	}
	// A committed own proposal needs no re-proposal at the next epoch
	// barrier, even when the apply below dedups it (committed-but-duplicate
	// means an earlier epoch already applied it); without this, deduped
	// entries linger in ownPend and are re-proposed every epoch.
	if op.Proposer == n.cfg.Identity.ID {
		defer delete(n.ownPend, dig)
	}
	if n.cfg.Callbacks.OnApply != nil {
		n.cfg.Callbacks.OnApply(uint64(n.st.comp.GroupID), n.st.comp.Epoch, dig, fmt.Sprintf("%T:%v", v, op.Proposer))
	}
	switch o := v.(type) {
	case evictVoteOp:
		n.tallyVote(dig, op.Proposer, func() { n.applyEvict(o) })
	case inputVoteOp:
		n.tallyVote(dig, op.Proposer, func() { n.applyInput(dig, o) })
	case bcastOp:
		// Only the true origin may broadcast under its name. The engines
		// hold op.Proposer to the member that sent the op, except for ops a
		// faulty PBFT primary orders (smr.Operation).
		if op.Proposer != o.Origin {
			return
		}
		n.applyOnce(dig, func() { n.applyBcast(o) })
	case joinOp:
		n.applyOnce(dig, func() { n.applyJoin(o) })
	case leaveOp:
		if op.Proposer != o.Node {
			return // only the leaver itself may request a leave
		}
		n.applyOnce(dig, func() { n.applyLeave(o) })
	case renounceOp:
		n.applyOnce(dig, func() { n.applyRenounce(o) })
	case splitOp:
		n.applyOnce(dig, func() { n.applySplit(o) })
	case walkStartOp:
		n.applyOnce(dig, func() { n.applyWalkStart(dig, o) })
	case shuffleStartOp:
		n.applyOnce(dig, func() { n.applyShuffleStart(dig, o) })
	case walkTimeoutOp:
		n.tallyVote(dig, op.Proposer, func() { n.applyWalkTimeout(o) })
	case mergeStartOp:
		n.applyOnce(dig, func() { n.applyMergeStart(dig, o) })
	default:
		n.logf("apply: unknown op type %T", v)
	}
}

// applyOnce applies a deduplicated op: the first commit of its digest marks
// it applied, clears it from ownPend and runs apply; a later one does nothing.
func (n *Node) applyOnce(dig crypto.Digest, apply func()) {
	if n.st.markAppliedOp(dig) {
		delete(n.ownPend, dig)
		apply()
	}
}

// tallyVote counts one member endorsement of a vote op; the action fires at
// f+1 distinct proposers, guaranteeing a correct member endorsed it.
func (n *Node) tallyVote(dig crypto.Digest, proposer ids.NodeID, fire func()) {
	if proposer == n.cfg.Identity.ID {
		// Only our own committed vote clears the re-proposal slot: if an
		// epoch barrier cuts the tally short, surviving members must
		// re-vote in the next epoch.
		delete(n.ownPend, dig)
	}
	if n.st == nil || n.st.fired[dig] || n.st.applied.has(dig) {
		return
	}
	if !n.st.comp.Contains(proposer) {
		return
	}
	set, ok := n.st.votes[dig]
	if !ok {
		set = make(map[ids.NodeID]bool)
		n.st.votes[dig] = set
	}
	set[proposer] = true
	if len(set) >= n.f()+1 {
		n.st.fired[dig] = true
		n.st.markAppliedOp(dig)
		if n.cfg.Callbacks.OnApply != nil {
			n.cfg.Callbacks.OnApply(uint64(n.st.comp.GroupID), n.st.comp.Epoch, dig, "FIRE")
		}
		fire()
	}
}

// voteInput proposes an input-vote op for an externally received group
// message. Every correct member that observed the message proposes it.
func (n *Node) voteInput(acc group.Accepted) {
	n.proposeOp(inputVoteOp{Kind: acc.Kind, MsgID: acc.MsgID, Src: acc.Src, Payload: acc.Payload})
}

// applyInput dispatches a group-message-derived event once endorsed.
func (n *Node) applyInput(dig crypto.Digest, o inputVoteOp) {
	v, err := decodeKind(o.Kind, o.Payload)
	if err != nil {
		n.logf("applyInput: bad payload: %v", err)
		return
	}
	switch p := v.(type) {
	case walkPayload:
		n.applyWalkArrival(dig, o.Src, p)
	case walkResult:
		n.applyWalkResult(p)
	case neighborUpdatePayload:
		n.applyNeighborUpdate(p)
	case setNeighborPayload:
		n.applySetNeighbor(p)
	case cycleAssignPayload:
		n.applyCycleAssign(p)
	case exchangeConfirmPayload:
		n.applyExchangeConfirm(p)
	case exchangeCancelPayload:
		n.applyExchangeCancel(p)
	case mergeRequestPayload:
		n.applyMergeRequest(o.Src, o.MsgID, p)
	case mergeAcceptPayload:
		n.applyMergeAccept(p)
	case mergeRejectPayload:
		n.applyMergeReject()
	default:
		n.logf("applyInput: unknown payload %T", v)
	}
}

// applyEvict fires when f+1 members voted to evict a silent peer.
func (n *Node) applyEvict(o evictVoteOp) {
	if n.st == nil || o.Epoch != n.st.comp.Epoch || !n.st.comp.Contains(o.Target) {
		return
	}
	n.logf("evicting %v from %v/%d", o.Target, n.st.comp.GroupID, n.st.comp.Epoch)
	n.counts.Evictions++
	n.reconfigure(ids.Without(n.st.comp.Members, o.Target), causeEvict)
}

// --- the reconfiguration barrier ---

// reconfigure is the single place vgroup membership changes: it bumps the
// epoch, notifies neighbors, transfers state to admitted nodes, restarts
// SMR, and triggers the paper's post-change actions (shuffle for
// join/leave/evict/merge; resize checks).
//
// It runs during apply at every member of the *old* configuration —
// including members that depart with this change, whose last duty is to
// send their share of the notifications and snapshots. members is a slice
// the caller built for it: it is sorted in place and becomes the new
// composition's Members.
func (n *Node) reconfigure(members []ids.Identity, cause reconfigCause) {
	st := n.st
	// Pending egress batches were enqueued — and their inner MsgIDs derived —
	// under the closing epoch; send them stamped with it before the bump, or
	// receivers would tally our votes under a composition we never used.
	n.egress.FlushAll()
	old := st.comp
	ids.SortIdentities(members)
	st.comp = group.Composition{GroupID: old.GroupID, Epoch: old.Epoch + 1, Members: members}
	n.learnComp(old)
	n.learnComp(st.comp)
	n.forgetSnapshots(st.comp, false)
	n.logf("reconfigure %v: epoch %d -> %d (%s), members %v",
		old.GroupID, old.Epoch, st.comp.Epoch, cause, ids.IdentityIDs(members))

	n.stopReplica()

	// Snapshots stamped with the old epoch: the configuration that admitted
	// the change attests the new one. Freshly admitted nodes need them to
	// become members; continuing members use them as epoch catch-up — a
	// member that missed the epoch-closing commit (its peers may already
	// have retired the old SMR instance, leaving it unable to finish alone)
	// installs the attested successor state instead of wedging (§7's
	// "dangling membership" class of complications).
	snap := encodePayload(snapshotPayload{State: st.buildSnapshot()})
	for _, m := range st.comp.Members {
		if m.ID == n.cfg.Identity.ID {
			continue
		}
		msgID := snapMsgID(old, m.ID)
		n.egress.ToNode(old, m.ID, kindSnapshot, msgID, snap)
	}
	n.cacheSnapshot(old.Epoch, snap)

	// Tell every distinct neighbor vgroup about the new composition.
	payload := encodePayload(neighborUpdatePayload{NewComp: st.comp})
	notified := make(map[ids.GroupID]bool)
	notify := func(c group.Composition) {
		if c.GroupID == 0 || c.GroupID == old.GroupID || notified[c.GroupID] {
			return
		}
		notified[c.GroupID] = true
		msgID := nbrUpdateMsgID(st.comp, c.GroupID)
		n.sendGroup(old, c, kindNeighborUpdate, msgID, payload)
	}
	for c := 0; c < st.nbrs.NumCycles(); c++ {
		notify(st.nbrs.Preds[c])
		notify(st.nbrs.Succs[c])
	}

	// Votes are per-epoch; heartbeat clocks restart as the epoch is entered.
	st.resetVotes()

	if ids.FindIdentity(members, n.cfg.Identity.ID) < 0 {
		n.departed(cause)
		return
	}
	n.enterEpoch()

	switch cause {
	case causeJoin, causeLeave, causeEvict, causeMerge:
		if n.cfg.DisableShuffle {
			n.checkResize()
			n.processPendingJoins()
		} else {
			n.proposeOp(shuffleStartOp{GroupID: st.comp.GroupID, Epoch: st.comp.Epoch})
		}
	case causeExchange, causeSplit:
		n.checkResize()
		n.processPendingJoins()
	}
	// Catch-up shares for the epoch just entered may already be tallied
	// (they are sent once, possibly before this member crossed the barrier).
	n.adoptSnapshots()
}

// cacheSnapshot keeps recent outgoing snapshot payloads for heartbeat-
// triggered re-shares, bounded to the last few epochs. A heartbeat frees the
// cache once no other member of the current composition owes a heartbeat at
// its epoch (handleHeartbeat, peerBehind).
func (n *Node) cacheSnapshot(attestEpoch uint64, payload []byte) {
	if n.recentSnaps == nil {
		n.recentSnaps = make(map[uint64][]byte)
	}
	n.recentSnaps[attestEpoch] = payload
	for e := range n.recentSnaps {
		if e+4 <= attestEpoch {
			delete(n.recentSnaps, e)
		}
	}
}

// stopReplica stops and drops the SMR replica, if there is one.
func (n *Node) stopReplica() {
	if n.replica != nil {
		n.replica.Stop()
		n.replica = nil
	}
}

// departed is this node's one way out of its vgroup, whatever the route: a
// committed change that leaves it out, the merge dissolve, or the sole
// member's leave. It stops the replica and drops everything kept for the
// vgroup: the state, the pending ops, the member table, the cached snapshots
// and the repair state.
func (n *Node) departed(cause reconfigCause) {
	n.stopReplica()
	n.st = nil
	n.replicaEpoch = 0
	n.ownPend = make(map[crypto.Digest]smr.Operation)
	// Cached snapshots attest the group just left; they must not be
	// re-shared under a future group's epochs. The member table and the
	// repair state are the old vgroup's too.
	n.recentSnaps = nil
	n.peers = nil
	n.rep = newRepair(n.cfg.RoundDuration)
	switch cause {
	case causeExchange, causeMerge:
		// A snapshot from the destination vgroup is on its way; the
		// expected source was registered before reconfigure.
		n.phase = phaseAwaitSnapshot
		n.awaitDeadline = n.env.Now() + 2*n.cfg.JoinTimeout
		n.adoptSnapshots()
	default:
		n.phase = phaseLeft
		if n.cfg.Callbacks.OnLeft != nil {
			n.cfg.Callbacks.OnLeft(cause.String())
		}
	}
}

// checkResize enforces logarithmic grouping (§3.1): splits above GMax,
// merges below GMin.
func (n *Node) checkResize() {
	st := n.st
	if st == nil || st.busy {
		return
	}
	if st.comp.N() > n.cfg.Params.GMax {
		n.proposeOp(splitOp{GroupID: st.comp.GroupID, Epoch: st.comp.Epoch})
	} else if st.comp.N() < n.cfg.Params.GMin && !n.isAlone() {
		n.proposeOp(mergeStartOp{GroupID: st.comp.GroupID, Epoch: st.comp.Epoch, Attempt: st.mergeAttempt})
	}
}

// isAlone reports whether this vgroup is the entire system (its neighbors
// are all itself); such a group cannot merge.
func (n *Node) isAlone() bool {
	return len(n.st.nbrs.Distinct(n.st.comp.GroupID)) == 0
}

// --- deterministic message IDs ---

func snapMsgID(old group.Composition, to ids.NodeID) crypto.Digest {
	return crypto.Derive("atum-snap", nil, uint64(old.GroupID), old.Epoch, uint64(to))
}

func nbrUpdateMsgID(newComp group.Composition, to ids.GroupID) crypto.Digest {
	return crypto.Derive("atum-nbru", nil, uint64(newComp.GroupID), newComp.Epoch, uint64(to))
}

func walkMsgID(walkID crypto.Digest, step int, dst ids.GroupID) crypto.Digest {
	return crypto.Derive("atum-walk", walkID[:], uint64(step), uint64(dst))
}

func replyMsgID(walkID crypto.Digest, hop int) crypto.Digest {
	return crypto.Derive("atum-wreply", walkID[:], uint64(hop))
}
