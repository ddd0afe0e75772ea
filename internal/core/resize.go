package core

import (
	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/overlay"
	"atum/internal/smr"
)

// Logarithmic grouping (paper §3.1, §3.3): vgroups that grow beyond GMax
// split in two; vgroups that shrink below GMin merge into a neighbor. Splits
// insert the new vgroup right after the old one on every cycle for
// immediate connectivity, then relocate it to a random position per cycle
// with one PurposeSplitInsert walk each — the paper's randomized insertion.

// applyLeave removes a member at its own request (§3.3.3).
func (n *Node) applyLeave(o leaveOp) {
	st := n.st
	if st == nil || !st.comp.Contains(o.Node) {
		return
	}
	if st.comp.N() == 1 {
		return // the sole member shuts the instance down locally instead
	}
	n.reconfigure(ids.Without(st.comp.Members, o.Node), causeLeave)
}

// applySplit divides the vgroup (deterministically, from the composition
// digest) into two halves: the old GroupID keeps one half, a freshly minted
// GroupID takes the other.
func (n *Node) applySplit(o splitOp) {
	st := n.st
	if st == nil || o.Epoch != st.comp.Epoch {
		return
	}
	if st.comp.N() <= n.cfg.Params.GMax || st.busy {
		return // stale or deferred; checkResize re-proposes when unblocked
	}
	old := st.comp
	oldDigest := old.Digest()
	seed := crypto.Hash([]byte("atum-split"), oldDigest[:])
	shuffled := prfShuffleIdentities(seed, old.Members)
	half := (len(shuffled) + 1) / 2
	dMembers, eMembers := shuffled[:half:half], shuffled[half:]
	ids.SortIdentities(dMembers)
	ids.SortIdentities(eMembers)

	newGID := deriveGroupID(old.GroupID, old.Epoch)
	eComp := group.Composition{GroupID: newGID, Epoch: 1, Members: eMembers}
	dComp := group.Composition{GroupID: old.GroupID, Epoch: old.Epoch + 1, Members: dMembers}
	n.learnComp(eComp)
	n.learnComp(dComp)
	n.counts.Splits++
	n.logf("split %v/%d: D=%d members, E=%v with %d members",
		old.GroupID, old.Epoch, len(dMembers), newGID, len(eMembers))

	// E slots in immediately after D on every cycle (connectivity bridge);
	// the relocation walks below randomize its position, as §3.3.2
	// prescribes. All sends here are stamped with the old composition.
	hc := st.nbrs.NumCycles()
	eNbrs := overlay.NewNeighbors(hc, eComp)
	for c := 0; c < hc; c++ {
		oldSucc := st.nbrs.Succs[c]
		eNbrs.Preds[c] = dComp
		if oldSucc.GroupID == old.GroupID {
			// Self-loop cycle: it becomes D -> E -> D.
			eNbrs.Succs[c] = dComp
		} else {
			eNbrs.Succs[c] = oldSucc
			pl := encodePayload(setNeighborPayload{Cycle: c, Dir: overlay.Pred, Comp: eComp})
			n.sendGroup(old, oldSucc, kindSetNeighbor,
				setNbrMsgID(old, oldSucc.GroupID, c, overlay.Pred), pl)
		}
	}

	if ids.FindIdentity(eMembers, n.cfg.Identity.ID) >= 0 {
		// We are in the new vgroup: install its state directly (we hold
		// everything already — no snapshot needed).
		n.installSplitHalf(eComp, eNbrs, dComp)
		return
	}

	// We stay in D: re-point successors at E, then reconfigure.
	for c := 0; c < hc; c++ {
		if st.nbrs.Succs[c].GroupID == old.GroupID {
			st.nbrs.Preds[c] = eComp
		}
		st.nbrs.Succs[c] = eComp
	}
	n.reconfigure(dMembers, causeSplit)
	if n.st == nil {
		return
	}
	// Relocate E to a random position on each cycle.
	for c := 0; c < hc; c++ {
		n.st.walkSeq++
		n.proposeOp(walkStartOp{
			GroupID:  n.st.comp.GroupID,
			Purpose:  PurposeSplitInsert,
			Cycle:    c,
			NewGroup: eComp,
			Nonce:    n.st.walkSeq,
		})
	}
	n.processPendingJoins()
}

// installSplitHalf moves this member into the freshly split-off vgroup.
func (n *Node) installSplitHalf(eComp group.Composition, eNbrs overlay.Neighbors, dComp group.Composition) {
	// Pending egress batches were enqueued under the parent composition;
	// they must leave stamped with it, not with the split-off group's.
	n.egress.FlushAll()
	n.stopReplica()
	applied := n.st.applied
	n.st = newGroupState(eComp, eNbrs)
	// Inherit the parent's dedup window: both halves share the pre-split
	// history, so both must skip the same duplicates.
	n.st.applied = applied
	// The cached snapshots attest the parent vgroup. A re-share answers a
	// heartbeat under this vgroup's GroupID, so none of them can be asked for.
	n.recentSnaps = nil
	n.ownPend = make(map[crypto.Digest]smr.Operation)
	n.learnComp(dComp)
	n.forgetSnapshots(dComp, false) // the parent vgroup's, behind the epoch this member left it at
	n.makeReplica()
	n.rebuildPeers()
}

// applySplitInsert relocates a split-off vgroup: insert it between us and
// our successor on the given cycle (the walk selected us for this).
func (n *Node) applySplitInsert(p walkPayload) {
	st := n.st
	if st == nil || p.Cycle < 0 || p.Cycle >= st.nbrs.NumCycles() {
		return
	}
	e := p.NewGroup
	if e.N() == 0 || e.GroupID == st.comp.GroupID {
		return // cannot insert a vgroup after itself; keep its bridge spot
	}
	e = n.learnComp(e)
	oldSucc := st.nbrs.Succs[p.Cycle]
	if oldSucc.GroupID == e.GroupID {
		return // already our successor here
	}
	st.nbrs.Succs[p.Cycle] = e
	// Tell the old successor its new predecessor, and give E its position.
	if oldSucc.GroupID != st.comp.GroupID {
		pl := encodePayload(setNeighborPayload{Cycle: p.Cycle, Dir: overlay.Pred, Comp: e})
		n.sendGroup(st.comp, oldSucc, kindSetNeighbor,
			setNbrMsgID(st.comp, oldSucc.GroupID, p.Cycle, overlay.Pred), pl)
	}
	succForE := oldSucc
	if oldSucc.GroupID == st.comp.GroupID {
		succForE = st.comp
	}
	assign := encodePayload(cycleAssignPayload{Cycle: p.Cycle, Pred: st.comp, Succ: succForE})
	n.sendGroup(st.comp, e, kindCycleAssign, cycleAssignMsgID(st.comp, e.GroupID, p.Cycle), assign)
	if oldSucc.GroupID == st.comp.GroupID {
		st.nbrs.Preds[p.Cycle] = e
	}
}

// --- merge ---

// applyMergeStart begins a merge attempt: pick a neighbor and ask it to
// absorb us. dig is the committed op's content digest; the target choice is
// derived from the agreed bytes, never from a local re-encoding (agreed
// bytes are the only encoding every member is guaranteed to share).
func (n *Node) applyMergeStart(dig crypto.Digest, o mergeStartOp) {
	st := n.st
	if st == nil || o.Epoch != st.comp.Epoch || st.busy {
		return
	}
	if st.comp.N() >= n.cfg.Params.GMin || n.isAlone() {
		return
	}
	neighbors := st.nbrs.Distinct(st.comp.GroupID)
	if len(neighbors) == 0 {
		return
	}
	target := neighbors[prfPick(dig, 0x9e3779b9, len(neighbors))]
	targetComp := n.latestNeighborComp(target)
	if targetComp.N() == 0 {
		return
	}
	st.busy = true
	st.mergeAttempt = o.Attempt + 1
	mergeID := crypto.Hash([]byte("atum-merge"), dig[:])
	st.walkOrigins = append(st.walkOrigins, walkOrigin{
		WalkID: mergeID, Purpose: PurposeMerge, OriginComp: st.comp,
	})
	n.walkDeadlines[mergeID] = n.env.Now() + n.cfg.WalkTimeout
	n.logf("merge attempt %d: %v -> %v", st.mergeAttempt, st.comp.GroupID, target)
	pl := encodePayload(mergeRequestPayload{From: st.comp})
	// The request MsgID derives from the committed op digest, which includes
	// the attempt counter: a retry to a previously tried target must be a
	// NEW logical message, or the target's inbox dedups it against the
	// already-accepted earlier attempt and the requester wedges busy until
	// the inbox prune — a timing-dependent merge starvation (and, through
	// the busy flag, a join starvation at this vgroup's contact members).
	n.sendGroup(st.comp, targetComp, kindMergeRequest, crypto.Hash([]byte("atum-mergereq"), dig[:]), pl)
}

// latestNeighborComp returns the newest known composition of a neighbor.
func (n *Node) latestNeighborComp(gid ids.GroupID) group.Composition {
	var best group.Composition
	st := n.st
	for c := 0; c < st.nbrs.NumCycles(); c++ {
		for _, comp := range []group.Composition{st.nbrs.Preds[c], st.nbrs.Succs[c]} {
			if comp.GroupID == gid && comp.Epoch > best.Epoch {
				best = comp
			}
		}
	}
	return best
}

// applyMergeRequest is the absorber side: accept the shrunken vgroup's
// members, or reject if we are busy. reqID is the accepted request's MsgID;
// replies derive theirs from it so each attempt's reply is a fresh logical
// message at the requester (see the dedup note in applyMergeStart).
func (n *Node) applyMergeRequest(src group.Key, reqID crypto.Digest, p mergeRequestPayload) {
	st := n.st
	if st == nil || p.From.N() == 0 || p.From.GroupID == st.comp.GroupID {
		return
	}
	from := n.learnComp(p.From)
	replyID := crypto.Hash([]byte("atum-mergereply"), reqID[:])
	if st.busy {
		pl := encodePayload(mergeRejectPayload{Busy: true})
		n.sendGroup(st.comp, from, kindMergeReject, replyID, pl)
		return
	}
	n.counts.Merges++
	// Accept: absorb every member; the accept tells the dissolving vgroup
	// (and its members) that our old composition attests their snapshots.
	accept := encodePayload(mergeAcceptPayload{Absorber: st.comp})
	n.sendGroup(st.comp, from, kindMergeAccept, replyID, accept)

	absorbed := 0
	for _, m := range from.Members {
		if !st.comp.Contains(m.ID) {
			absorbed++
		}
	}
	members := make([]ids.Identity, 0, st.comp.N()+absorbed)
	members = append(members, st.comp.Members...)
	for _, m := range from.Members {
		if !st.comp.Contains(m.ID) {
			members = append(members, m)
		}
	}
	n.reconfigure(members, causeMerge)
}

// applyMergeAccept dissolves this vgroup: close the cycle gaps, then every
// member adopts the absorber's snapshot.
func (n *Node) applyMergeAccept(p mergeAcceptPayload) {
	st := n.st
	if st == nil || p.Absorber.N() == 0 {
		return
	}
	// Only meaningful while we are mid-merge.
	merging := false
	for _, wo := range st.walkOrigins {
		if wo.Purpose == PurposeMerge {
			merging = true
			delete(n.walkDeadlines, wo.WalkID)
		}
	}
	if !merging {
		return
	}
	n.logf("dissolving %v/%d into %v", st.comp.GroupID, st.comp.Epoch, p.Absorber.GroupID)
	// Close the gap we leave on every cycle: pred and succ become each
	// other's neighbors (§3.3.3).
	for c := 0; c < st.nbrs.NumCycles(); c++ {
		pred, succ := st.nbrs.Preds[c], st.nbrs.Succs[c]
		if pred.GroupID != st.comp.GroupID {
			pl := encodePayload(setNeighborPayload{Cycle: c, Dir: overlay.Succ, Comp: succ})
			n.sendGroup(st.comp, pred, kindSetNeighbor,
				setNbrMsgID(st.comp, pred.GroupID, c, overlay.Succ), pl)
		}
		if succ.GroupID != st.comp.GroupID {
			pl := encodePayload(setNeighborPayload{Cycle: c, Dir: overlay.Pred, Comp: pred})
			n.sendGroup(st.comp, succ, kindSetNeighbor,
				setNbrMsgID(st.comp, succ.GroupID, c, overlay.Pred), pl)
		}
	}
	// Everything still pending — earlier traffic and the gap closers above —
	// leaves stamped with the dissolving composition before the state is
	// torn down below; it would otherwise be silently delayed past the move.
	n.egress.FlushAll()
	n.expectSnapshotFrom(p.Absorber)
	n.stopReplica()
	// As on a split: the cached snapshots attest this vgroup, and a re-share
	// answers a heartbeat under the absorber's GroupID.
	n.recentSnaps = nil
	n.st = nil
	n.phase = phaseAwaitSnapshot
	n.awaitDeadline = n.env.Now() + 2*n.cfg.JoinTimeout
	n.adoptSnapshots()
}

// applyMergeReject backs off and retries with another neighbor.
func (n *Node) applyMergeReject() {
	st := n.st
	if st == nil {
		return
	}
	for i := 0; i < len(st.walkOrigins); i++ {
		if st.walkOrigins[i].Purpose == PurposeMerge {
			delete(n.walkDeadlines, st.walkOrigins[i].WalkID)
			st.walkOrigins = append(st.walkOrigins[:i], st.walkOrigins[i+1:]...)
			i--
		}
	}
	st.busy = false
	st.mergeAttempt++
	n.mergeRetryAt = n.env.Now() + 4*n.cfg.RoundDuration
	n.processPendingJoins()
}

// --- helpers ---

// deriveGroupID mints a fresh GroupID for a split. IDs are digests of the
// parent lineage, so clashes are negligible.
func deriveGroupID(parent ids.GroupID, epoch uint64) ids.GroupID {
	g := ids.GroupID(uint64(crypto.Derive("atum-gid", nil, uint64(parent), epoch).Seed()))
	if g == 0 {
		g = 1 << 60
	}
	return g
}

func cycleAssignMsgID(src group.Composition, dst ids.GroupID, cycle int) crypto.Digest {
	return crypto.Derive("atum-cassign", nil, uint64(src.GroupID), src.Epoch, uint64(dst), uint64(cycle))
}
