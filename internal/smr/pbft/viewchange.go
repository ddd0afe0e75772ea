package pbft

import (
	"atum/internal/crypto"
	"atum/internal/ids"
	"atum/internal/smr"
)

// startViewChange votes to install the given view: the replica stops
// participating in the old view, broadcasts a signed ViewChange carrying its
// prepared entries, and arms an escalation timer in case the change stalls.
func (r *Replica) startViewChange(target uint64) {
	if target <= r.view {
		return
	}
	if r.inViewChange && target <= r.vcTarget {
		return
	}
	r.inViewChange = true
	r.vcTarget = target
	r.vcAttempts++

	vc := ViewChange{
		GroupID:   r.cfg.GroupID,
		Epoch:     r.cfg.Epoch,
		NewView:   target,
		StableSeq: r.stableSeq,
		Node:      r.cfg.Self,
	}
	for _, seq := range r.sortedSeqs() {
		e := r.entries[seq]
		if r.prepared(e) && seq > r.stableSeq {
			vc.Prepared = append(vc.Prepared, PreparedEntry{
				Seq: e.seq, View: e.view, Digest: e.digest, Batch: e.batch,
			})
		}
	}
	vc.Sig = r.cfg.Signer.Sign(vc.signedBytes())

	r.cfg.Logln("pbft %v/%d %v: view change -> %d", r.cfg.GroupID, r.cfg.Epoch, r.cfg.Self, target)
	r.broadcast(vc)
	r.storeViewChange(r.cfg.Self, vc)
	r.cfg.SetTimer(r.curTimeout, viewChangeTimeout{attempt: r.vcAttempts})
	r.maybeMakeNewView(target)
}

func (r *Replica) verifyViewChange(vc ViewChange) bool {
	idx := ids.FindIdentity(r.cfg.Members, vc.Node)
	if idx < 0 {
		return false
	}
	return r.cfg.Scheme.Verify(r.cfg.Members[idx].PubKey, vc.signedBytes(), vc.Sig)
}

func (r *Replica) storeViewChange(from ids.NodeID, vc ViewChange) {
	set, ok := r.viewChanges[vc.NewView]
	if !ok {
		set = make(map[ids.NodeID]ViewChange)
		r.viewChanges[vc.NewView] = set
	}
	set[from] = vc
}

func (r *Replica) handleViewChange(from ids.NodeID, vc ViewChange) {
	if vc.NewView <= r.view || vc.Node != from {
		return
	}
	if !r.verifyViewChange(vc) {
		return
	}
	r.storeViewChange(from, vc)

	// Lagging-replica rule: seeing f+1 replicas voting for higher views
	// means at least one correct replica timed out; join the smallest such
	// view so the group does not leave us behind.
	if !r.inViewChange || vc.NewView > r.vcTarget {
		distinct := make(map[ids.NodeID]uint64)
		minHigher := uint64(0)
		for v, set := range r.viewChanges {
			if v <= r.view {
				continue
			}
			for node := range set {
				if node == r.cfg.Self {
					continue
				}
				if old, ok := distinct[node]; !ok || v < old {
					distinct[node] = v
				}
			}
			if minHigher == 0 || v < minHigher {
				minHigher = v
			}
		}
		if len(distinct) >= r.f+1 && (!r.inViewChange || minHigher > r.vcTarget) {
			r.startViewChange(minHigher)
		}
	}
	r.maybeMakeNewView(vc.NewView)
}

// maybeMakeNewView, called on the would-be primary of view v, assembles and
// broadcasts NewView once a strong quorum of view changes exists. The
// generalized quorum guarantees the view-change set intersects every prepare
// quorum in ≥ f+1 members, so any committed entry survives into the new view.
func (r *Replica) maybeMakeNewView(v uint64) {
	if r.primaryOf(v) != r.cfg.Self || r.newViewSent[v] || v <= r.view {
		return
	}
	set := r.viewChanges[v]
	if len(set) < r.quorum {
		return
	}
	vcs := make([]ViewChange, 0, len(set))
	for _, m := range r.cfg.Members { // deterministic order
		if vc, ok := set[m.ID]; ok {
			vcs = append(vcs, vc)
		}
	}
	pps := computeNewViewPrePrepares(r.cfg.GroupID, r.cfg.Epoch, v, vcs)
	nv := NewView{GroupID: r.cfg.GroupID, Epoch: r.cfg.Epoch, View: v,
		ViewChanges: vcs, PrePrepares: pps}
	r.newViewSent[v] = true
	r.broadcast(nv)
	r.installNewView(nv)
}

// computeNewViewPrePrepares derives the re-proposals a NewView must carry:
// for every sequence number between the highest stable checkpoint and the
// highest prepared entry, the prepared batch with the highest view wins;
// gaps become null (empty-batch) proposals.
func computeNewViewPrePrepares(group ids.GroupID, epoch, view uint64, vcs []ViewChange) []PrePrepare {
	var stable, maxSeq uint64
	for _, vc := range vcs {
		if vc.StableSeq > stable {
			stable = vc.StableSeq
		}
		for _, p := range vc.Prepared {
			if p.Seq > maxSeq {
				maxSeq = p.Seq
			}
		}
	}
	best := make(map[uint64]PreparedEntry)
	for _, vc := range vcs {
		for _, p := range vc.Prepared {
			if cur, ok := best[p.Seq]; !ok || p.View > cur.View {
				best[p.Seq] = p
			}
		}
	}
	var pps []PrePrepare
	for seq := stable + 1; seq <= maxSeq; seq++ {
		if p, ok := best[seq]; ok {
			pps = append(pps, PrePrepare{GroupID: group, Epoch: epoch,
				View: view, Seq: seq, Digest: p.Digest, Batch: p.Batch})
		} else {
			d := smr.OpsDigest(group, epoch, 0, 0, nil)
			pps = append(pps, PrePrepare{GroupID: group, Epoch: epoch,
				View: view, Seq: seq, Digest: d, Batch: nil})
		}
	}
	return pps
}

func (r *Replica) handleNewView(from ids.NodeID, nv NewView) {
	if nv.View <= r.view || from != r.primaryOf(nv.View) {
		return
	}
	// Verify the quorum of signed view changes.
	seen := make(map[ids.NodeID]bool)
	for _, vc := range nv.ViewChanges {
		if vc.NewView != nv.View || seen[vc.Node] || !r.verifyViewChange(vc) {
			return
		}
		seen[vc.Node] = true
	}
	if len(seen) < r.quorum {
		return
	}
	// Verify the primary computed the re-proposals honestly.
	want := computeNewViewPrePrepares(r.cfg.GroupID, r.cfg.Epoch, nv.View, nv.ViewChanges)
	if len(want) != len(nv.PrePrepares) {
		return
	}
	for i := range want {
		got := nv.PrePrepares[i]
		if got.Seq != want[i].Seq || got.Digest != want[i].Digest || got.View != nv.View {
			return
		}
	}
	r.installNewView(nv)
}

// installNewView moves the replica into the new view and replays the
// carried pre-prepares.
func (r *Replica) installNewView(nv NewView) {
	r.view = nv.View
	r.inViewChange = false
	r.timerGen++
	r.timerArmed = false
	r.curTimeout = r.opts.RequestTimeout
	for v := range r.viewChanges {
		if v <= nv.View {
			delete(r.viewChanges, v)
		}
	}
	maxSeq := r.lastExec
	for _, pp := range nv.PrePrepares {
		if pp.Seq > maxSeq {
			maxSeq = pp.Seq
		}
		if pp.Seq <= r.lastExec {
			continue // already executed locally
		}
		r.acceptPrePrepare(pp)
		if r.primaryOf(nv.View) != r.cfg.Self {
			prep := Prepare{GroupID: r.cfg.GroupID, Epoch: r.cfg.Epoch,
				View: pp.View, Seq: pp.Seq, Digest: pp.Digest}
			r.broadcast(prep)
			r.recordPrepare(r.cfg.Self, prep)
		}
	}
	if r.nextSeq < maxSeq {
		r.nextSeq = maxSeq
	}
	// Seq assignment is per-view: entries re-proposed by the NewView count
	// as assigned, everything else is up for (re)assignment.
	r.assigned = make(map[reqKey]bool)
	for _, pp := range nv.PrePrepares {
		for _, op := range pp.Batch {
			r.assigned[reqKey{proposer: op.Proposer, opID: op.OpID}] = true
		}
	}
	if r.primaryOf(nv.View) == r.cfg.Self {
		// Assign every known pending request that did not survive through
		// a prepared certificate. Duplicates are filtered at execution.
		unassigned := make([]smr.Operation, 0, len(r.pending))
		for key, op := range r.pending {
			if !r.assigned[key] {
				r.assigned[key] = true
				unassigned = append(unassigned, op)
			}
		}
		if len(unassigned) > 0 {
			sortOps(unassigned)
			r.assignSeq(unassigned)
		}
	}
	// Re-issue our own not-yet-executed proposals so a new primary that
	// never saw them learns them.
	var ownOps []smr.Operation
	for key, op := range r.pending {
		if key.proposer == r.cfg.Self {
			ownOps = append(ownOps, op)
		}
	}
	sortOps(ownOps)
	for _, op := range ownOps {
		req := Request{GroupID: r.cfg.GroupID, Epoch: r.cfg.Epoch, Op: op}
		r.broadcast(req)
		r.handleRequest(req)
	}
	// Replay pre-prepares the new primary sent before we installed the view.
	buffered := r.futurePP[nv.View]
	for v := range r.futurePP {
		if v <= nv.View {
			delete(r.futurePP, v)
		}
	}
	for _, pp := range buffered {
		r.handlePrePrepare(r.primaryOf(nv.View), pp)
	}
	r.maybeArmTimer()
	r.cfg.Logln("pbft %v/%d %v: entered view %d", r.cfg.GroupID, r.cfg.Epoch, r.cfg.Self, nv.View)
}

func sortOps(ops []smr.Operation) {
	for i := 1; i < len(ops); i++ {
		for j := i; j > 0; j-- {
			a, b := ops[j-1], ops[j]
			if a.Proposer < b.Proposer || (a.Proposer == b.Proposer && a.OpID <= b.OpID) {
				break
			}
			ops[j-1], ops[j] = ops[j], ops[j-1]
		}
	}
}

// digestOfBatch is a helper for tests.
func digestOfBatch(group ids.GroupID, epoch uint64, batch []smr.Operation) crypto.Digest {
	return smr.OpsDigest(group, epoch, 0, 0, batch)
}
