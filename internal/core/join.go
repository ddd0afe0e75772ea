package core

import (
	"bytes"
	"cmp"
	"errors"
	"maps"
	"slices"

	"atum/internal/actor"
	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/overlay"
)

// API-level errors.
var (
	// ErrNotMember is returned by operations that need vgroup membership.
	ErrNotMember = errors.New("core: node is not a vgroup member")
	// ErrBusy is returned when the node is mid-lifecycle (joining/leaving).
	ErrBusy = errors.New("core: operation already in progress")
	// ErrBroadcastTooLarge is returned by Broadcast for payloads the wire
	// framing cannot carry; rejecting at the caller keeps oversized data
	// from reaching (and faulting) remote forwarders.
	ErrBroadcastTooLarge = errors.New("core: broadcast payload too large")
)

// MaxBroadcastBytes bounds one broadcast payload. The gossip frame encodes
// payloads through the wire codec, whose hard length limit is 256 MiB; the
// bound leaves ample headroom for envelope overhead.
const MaxBroadcastBytes = 128 << 20

// Bootstrap creates a new Atum instance consisting of a single vgroup
// containing only this node (§3.3.1). The vgroup is its own neighbor on
// every H-graph cycle.
func (n *Node) Bootstrap() error {
	if n.phase != phaseIdle {
		return ErrBusy
	}
	comp := group.Composition{
		GroupID: 1,
		Epoch:   1,
		Members: []ids.Identity{n.Identity()},
	}
	n.st = newGroupState(comp, overlay.NewNeighbors(n.cfg.Params.HC, comp))
	n.learnComp(comp)
	n.phase = phaseMember
	n.rep.since = n.Now()
	n.enterEpoch()
	if n.cfg.Callbacks.OnJoined != nil {
		n.cfg.Callbacks.OnJoined(comp.Clone())
	}
	return nil
}

// Join starts the join protocol through the given (trusted) contact node
// (§3.3.2). Progress is reported through Callbacks.OnJoined. Join may be
// called before the node's runtime started; the attempt begins at Start.
func (n *Node) Join(contact ids.Identity) error {
	if n.phase != phaseIdle && n.phase != phaseLeft {
		return ErrBusy
	}
	n.phase = phaseJoining
	n.join = &joinContext{contact: contact, stage: stageContact}
	if n.env != nil {
		n.startJoinAttempt()
	}
	return nil
}

func (n *Node) startJoinAttempt() {
	j := n.join
	j.attempts++
	j.stage = stageContact
	j.deadline = n.env.Now() + n.cfg.JoinTimeout
	actor.LearnIdentity(n.env, j.contact)
	n.egress.Node(j.contact.ID, JoinContact{Joiner: n.Identity()})
}

// retryJoin fires when a join stage misses its deadline.
func (n *Node) retryJoin() {
	j := n.join
	if j == nil {
		return
	}
	if j.attempts >= maxJoinTries {
		n.join = nil
		n.phase = phaseIdle
		if n.cfg.Callbacks.OnLeft != nil {
			n.cfg.Callbacks.OnLeft("join-failed")
		}
		return
	}
	n.logf("join attempt %d timed out, retrying", j.attempts)
	n.startJoinAttempt()
}

// Leave requests removal from the system (§3.3.3). The request is agreed by
// the vgroup; Callbacks.OnLeft fires when the removal commits.
func (n *Node) Leave() error {
	if n.phase != phaseMember || n.st == nil {
		return ErrNotMember
	}
	if n.st.comp.N() == 1 {
		// Sole member of the sole vgroup: the instance dies with it.
		n.departed(causeLeave)
		return nil
	}
	n.proposeOp(leaveOp{GroupID: n.st.comp.GroupID, Node: n.cfg.Identity.ID})
	return nil
}

// --- contact-node side ---

func (n *Node) handleJoinContact(from ids.NodeID, m JoinContact) {
	if n.phase != phaseMember || n.st == nil {
		return
	}
	if m.Joiner.ID != from {
		return // the contact channel is link-authenticated
	}
	actor.LearnIdentity(n.env, m.Joiner)
	n.egress.Node(from, ContactInfo{Comp: n.st.comp})
}

// --- joiner side ---

func (n *Node) handleContactInfo(from ids.NodeID, m ContactInfo) {
	j := n.join
	if j == nil || j.stage != stageContact || from != j.contact.ID {
		return
	}
	if m.Comp.N() == 0 || !m.Comp.Contains(from) {
		return
	}
	// This is the single step where the joiner trusts the contact (§3.3.2).
	j.contactComp = n.learnComp(m.Comp)
	j.stage = stageRequestedC
	j.deadline = n.env.Now() + n.cfg.JoinTimeout
	n.sendJoinRequest(j.contactComp)
}

func (n *Node) sendJoinRequest(target group.Composition) {
	n.opSeq++
	req := JoinRequest{
		Joiner: n.Identity(),
		Target: target.GroupID,
		Nonce:  n.opSeq,
		Sig:    n.signer.Sign(joinRequestBytes(n.Identity(), target.GroupID, n.opSeq)),
	}
	for _, m := range target.Members {
		n.egress.Node(m.ID, req)
	}
}

// handleJoinRedirect processes the composition of the vgroup selected to
// accommodate this joiner (backward mode: the redirect arrives from the
// contact vgroup, inbox-validated against its composition).
func (n *Node) handleJoinRedirect(acc group.Accepted, p joinRedirectPayload) {
	j := n.join
	if j == nil || j.stage != stageRequestedC {
		return
	}
	if acc.Src.GroupID != j.contactComp.GroupID {
		return
	}
	n.acceptRedirect(p.Target)
}

// handleDirectRedirect processes a certificate-mode redirect sent straight
// from the selected vgroup; the chain, rooted at the contact vgroup the
// joiner trusts, proves the sender's identity. An empty chain attests only
// that root: the redirect must name the contact vgroup as the joiner trusts
// it, unless the contact itself sends it (§3.3.2) — anyone can send a copy.
func (n *Node) handleDirectRedirect(from ids.NodeID, m group.GroupMsg) {
	j := n.join
	if j == nil || j.stage != stageRequestedC || m.Payload == nil {
		return
	}
	p, err := decodeAs[joinRedirectPayload](m.Payload)
	if err != nil {
		return
	}
	chained, err := n.verifyDirect(m, j.contactComp, p.WalkID, p.Target)
	if err != nil {
		n.logf("join redirect: %v", err)
		return
	}
	if !chained {
		fromContact := from == j.contact.ID && p.Target.GroupID == j.contactComp.GroupID
		if !fromContact && !p.Target.Equal(j.contactComp) {
			return
		}
	}
	n.acceptRedirect(p.Target)
}

// acceptRedirect advances the joiner to the selected vgroup.
func (n *Node) acceptRedirect(target group.Composition) {
	j := n.join
	if target.N() == 0 {
		return
	}
	target = n.learnComp(target)
	j.stage = stageRequestedD
	j.deadline = n.env.Now() + n.cfg.JoinTimeout
	// The admitting configuration will attest the next epoch; accept its
	// snapshot when it comes.
	n.expectSnapshotFrom(target)
	n.sendJoinRequest(target)
}

// expectSnapshotFrom registers a trusted snapshot source and adopts from the
// snapshot table if that vgroup's snapshot is already attested there.
// Expectations are per-group, not per-epoch: the admitting vgroup may
// reconfigure again (evictions) before our snapshot is cut.
func (n *Node) expectSnapshotFrom(src group.Composition) {
	n.learnComp(src)
	n.expectSnapshot[src.GroupID] = true
	n.adoptSnapshots()
}

// --- the snapshot table ---
//
// A node enters a vgroup's state in one way: it installs the state that a
// configuration of that vgroup attests — the snapshot every member of the old
// configuration sends every member of the new one at the epoch barrier
// (reconfigure). Every share of one lands in one table, n.snaps, keyed by the
// attesting composition and the payload digest, and a tally is installed when
// the node is ready for it in one of two roles:
//
//   - a joiner or mover (phaseJoining, phaseAwaitSnapshot) expecting a
//     snapshot from that vgroup is in no configuration of it, so it takes a
//     majority of the attesting composition (attestSnapshots);
//   - a laggard — a member that missed its epoch's closing commit and cannot
//     finish the old SMR instance once its peers retired it — takes f+1 other
//     members of its own current composition, at least one of them correct:
//     its own share is the one missing.
//
// Shares for epochs the node has not reached are kept, so installs chain
// across epochs; a share for an epoch of its own vgroup it has passed is
// stale, and the tallies its own composition supersedes are freed whenever
// that composition changes (forgetSnapshots).

// observeShare tallies one snapshot share addressed to this node and adopts
// whatever the table then attests. A share whose attesting composition the
// node knows counts only from a member of it, so a non-member opens nothing
// there; a tally is charged to the sender that opened it, so one sender
// cannot hold the table.
func (n *Node) observeShare(from ids.NodeID, m group.GroupMsg) {
	src := group.Key{GroupID: m.SrcGroup, Epoch: m.SrcEpoch}
	// A share for an epoch of the node's own vgroup that it passed is stale.
	if from == n.cfg.Identity.ID ||
		n.st != nil && src.GroupID == n.st.comp.GroupID && src.Epoch < n.st.comp.Epoch {
		return
	}
	if c, known := n.exactComp(src); known && !c.Contains(from) {
		return
	}
	if m.Payload != nil && crypto.Hash(m.Payload) != m.PayloadDigest {
		return
	}
	key := snapKey{src: src, digest: m.PayloadDigest}
	tally, ok := n.snaps[key]
	if !ok {
		opened := 0
		for _, t := range n.snaps {
			if t.opener == from {
				opened++
			}
		}
		if len(n.snaps) >= maxSnapShares || opened >= maxSnapSharesPerSender {
			return // bounded; heavy pressure falls back to rejoin
		}
		tally = &snapTally{senders: make(map[ids.NodeID]bool), opener: from}
		n.snaps[key] = tally
	}
	tally.senders[from] = true
	if tally.payload == nil && m.Payload != nil {
		tally.payload = m.Payload
	}
	n.attestSnapshots(src)
	n.adoptSnapshots()
}

// attestSnapshots judges the tallies src attests for a joiner or mover, and
// reports whether one became attested: a majority of src, resolved by
// lookupComp, endorses a payload the tally holds. The judgement is made when
// a share of src arrives or src becomes known (learnComp) — when the inbox
// judges a group message — and it stands. A member's own vgroup's tallies are
// a laggard's and are judged by adoptSnapshots alone.
func (n *Node) attestSnapshots(src group.Key) (attested bool) {
	c, ok := n.lookupComp(src)
	if !ok || n.phase == phaseMember && n.st != nil && src.GroupID == n.st.comp.GroupID {
		return false
	}
	for k, t := range n.snaps {
		if k.src == src && !t.attested && t.payload != nil && n.endorsers(t, c) >= c.Majority() {
			t.attested, attested = true, true
		}
	}
	return attested
}

// endorsers counts the members of c, other than this node, that endorse t.
func (n *Node) endorsers(t *snapTally, c group.Composition) int {
	count := 0
	for id := range t.senders {
		if id != n.cfg.Identity.ID && c.Contains(id) {
			count++
		}
	}
	return count
}

// adoptSnapshots installs attested states while a tally is ready, one at a
// time, in ascending GroupID, then descending epoch — a mover that several
// states of its destination are attested to takes the newest — then ascending
// digest; not in map order: the state installed must be the same on every
// replay of a seed.
func (n *Node) adoptSnapshots() {
	for {
		var key snapKey
		var st *groupState
		for _, k := range slices.SortedFunc(maps.Keys(n.snaps), func(a, b snapKey) int {
			return cmp.Or(cmp.Compare(a.src.GroupID, b.src.GroupID), cmp.Compare(b.src.Epoch, a.src.Epoch),
				bytes.Compare(a.digest[:], b.digest[:]))
		}) {
			if st = n.readySnapshot(k); st != nil {
				key = k
				break
			}
		}
		if st == nil {
			return
		}
		n.installSnapshot(key, st)
	}
}

// readySnapshot returns the state the tally of k attests if this node may
// install it now in its role, and nil otherwise. A tally that is ready but
// attests no state the node may install is dropped.
func (n *Node) readySnapshot(k snapKey) *groupState {
	tally := n.snaps[k]
	laggard := n.phase == phaseMember && n.st != nil && k.src == n.st.comp.Key()
	joiner := (n.phase == phaseJoining || n.phase == phaseAwaitSnapshot) && tally.attested && n.expectSnapshot[k.src.GroupID]
	if !joiner && !(laggard && tally.payload != nil && n.endorsers(tally, n.st.comp) > n.f()) {
		return nil
	}
	p, err := decodeAs[snapshotPayload](tally.payload)
	var st *groupState
	if err == nil {
		st, err = restoreSnapshot(p.State)
	}
	if err == nil && (!st.comp.Contains(n.cfg.Identity.ID) ||
		laggard && (st.comp.GroupID != k.src.GroupID || st.comp.Epoch <= k.src.Epoch)) {
		err = errors.New("not a state this node may install")
	}
	if err != nil {
		n.logf("snapshot %v/%d: %v", k.src.GroupID, k.src.Epoch, err)
		delete(n.snaps, k)
		return nil
	}
	return st
}

// installSnapshot installs st, the state the ready tally of k attests, as
// this node's replicated state and enters its epoch. A joiner or mover
// becomes a member. A laggard also performs the outbound duty of the
// transition it skipped: it sends its own share of the snapshot to the new
// composition. Without it, every member that catches up (rather than
// applies) leaves later receivers one share short of their threshold, and
// the shortfall cascades across epochs.
func (n *Node) installSnapshot(k snapKey, st *groupState) {
	payload := n.snaps[k].payload
	delete(n.snaps, k)
	laggard := n.phase == phaseMember
	var old group.Composition
	if laggard {
		old = n.st.comp
		n.logf("epoch catch-up %v: %d -> %d", st.comp.GroupID, old.Epoch, st.comp.Epoch)
	} else {
		n.expectSnapshot = make(map[ids.GroupID]bool)
		n.join = nil
		n.awaitDeadline = 0
		n.phase = phaseMember
		n.rep.since = n.Now()
	}
	// A laggard can hold egress batches still pending under its old epoch;
	// send them stamped with it first.
	n.egress.FlushAll()
	n.stopReplica()
	n.st = st
	st.comp = n.learnComp(st.comp)
	for c := 0; c < st.nbrs.NumCycles(); c++ {
		st.nbrs.Preds[c] = n.learnComp(st.nbrs.Preds[c])
		st.nbrs.Succs[c] = n.learnComp(st.nbrs.Succs[c])
	}
	now := n.env.Now()
	// Arm local deadlines for inherited pending work: deadlines are
	// node-local, and without them a membership that rotated heavily could
	// end up with fewer than f+1 members able to vote a timeout.
	for _, wo := range st.walkOrigins {
		n.walkDeadlines[wo.WalkID] = now + n.cfg.WalkTimeout
	}
	for _, pe := range st.pendingExch {
		n.walkDeadlines[pe.WalkID] = now + 4*n.cfg.WalkTimeout
	}
	for _, ej := range st.expectedJoiners {
		n.walkDeadlines[ej.WalkID] = now + n.cfg.WalkTimeout
	}
	n.forgetSnapshots(st.comp, true)
	n.enterEpoch()
	if laggard {
		n.cacheSnapshot(old.Epoch, payload)
		for _, m := range st.comp.Members {
			if m.ID != n.cfg.Identity.ID {
				n.egress.ToNode(old, m.ID, kindSnapshot, snapMsgID(old, m.ID), payload)
			}
		}
	} else {
		n.logf("joined %v/%d members %v", st.comp.GroupID, st.comp.Epoch, ids.IdentityIDs(st.comp.Members))
		if n.cfg.Callbacks.OnJoined != nil {
			n.cfg.Callbacks.OnJoined(st.comp.Clone())
		}
	}
	// Replay any admission drain the in-time members performed right after
	// this barrier; without it this member lags one epoch behind and its
	// share of the next epoch's snapshots and notifications never goes out.
	n.processPendingJoins()
}

// forgetSnapshots drops the tallies that comp, this node's composition now,
// supersedes: its vgroup's behind its epoch and, on an install, every other
// vgroup's.
func (n *Node) forgetSnapshots(comp group.Composition, install bool) {
	maps.DeleteFunc(n.snaps, func(k snapKey, _ *snapTally) bool {
		if k.src.GroupID != comp.GroupID {
			return install
		}
		return k.src.Epoch < comp.Epoch
	})
}

// --- member side: admitting joiners ---

func (n *Node) handleJoinRequest(from ids.NodeID, m JoinRequest) {
	if n.phase != phaseMember || n.st == nil {
		return
	}
	if m.Target != n.st.comp.GroupID || m.Joiner.ID != from {
		return
	}
	if !n.cfg.Scheme.Verify(m.Joiner.PubKey, joinRequestBytes(m.Joiner, m.Target, m.Nonce), m.Sig) {
		return
	}
	if n.st.comp.Contains(m.Joiner.ID) {
		return
	}
	actor.LearnIdentity(n.env, m.Joiner)
	n.proposeOp(joinOp{Joiner: m.Joiner, Nonce: m.Nonce, Sig: m.Sig})
}

// applyJoin runs when the vgroup agreed on a join request (§3.3.2).
func (n *Node) applyJoin(o joinOp) {
	st := n.st
	if st == nil {
		return
	}
	if !n.cfg.Scheme.Verify(o.Joiner.PubKey, joinRequestBytes(o.Joiner, st.comp.GroupID, o.Nonce), o.Sig) {
		return // re-verified under agreement so all members filter alike
	}
	if st.comp.Contains(o.Joiner.ID) {
		return
	}
	for _, pj := range st.pendingJoins {
		if pj.Joiner.ID == o.Joiner.ID {
			// A retry of an already-queued admission: don't queue twice, but
			// do nudge the queue — the retry proves the joiner is still
			// waiting on it.
			n.processPendingJoins()
			return
		}
	}
	expected := st.findExpected(o.Joiner.ID) >= 0
	st.pendingJoins = append(st.pendingJoins, pendingJoin{Joiner: o.Joiner, Sig: o.Sig, Expected: expected})
	n.processPendingJoins()
}

// processPendingJoins advances the admission queue when the vgroup is not
// otherwise reconfiguring. An overdue split takes priority over admissions
// so continuous joins cannot starve logarithmic grouping.
func (n *Node) processPendingJoins() {
	st := n.st
	if st == nil || st.busy || len(st.pendingJoins) == 0 {
		return
	}
	if st.comp.N() > n.cfg.Params.GMax {
		return // a split is pending; admissions resume afterwards
	}
	pj := st.pendingJoins[0]
	st.pendingJoins = st.pendingJoins[1:]
	if exp := st.findExpected(pj.Joiner.ID); exp >= 0 || pj.Expected {
		// This vgroup was selected by a join walk: admit directly.
		if exp >= 0 {
			walkID := st.expectedJoiners[exp].WalkID
			st.expectedJoiners = append(st.expectedJoiners[:exp], st.expectedJoiners[exp+1:]...)
			delete(n.walkDeadlines, walkID)
		}
		if st.comp.Contains(pj.Joiner.ID) {
			n.processPendingJoins()
			return
		}
		n.reconfigure(ids.Without(st.comp.Members, pj.Joiner.ID, pj.Joiner), causeJoin)
		return
	}
	// Fresh request: select an accommodating vgroup with a random walk.
	st.busy = true
	st.walkSeq++
	n.proposeOp(walkStartOp{
		GroupID:   st.comp.GroupID,
		Purpose:   PurposeJoin,
		Joiner:    pj.Joiner,
		JoinerSig: pj.Sig,
		Nonce:     st.walkSeq,
	})
}

// --- accepted group message dispatch ---

func (n *Node) handleAccepted(acc group.Accepted) {
	// A join redirect is node-addressed: it is handled outside membership.
	if acc.Kind != kindJoinRedirect && (n.phase != phaseMember || n.st == nil) {
		return
	}
	if acc.Kind == kindGossip {
		n.handleGossip(acc) // the hot kind: deduplicated before anything is copied
		return
	}
	v, err := decodeKind(acc.Kind, acc.Payload)
	if err != nil {
		n.logf("accepted %d: bad payload: %v", acc.Kind, err)
		return
	}
	switch p := v.(type) {
	case walkPayload:
		n.handleWalkHop(acc, p)
	case backwardPayload:
		n.handleBackward(acc, p)
	case joinRedirectPayload:
		n.handleJoinRedirect(acc, p)
	default:
		// Everything else requires vgroup agreement before acting.
		n.voteInput(acc)
	}
}

// sendRenounce disowns a membership this node never completed: the target
// vgroup may list us, and as long as it does, its effective quorum is
// reduced — the signed renounce lets it drop us without an eviction quorum.
func (n *Node) sendRenounce(target group.Composition) {
	n.opSeq++
	r := Renounce{
		Node:   n.Identity(),
		Target: target.GroupID,
		Nonce:  n.opSeq,
		Sig:    n.signer.Sign(renounceBytes(n.Identity(), target.GroupID, n.opSeq)),
	}
	// Send to the newest composition we know plus the one we expected; the
	// live members propagate it through agreement.
	sent := make(map[ids.NodeID]bool)
	targets := []group.Composition{target}
	if c, ok := n.comps.newest(target.GroupID); ok {
		targets = append(targets, c)
	}
	for _, c := range targets {
		for _, m := range c.Members {
			if m.ID != n.cfg.Identity.ID && !sent[m.ID] {
				sent[m.ID] = true
				n.egress.Node(m.ID, r)
			}
		}
	}
	n.logf("renounced membership in %v", target.GroupID)
}

// handleRenounce verifies and proposes a renounce received from an orphan.
func (n *Node) handleRenounce(from ids.NodeID, m Renounce) {
	if n.phase != phaseMember || n.st == nil {
		return
	}
	if m.Target != n.st.comp.GroupID || m.Node.ID != from {
		return
	}
	if !n.st.comp.Contains(m.Node.ID) {
		return
	}
	if !n.cfg.Scheme.Verify(m.Node.PubKey, renounceBytes(m.Node, m.Target, m.Nonce), m.Sig) {
		return
	}
	n.proposeOp(renounceOp{Node: m.Node, Target: m.Target, Nonce: m.Nonce, Sig: m.Sig})
}

// applyRenounce removes a phantom member on its own authority.
func (n *Node) applyRenounce(o renounceOp) {
	st := n.st
	if st == nil || o.Target != st.comp.GroupID || !st.comp.Contains(o.Node.ID) {
		return
	}
	if !n.cfg.Scheme.Verify(o.Node.PubKey, renounceBytes(o.Node, o.Target, o.Nonce), o.Sig) {
		return
	}
	if st.comp.N() == 1 {
		return
	}
	n.logf("phantom member %v renounced; removing", o.Node.ID)
	n.reconfigure(ids.Without(st.comp.Members, o.Node.ID), causeEvict)
}
