package core

import (
	"bytes"
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
	n.makeReplica()
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
		n.st = nil
		if n.replica != nil {
			n.replica.Stop()
			n.replica = nil
		}
		n.phase = phaseLeft
		if n.cfg.Callbacks.OnLeft != nil {
			n.cfg.Callbacks.OnLeft("leave")
		}
		return nil
	}
	n.proposeOp(leaveOp{GroupID: n.st.comp.GroupID, Node: n.cfg.Identity.ID})
	return nil
}

// --- contact-node side ---

func (n *Node) handleJoinContact(from ids.NodeID, m JoinContact) {
	if n.phase != phaseMember || n.st == nil || n.byzActive() {
		return
	}
	if m.Joiner.ID != from {
		return // the contact channel is link-authenticated
	}
	actor.LearnIdentity(n.env, m.Joiner)
	n.egress.Node(from, ContactInfo{Comp: n.st.comp.Clone()})
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
	j.contactComp = m.Comp.Clone()
	n.learnComp(m.Comp)
	j.stage = stageRequestedC
	j.deadline = n.env.Now() + n.cfg.JoinTimeout
	n.sendJoinRequest(m.Comp)
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
// joiner trusts, proves the sender's identity.
func (n *Node) handleDirectRedirect(m group.GroupMsg) {
	j := n.join
	if j == nil || j.stage != stageRequestedC || m.Payload == nil {
		return
	}
	if crypto.Hash(m.Payload) != m.PayloadDigest {
		return
	}
	p, err := decodeAs[joinRedirectPayload](m.Payload)
	if err != nil {
		return
	}
	var chain []overlay.StepCert
	if m.Attach != nil {
		if att, err := decodeAs[walkAttachment](m.Attach); err == nil {
			chain = att.Chain
		}
	}
	final, err := overlay.VerifyChain(n.cfg.Scheme, j.contactComp, p.WalkID, chain)
	if err != nil {
		n.logf("join redirect: bad chain: %v", err)
		return
	}
	if len(chain) > 0 && final.Digest() != p.Target.Digest() {
		return
	}
	if len(chain) == 0 && p.Target.GroupID != j.contactComp.GroupID {
		return // an empty chain only attests the contact vgroup itself
	}
	n.acceptRedirect(p.Target)
}

// acceptRedirect advances the joiner to the selected vgroup.
func (n *Node) acceptRedirect(target group.Composition) {
	j := n.join
	if target.N() == 0 {
		return
	}
	n.learnComp(target)
	j.target = target
	j.stage = stageRequestedD
	j.deadline = n.env.Now() + n.cfg.JoinTimeout
	// The admitting configuration will attest the next epoch; accept its
	// snapshot when it comes.
	n.expectSnapshotFrom(target)
	n.sendJoinRequest(target)
}

// expectSnapshotFrom registers a trusted snapshot source and replays a
// parked snapshot if one already arrived and the node is ready for it.
// Expectations are per-group, not per-epoch: the admitting vgroup may
// reconfigure again (evictions) before our snapshot is cut.
func (n *Node) expectSnapshotFrom(src group.Composition) {
	n.learnComp(src)
	n.expectSnapshot[src.GroupID] = true
	n.tryParkedSnapshots()
}

// tryParkedSnapshots re-offers parked snapshots; adoptSnapshot re-parks the
// ones the node is still not ready for.
func (n *Node) tryParkedSnapshots() {
	if n.phase != phaseJoining && n.phase != phaseAwaitSnapshot {
		return
	}
	// Ascending GroupID, not map order: which parked snapshot is adopted must
	// be the same on every replay of a seed.
	for _, gid := range slices.Sorted(maps.Keys(n.pendingSnaps)) {
		if !n.expectSnapshot[gid] {
			continue
		}
		acc := n.pendingSnaps[gid]
		delete(n.pendingSnaps, gid)
		if p, err := decodeAs[snapshotPayload](acc.Payload); err == nil {
			n.adoptSnapshot(acc, p)
		}
		return // adoption mutates state; one at a time
	}
}

// adoptSnapshot installs the replicated state a vgroup sent us and makes
// this node a member.
func (n *Node) adoptSnapshot(acc group.Accepted, p snapshotPayload) {
	ready := (n.phase == phaseJoining || n.phase == phaseAwaitSnapshot) && n.expectSnapshot[acc.Src.GroupID]
	if !ready {
		// The snapshot can outrun the op that registers the expectation
		// (merges, exchanges); park it until then.
		if len(n.pendingSnaps) < 64 {
			n.pendingSnaps[acc.Src.GroupID] = acc
		}
		return
	}
	st, err := restoreSnapshot(p.State)
	if err != nil {
		n.logf("snapshot: %v", err)
		return
	}
	if !st.comp.Contains(n.cfg.Identity.ID) {
		return // not actually a member of the attested configuration
	}
	n.pendingSnaps = make(map[ids.GroupID]group.Accepted)
	n.expectSnapshot = make(map[ids.GroupID]bool)
	n.join = nil
	n.awaitDeadline = 0
	n.phase = phaseMember
	n.rep.since = n.Now()
	n.installGroupState(st)
	n.logf("joined %v/%d members %v", st.comp.GroupID, st.comp.Epoch, ids.IdentityIDs(st.comp.Members))
	if n.cfg.Callbacks.OnJoined != nil {
		n.cfg.Callbacks.OnJoined(st.comp.Clone())
	}
	// Replay any admission drain the in-time members performed right after
	// this barrier; without it this member lags one epoch behind and its
	// share of the next epoch's snapshots and notifications never goes out.
	n.processPendingJoins()
	// Buffered catch-up shares may already attest an even newer epoch.
	n.evaluateCatchUp()
}

// installGroupState replaces the node's replicated state with an attested
// snapshot and restarts SMR on it. Shared by snapshot adoption (joins,
// exchanges, merges) and epoch catch-up.
func (n *Node) installGroupState(st *groupState) {
	// Epoch catch-up can replace the state of a member with egress batches
	// still pending under the old epoch; send them stamped with it first.
	n.egress.FlushAll()
	if n.replica != nil {
		n.replica.Stop()
		n.replica = nil
	}
	n.st = st
	n.learnComp(st.comp)
	for c := 0; c < st.nbrs.NumCycles(); c++ {
		n.learnComp(st.nbrs.Preds[c])
		n.learnComp(st.nbrs.Succs[c])
	}
	n.resetPeerClocks()
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
	// Drop catch-up tallies this state supersedes (including tallies for
	// vgroups this node no longer belongs to).
	for k := range n.snapShares {
		if k.src.GroupID != st.comp.GroupID || k.src.Epoch < st.comp.Epoch {
			delete(n.snapShares, k)
		}
	}
	n.makeReplica()
}

// observeCatchUpShare processes a snapshot share addressed to this node as a
// current member: the epoch catch-up path. It reports whether the message
// was consumed. A member that missed its epoch's closing commit cannot
// finish the old SMR instance once its peers retired it; f+1 matching shares
// from members of its own composition — at least one correct — attest the
// successor state, which the laggard installs directly. Shares for epochs
// this node has not reached yet are buffered (there is no retransmission:
// a share that arrives while the laggard is still installing an earlier
// epoch must not be wasted) and re-evaluated after every install, which
// chains multi-epoch catch-up.
func (n *Node) observeCatchUpShare(from ids.NodeID, m group.GroupMsg) bool {
	if n.phase != phaseMember || n.st == nil || n.byzActive() {
		return false
	}
	if m.SrcGroup != n.st.comp.GroupID {
		return false
	}
	if m.SrcEpoch < n.st.comp.Epoch {
		return true // stale share for an epoch already installed: swallow
	}
	if from == n.cfg.Identity.ID {
		return true
	}
	// A share of the current epoch comes from a member of its composition. A
	// future epoch's composition is not installed yet, so its shares are
	// buffered unchecked and judged at evaluation time; what bounds them is
	// the charge below.
	if m.SrcEpoch == n.st.comp.Epoch && !n.st.comp.Contains(from) {
		return true
	}
	if m.Payload != nil && crypto.Hash(m.Payload) != m.PayloadDigest {
		return true
	}
	key := snapShareKey{src: group.Key{GroupID: m.SrcGroup, Epoch: m.SrcEpoch}, digest: m.PayloadDigest}
	tally, ok := n.snapShares[key]
	if !ok {
		// A tally is charged to the sender that opened it, so one sender
		// cannot hold the table.
		opened := 0
		for _, t := range n.snapShares {
			if t.opener == from {
				opened++
			}
		}
		if len(n.snapShares) >= maxSnapShares || opened >= maxSnapSharesPerSender {
			return true // bounded; heavy pressure falls back to rejoin
		}
		tally = &snapTally{senders: make(map[ids.NodeID]bool), opener: from}
		n.snapShares[key] = tally
	}
	tally.senders[from] = true
	if tally.payload == nil && m.Payload != nil {
		tally.payload = m.Payload
	}
	if key.src.Epoch == n.st.comp.Epoch {
		n.evaluateCatchUp()
	}
	return true
}

// evaluateCatchUp adopts attested successor states while the tally allows:
// for the node's current (group, epoch), a snapshot endorsed by f+1 distinct
// members of the current composition — at least one correct — is installed,
// and the scan repeats for the next epoch.
func (n *Node) evaluateCatchUp() {
	for steps := 0; steps < maxSnapShares; steps++ {
		if n.st == nil || n.phase != phaseMember {
			return
		}
		cur := n.st.comp.Key()
		advanced := false
		// Ascending digest, not map order: when two successors of this epoch
		// are both attested, the one installed must be the same on every
		// replay of a seed.
		for _, key := range slices.SortedFunc(maps.Keys(n.snapShares), func(a, b snapShareKey) int {
			return bytes.Compare(a.digest[:], b.digest[:])
		}) {
			tally := n.snapShares[key]
			if key.src != cur || tally.payload == nil {
				continue
			}
			endorsers := 0
			for id := range tally.senders {
				if id != n.cfg.Identity.ID && n.st.comp.Contains(id) {
					endorsers++
				}
			}
			if endorsers < n.f()+1 {
				continue
			}
			p, err := decodeAs[snapshotPayload](tally.payload)
			if err != nil {
				continue
			}
			st, err := restoreSnapshot(p.State)
			if err != nil {
				continue
			}
			if st.comp.GroupID != n.st.comp.GroupID || st.comp.Epoch <= n.st.comp.Epoch ||
				!st.comp.Contains(n.cfg.Identity.ID) {
				continue
			}
			n.logf("epoch catch-up %v: %d -> %d (attested by %d members)",
				st.comp.GroupID, n.st.comp.Epoch, st.comp.Epoch, endorsers)
			oldComp := n.st.comp.Clone()
			payload := tally.payload
			delete(n.snapShares, key)
			n.installGroupState(st)
			n.cacheSnapshot(oldComp.Epoch, payload)
			// Perform the outbound duty of the skipped transition: send this
			// member's share of the epoch snapshot to the new composition.
			// Without it, every member that catches up (rather than applies)
			// leaves later receivers one share short of their threshold, and
			// the shortfall cascades across epochs.
			for _, m := range st.comp.Members {
				if m.ID == n.cfg.Identity.ID {
					continue
				}
				n.egress.ToNode(oldComp, m.ID, kindSnapshot, snapMsgID(oldComp, m.ID), payload)
			}
			n.processPendingJoins()
			advanced = true
			break // rescan against the new epoch
		}
		if !advanced {
			return
		}
	}
}

// --- member side: admitting joiners ---

func (n *Node) handleJoinRequest(from ids.NodeID, m JoinRequest) {
	if n.phase != phaseMember || n.st == nil || n.byzActive() {
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
		members := append(ids.CloneIdentities(st.comp.Members), pj.Joiner)
		n.reconfigure(members, causeJoin)
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
	if n.byzActive() {
		return
	}
	switch acc.Kind {
	case kindSnapshot, kindJoinRedirect:
		// Node-addressed kinds are handled outside vgroup membership.
	default:
		if n.phase != phaseMember || n.st == nil {
			return
		}
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
	case snapshotPayload:
		n.adoptSnapshot(acc, p)
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
	if c, ok := n.newestComp(target.GroupID); ok {
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
	if n.phase != phaseMember || n.st == nil || n.byzActive() {
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
