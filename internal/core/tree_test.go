package core

// White-box coverage for the dissemination tree (tree.go): prune-vote
// quorums and vote expiry, deterministic kept-provider selection, the
// IHAVE -> miss -> graft repair path, graft service independence from the
// freshSent/reShared limiters, pending-IHAVE flushes ahead of replicated-
// state replacement, and the advisory kinds' inbox bypass.

import (
	"fmt"
	"testing"
	"time"

	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/overlay"
	"atum/internal/smr"
)

// treeMemberNode is memberNode with the dissemination tree enabled.
func treeMemberNode(t *testing.T, self ids.NodeID, comp, nbr group.Composition) (*Node, *fakeEnv) {
	t.Helper()
	n, env := memberNode(t, self, comp, nbr)
	n.cfg.TreeGossip = true
	return n, env
}

// countKind tallies GroupMsgs of one kind among queued round-quantized sends.
func countKind(q []queuedSend, kind group.Kind) int {
	c := 0
	for _, s := range q {
		if m, ok := s.msg.(group.GroupMsg); ok && m.Kind == kind {
			c++
		}
	}
	return c
}

// TestTreePruneQuorumDemotes drives the sender side of demotion through the
// advisory dispatch: a link goes lazy only at f+1 DISTINCT members of the
// pruning vgroup voting within the activity window. One member repeating
// itself must not demote (a single Byzantine node could lazy-out a correct
// group's payload feed), spoofed votes from non-members must not count, and
// once lazy the flood path must announce instead of pushing payloads.
func TestTreePruneQuorumDemotes(t *testing.T) {
	self := ids.NodeID(1)
	comp := testComp(7, 3, 1, 2, 3)
	nbr := testComp(9, 1, 4, 5, 6)
	n, _ := treeMemberNode(t, self, comp, nbr)

	prune := func(from ids.NodeID) {
		n.handleTreeAdvisory(from, group.GroupMsg{
			SrcGroup: nbr.GroupID, SrcEpoch: nbr.Epoch, Kind: kindPrune,
		})
	}
	need := n.cfg.Mode.F(nbr.N()) + 1
	if need < 2 {
		t.Fatalf("test wants f+1 >= 2 for a 3-member vgroup, got %d", need)
	}

	// Same voter over and over: one vote, never a quorum.
	for i := 0; i < need+2; i++ {
		prune(4)
	}
	if n.treeLazy(nbr.GroupID) {
		t.Fatal("one repeating voter demoted the link")
	}
	// A non-member of the claimed vgroup: rejected before voting.
	prune(99)
	if len(n.tree.pruneVotes[nbr.GroupID]) != 1 {
		t.Fatalf("votes = %d, want 1 (repeat and spoofed votes must not count)",
			len(n.tree.pruneVotes[nbr.GroupID]))
	}
	// Distinct members up to the quorum.
	for i := 1; i < need; i++ {
		prune(nbr.Members[i].ID)
	}
	if !n.treeLazy(nbr.GroupID) {
		t.Fatalf("link still eager after %d distinct votes", need)
	}

	// Lazy link: the flood path records an announcement instead of a payload.
	n.forwardGossip(Delivery{BcastID: crypto.Hash([]byte("lazy")), Origin: self, Data: []byte("x")})
	p := n.tree.pending[nbr.GroupID]
	if p == nil || len(p.entries) != 1 {
		t.Fatal("lazy link did not accumulate an IHAVE entry")
	}
	if dests, _ := n.egress.Pending(); dests != 0 {
		t.Fatalf("payload enqueued toward a lazy link (%d pending destinations)", dests)
	}
}

// TestTreePruneVotesExpire pins the vote freshness window: votes left over
// from long-lost delivery races must not pile up and demote a link that has
// since become the spanning-tree parent.
func TestTreePruneVotesExpire(t *testing.T) {
	self := ids.NodeID(1)
	comp := testComp(7, 3, 1, 2, 3)
	nbr := testComp(9, 1, 4, 5, 6)
	n, env := treeMemberNode(t, self, comp, nbr)

	n.handlePrune(4, nbr.GroupID, nbr)
	env.now += n.treeActiveWindow() + time.Millisecond
	n.handlePrune(5, nbr.GroupID, nbr)
	if n.treeLazy(nbr.GroupID) {
		t.Fatal("stale vote counted toward the demotion quorum")
	}
	if len(n.tree.pruneVotes[nbr.GroupID]) != 1 {
		t.Fatalf("votes = %d, want 1 (expired vote still recorded)", len(n.tree.pruneVotes[nbr.GroupID]))
	}
}

// TestTreeDuplicateVotesDeterministically drives the receiver side: which
// in-links a member votes to prune is decided by the deterministic rank over
// its neighbor set, not by which link happened to lose the delivery race —
// every member of the vgroup must vote against the same links for the f+1
// sender-side quorum to ever assemble. The kept providers and the
// active-provider floor are never voted against, and votes are rate-limited
// per link.
func TestTreeDuplicateVotesDeterministically(t *testing.T) {
	self := ids.NodeID(1)
	comp := testComp(7, 3, 1, 2, 3)
	nbrA := testComp(9, 1, 4, 5, 6)
	nbrB := testComp(11, 1, 14, 15, 16)
	nbrC := testComp(13, 1, 24, 25, 26)
	n, env := treeMemberNode(t, self, comp, nbrA)
	n.st.nbrs.Set(overlay.Link{Cycle: 1, Dir: overlay.Succ}, nbrB.Clone())
	n.st.nbrs.Set(overlay.Link{Cycle: 1, Dir: overlay.Pred}, nbrC.Clone())
	n.learnComp(nbrB)
	n.learnComp(nbrC)

	// Rank the three in-links the way treeKeptProvider does and find the
	// one link outside the kept set.
	links := []ids.GroupID{nbrA.GroupID, nbrB.GroupID, nbrC.GroupID}
	worst := links[0]
	for _, gid := range links[1:] {
		wr, gr := treeRank(comp.GroupID, worst), treeRank(comp.GroupID, gid)
		if bytesLess(wr[:], gr[:]) {
			worst = gid
		}
	}
	var kept ids.GroupID
	for _, gid := range links {
		if gid != worst {
			kept = gid
			break
		}
	}
	if !n.treeKeptProvider(kept) || n.treeKeptProvider(worst) {
		t.Fatalf("kept-provider ranking disagrees with the test's: kept=%v worst=%v", kept, worst)
	}

	bcast := crypto.Hash([]byte("dup"))
	flushPrunes := func() int {
		n.egress.FlushAll()
		c := countKind(n.outQ, kindPrune)
		n.outQ = nil
		return c
	}

	// Provider floor: only the duplicate's own link is active — pruning it
	// could orphan this member, so no vote regardless of rank.
	n.treeDuplicate(group.Key{GroupID: worst, Epoch: 1}, bcast)
	if c := flushPrunes(); c != 0 {
		t.Fatalf("voted to prune with no alternative active providers (%d sends)", c)
	}

	// All three links recently delivered payloads.
	for _, gid := range links {
		n.treeSawPayload(gid)
	}
	// Kept provider: never voted against, whatever delivers duplicates.
	n.treeDuplicate(group.Key{GroupID: kept, Epoch: 1}, bcast)
	if c := flushPrunes(); c != 0 {
		t.Fatalf("voted to prune a kept provider (%d sends)", c)
	}
	// The link outside the kept set: one vote per rate-limit window.
	n.treeDuplicate(group.Key{GroupID: worst, Epoch: 1}, bcast)
	if c := flushPrunes(); c == 0 {
		t.Fatal("no prune vote against the link outside the kept set")
	}
	n.treeDuplicate(group.Key{GroupID: worst, Epoch: 1}, bcast)
	if c := flushPrunes(); c != 0 {
		t.Fatalf("prune vote not rate-limited per link (%d extra sends)", c)
	}
	_ = env
}

// TestTreeGraftAfterMiss covers the repair path: an IHAVE for an undelivered
// broadcast arms the miss timer; when it fires with the payload still absent,
// the node re-promotes the announcing link and grafts node-addressed (payload
// forced on) to every member of the vgroup's latest composition, bounded by
// the retry cap.
func TestTreeGraftAfterMiss(t *testing.T) {
	self := ids.NodeID(1)
	comp := testComp(7, 3, 1, 2, 3)
	nbr := testComp(9, 1, 4, 5, 6)
	n, env := treeMemberNode(t, self, comp, nbr)

	missing := crypto.Hash([]byte("announced-not-delivered"))
	n.handleIHave(nbr.GroupID, iHavePayload{Entries: []iHaveEntry{{BcastID: missing, Hops: 2}}})
	ms, ok := n.tree.miss[missing]
	if !ok || ms.gid != nbr.GroupID {
		t.Fatal("IHAVE for an undelivered broadcast did not record a miss")
	}
	// An IHAVE for a broadcast already delivered must not arm anything.
	delivered := crypto.Hash([]byte("already-here"))
	n.markSeen(delivered)
	n.handleIHave(nbr.GroupID, iHavePayload{Entries: []iHaveEntry{{BcastID: delivered, Hops: 2}}})
	if _, ok := n.tree.miss[delivered]; ok {
		t.Fatal("miss recorded for an already-delivered broadcast")
	}

	n.tree.lazy[nbr.GroupID] = true
	n.handleTreeMiss(missing)
	if n.treeLazy(nbr.GroupID) {
		t.Fatal("graft did not re-promote the announcing link")
	}
	grafts := make(map[ids.NodeID]bool)
	for _, s := range env.sent {
		m, ok := s.msg.(group.GroupMsg)
		if !ok || m.Kind != kindGraft {
			continue
		}
		if m.Payload == nil {
			t.Fatal("graft sent without its payload (digest-stripping would empty the request)")
		}
		grafts[s.to] = true
	}
	for _, mem := range nbr.Members {
		if !grafts[mem.ID] {
			t.Fatalf("no graft sent to member %v", mem.ID)
		}
	}

	// Retries are bounded: the miss dies after treeGraftMaxTries firings.
	for i := 0; i < treeGraftMaxTries; i++ {
		n.handleTreeMiss(missing)
	}
	if _, ok := n.tree.miss[missing]; ok {
		t.Fatal("miss survived past the graft retry cap")
	}

	// A timer firing after delivery is a no-op.
	env.sent = nil
	n.handleIHave(nbr.GroupID, iHavePayload{Entries: []iHaveEntry{{BcastID: missing, Hops: 2}}})
	n.markSeen(missing)
	n.handleTreeMiss(missing)
	if len(env.sent) != 0 {
		t.Fatal("graft sent for a broadcast that arrived before the timer fired")
	}
	if _, ok := n.tree.miss[missing]; ok {
		t.Fatal("satisfied miss not cleared")
	}
}

// TestTreeGraftServiceBypassesShareLimiters is the regression for the
// limiter-sharing bug: freshSent and reShared suppress *re-shares* of state
// the peer already holds, but a graft response is the first copy the
// requester ever gets from us — saturating those limiters must not suppress
// it. Graft service has its own per-(vgroup, broadcast) window instead.
func TestTreeGraftServiceBypassesShareLimiters(t *testing.T) {
	self := ids.NodeID(1)
	comp := testComp(7, 3, 1, 2, 3)
	nbr := testComp(9, 1, 4, 5, 6)
	n, env := treeMemberNode(t, self, comp, nbr)

	bcast := crypto.Hash([]byte("grafted-payload"))
	n.treeRemember(Delivery{BcastID: bcast, Origin: self, Data: []byte("data"), Hops: 1})

	// Saturate the re-share limiters exactly as a busy link would.
	n.freshSent.last[nbr.Key()] = env.now
	for _, mem := range nbr.Members {
		n.reShared.last[mem.ID] = env.now
	}

	wantID := gossipMsgID(bcast, n.st.comp, nbr.GroupID)
	serve := func(from ids.NodeID) int {
		n.handleGraft(from, nbr.GroupID, nbr, graftPayload{BcastIDs: []crypto.Digest{bcast}})
		n.egress.FlushAll()
		c := 0
		for _, s := range n.outQ {
			if m, ok := s.msg.(group.GroupMsg); ok && m.Kind == kindGossip && m.MsgID == wantID {
				c++
			}
		}
		n.outQ = nil
		return c
	}

	if c := serve(4); c == 0 {
		t.Fatal("graft response suppressed by the freshSent/reShared limiters")
	}
	// Peers' staggered grafts for the same broadcast inside the window are
	// already healed by the group-addressed response: served once.
	if c := serve(5); c != 0 {
		t.Fatalf("graft service not rate-limited per (vgroup, broadcast): %d extra sends", c)
	}
}

// TestTreeIHaveFlushBeforeReconfigure extends the flush-before-state-
// replacement suite to lazy announcements: IHAVE entries pending when a
// reconfiguration replaces the composition must depart stamped with the
// enqueue-time source epoch, addressed to the f+1 lowest-index members of
// the lazy vgroup.
func TestTreeIHaveFlushBeforeReconfigure(t *testing.T) {
	self := ids.NodeID(1)
	comp := testComp(7, 3, 1, 2, 3)
	nbr := testComp(9, 1, 4, 5, 6)
	n, env := treeMemberNode(t, self, comp, nbr)

	n.tree.lazy[nbr.GroupID] = true
	bcast := crypto.Hash([]byte("pending-announce"))
	n.forwardGossip(Delivery{BcastID: bcast, Origin: self, Data: []byte("x")})
	if p := n.tree.pending[nbr.GroupID]; p == nil || len(p.entries) != 1 {
		t.Fatal("announcement not pending before the reconfiguration")
	}

	joiner := ids.Identity{ID: 42, Addr: "t:42"}
	n.reconfigure(append(ids.CloneIdentities(comp.Members), joiner), causeJoin,
		[]addedMember{{identity: joiner}})
	if n.st.comp.Epoch != 4 {
		t.Fatalf("epoch after reconfigure = %d, want 4", n.st.comp.Epoch)
	}
	if n.tree.pending[nbr.GroupID] != nil {
		t.Fatal("pending announcements survived the reconfiguration")
	}

	recipients := make(map[ids.NodeID]bool)
	for _, s := range env.sent {
		m, ok := s.msg.(group.GroupMsg)
		if !ok || m.Kind != kindIHave {
			continue
		}
		if m.SrcGroup != comp.GroupID || m.SrcEpoch != comp.Epoch {
			t.Errorf("IHAVE stamped %v/%d, want enqueue-time %v/%d",
				m.SrcGroup, m.SrcEpoch, comp.GroupID, comp.Epoch)
		}
		v, err := decodeWire(m.Payload)
		if err != nil {
			t.Fatalf("decode IHAVE: %v", err)
		}
		p, ok := v.(iHavePayload)
		if !ok || len(p.Entries) != 1 || p.Entries[0].BcastID != bcast {
			t.Errorf("flushed IHAVE does not carry the pending entry")
		}
		recipients[s.to] = true
	}
	k := n.cfg.Mode.F(nbr.N()) + 1
	if len(recipients) != k {
		t.Fatalf("IHAVE recipients = %d, want the f+1 = %d lowest-index members", len(recipients), k)
	}
	for i := 0; i < k; i++ {
		if !recipients[nbr.Members[i].ID] {
			t.Fatalf("lowest-index member %v did not get the flushed IHAVE", nbr.Members[i].ID)
		}
	}
}

// TestTreeIHaveFlushBeforeSplitInstall covers the other replacement path: a
// member moving into a split-off half (the same code path a merge dissolve
// takes through flushAllEgress) flushes pending announcements under the
// parent composition first.
func TestTreeIHaveFlushBeforeSplitInstall(t *testing.T) {
	self := ids.NodeID(1)
	comp := testComp(7, 3, 1, 2, 3)
	nbr := testComp(9, 1, 4, 5, 6)
	n, env := treeMemberNode(t, self, comp, nbr)

	n.tree.lazy[nbr.GroupID] = true
	bcast := crypto.Hash([]byte("pre-split-announce"))
	n.forwardGossip(Delivery{BcastID: bcast, Origin: self, Data: []byte("x")})

	eComp := testComp(33, 1, 1, 2)
	dComp := testComp(7, 4, 3)
	n.installSplitHalf(eComp, overlay.NewNeighbors(2, eComp), dComp)

	found := false
	for _, s := range env.sent {
		if m, ok := s.msg.(group.GroupMsg); ok && m.Kind == kindIHave {
			found = true
			if m.SrcGroup != comp.GroupID || m.SrcEpoch != comp.Epoch {
				t.Errorf("IHAVE stamped %v/%d, want parent %v/%d",
					m.SrcGroup, m.SrcEpoch, comp.GroupID, comp.Epoch)
			}
		}
	}
	if !found {
		t.Fatal("no pending IHAVE flushed by installSplitHalf")
	}
}

// TestTreeDeliveryAcrossSplitMerge runs the whole system with the tree
// enabled and forces both resize paths while broadcasts are in flight:
// joins push a vgroup past GMax (split), then one vgroup's members leave
// until it falls below GMin (merge dissolve). Every node that stays a member
// throughout must deliver every payload — the graft path must repair links
// the resizes (and earlier PRUNEs) cut.
func TestTreeDeliveryAcrossSplitMerge(t *testing.T) {
	h := newHarness(t, smr.ModeSync, 17, func(cfg *Config) {
		cfg.TreeGossip = true
		cfg.DisableShuffle = true // deliveries are not replayed across member moves
		cfg.EvictAfter = time.Hour
	})
	nodes := h.bootstrapSystem(smr.ModeSync, 12, 90*time.Second)
	h.net.Run(h.net.Now() + 10*time.Second)
	if len(h.groupsOf()) < 2 {
		t.Fatalf("expected multiple vgroups, got %d", len(h.groupsOf()))
	}

	pub := nodes[0]
	var payloads []string
	cast := func(tag string) {
		p := "tree-sm-" + tag
		if err := pub.BroadcastWith([]byte(p), BroadcastOpts{}); err != nil {
			t.Fatalf("broadcast %s: %v", p, err)
		}
		payloads = append(payloads, p)
	}

	// Warmup broadcasts carve the tree: duplicates vote, links demote.
	for i := 0; i < 6; i++ {
		cast(fmt.Sprintf("warm-%d", i))
		h.net.Run(h.net.Now() + 200*time.Millisecond)
	}

	// Splits: fresh joins with a broadcast in flight each time.
	contact := pub.Identity()
	for i := 0; i < 4; i++ {
		cast(fmt.Sprintf("split-%d", i))
		j := h.addNode(smr.ModeSync)
		h.net.Run(h.net.Now() + 10*time.Millisecond)
		_ = j.Join(contact)
		h.net.Run(h.net.Now() + 500*time.Millisecond)
	}
	h.net.Run(h.net.Now() + 10*time.Second)
	if h.events[EventSplit] == 0 {
		t.Fatal("no split occurred; the scenario did not exercise the repair path")
	}

	// Merge: dissolve the largest vgroup not holding the publisher by
	// leaving it below GMin, again with broadcasts in flight.
	left := make(map[ids.NodeID]bool)
	var victims []ids.NodeID
	pubGID := pub.Comp().GroupID
	for gid, members := range h.groupsOf() {
		if gid != pubGID && len(members) > len(victims) {
			victims = members
		}
	}
	if len(victims) == 0 {
		t.Fatal("no second vgroup to dissolve")
	}
	for i, remain := 0, len(victims); remain > 2; i, remain = i+1, remain-1 {
		cast(fmt.Sprintf("merge-%d", remain))
		if err := h.nodes[victims[i]].Leave(); err != nil {
			t.Fatalf("leave %v: %v", victims[i], err)
		}
		left[victims[i]] = true
		h.net.Run(h.net.Now() + 500*time.Millisecond)
	}
	h.net.Run(h.net.Now() + 30*time.Second)
	if h.events[EventMerge] == 0 {
		t.Fatal("no merge occurred; the dissolve path was not exercised")
	}

	// 100% delivery at every original node that stayed a member throughout.
	h.checkMembershipConsistent()
	survivors := 0
	for _, n := range nodes {
		id := n.cfg.Identity.ID
		if left[id] || !n.IsMember() {
			continue
		}
		survivors++
		got := make(map[string]bool)
		for _, m := range h.delivered[id] {
			got[m] = true
		}
		for _, p := range payloads {
			if !got[p] {
				t.Errorf("node %v missed %q across split/merge", id, p)
			}
		}
	}
	if survivors < 8 {
		t.Fatalf("only %d stable survivors; scenario too destructive to assert on", survivors)
	}
}

// TestTreeAdvisoryBypassesInbox pins the routing contract: advisory kinds
// act on one link-authenticated sender — no inbox majority — but a sender
// outside the vgroup it claims to speak for is rejected.
func TestTreeAdvisoryBypassesInbox(t *testing.T) {
	self := ids.NodeID(1)
	comp := testComp(7, 3, 1, 2, 3)
	nbr := testComp(9, 1, 4, 5, 6)
	n, _ := treeMemberNode(t, self, comp, nbr)

	announce := func(from ids.NodeID, bcast crypto.Digest) {
		payload := encodePayload(iHavePayload{Entries: []iHaveEntry{{BcastID: bcast, Hops: 1}}})
		n.routeGroupMsg(from, group.GroupMsg{
			SrcGroup:      nbr.GroupID,
			SrcEpoch:      nbr.Epoch,
			Kind:          kindIHave,
			MsgID:         crypto.Hash(payload),
			PayloadDigest: crypto.Hash(payload),
			Payload:       payload,
		})
	}

	fromMember := crypto.Hash([]byte("one-sender-suffices"))
	announce(4, fromMember)
	if _, ok := n.tree.miss[fromMember]; !ok {
		t.Fatal("advisory from a single member did not act (inbox majority must not gate it)")
	}

	spoofed := crypto.Hash([]byte("spoofed"))
	announce(99, spoofed)
	if _, ok := n.tree.miss[spoofed]; ok {
		t.Fatal("advisory from a non-member of the claimed vgroup was accepted")
	}
}
