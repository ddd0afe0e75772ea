package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/overlay"
	"atum/internal/smr"
)

func modes() []smr.Mode { return []smr.Mode{smr.ModeSync, smr.ModeAsync} }

func TestBootstrapSingleNode(t *testing.T) {
	for _, mode := range modes() {
		t.Run(mode.String(), func(t *testing.T) {
			h := newHarness(t, mode, 1, nil)
			n := h.addNode(mode)
			h.net.Run(10 * time.Millisecond)
			if err := n.Bootstrap(); err != nil {
				t.Fatal(err)
			}
			if !n.IsMember() {
				t.Fatal("bootstrap node not a member")
			}
			comp := n.Comp()
			if comp.N() != 1 || comp.GroupID != 1 {
				t.Fatalf("comp = %+v", comp)
			}
			// Self-loop on every cycle.
			nbrs := n.Neighbors()
			for c := 0; c < nbrs.NumCycles(); c++ {
				if nbrs.Preds[c].GroupID != 1 || nbrs.Succs[c].GroupID != 1 {
					t.Error("bootstrap neighbors must be self")
				}
			}
			// A broadcast in a single-node system delivers locally.
			if err := n.BroadcastWith([]byte("solo"), BroadcastOpts{}); err != nil {
				t.Fatal(err)
			}
			h.net.Run(h.net.Now() + 5*time.Second)
			if got := h.delivered[n.cfg.Identity.ID]; len(got) != 1 || got[0] != "solo" {
				t.Fatalf("delivered = %v", got)
			}
		})
	}
}

func TestJoinGrowsGroup(t *testing.T) {
	for _, mode := range modes() {
		t.Run(mode.String(), func(t *testing.T) {
			h := newHarness(t, mode, 2, nil)
			nodes := h.bootstrapSystem(mode, 4, 60*time.Second)
			h.net.Run(h.net.Now() + 5*time.Second)
			for _, n := range nodes {
				if !n.IsMember() {
					t.Fatalf("node %v lost membership", n.cfg.Identity.ID)
				}
			}
			h.checkMembershipConsistent()
			if got := h.memberCount(); got != 4 {
				t.Fatalf("members = %d, want 4", got)
			}
		})
	}
}

func TestBroadcastReachesAllNodes(t *testing.T) {
	for _, mode := range modes() {
		t.Run(mode.String(), func(t *testing.T) {
			h := newHarness(t, mode, 3, nil)
			nodes := h.bootstrapSystem(mode, 5, 60*time.Second)
			h.net.Run(h.net.Now() + 2*time.Second)

			if err := nodes[2].BroadcastWith([]byte("hello-all"), BroadcastOpts{}); err != nil {
				t.Fatal(err)
			}
			h.net.Run(h.net.Now() + 20*time.Second)
			for _, n := range nodes {
				if !n.IsMember() {
					continue
				}
				found := false
				for _, msg := range h.delivered[n.cfg.Identity.ID] {
					if msg == "hello-all" {
						found = true
					}
				}
				if !found {
					t.Errorf("node %v missed the broadcast", n.cfg.Identity.ID)
				}
			}
		})
	}
}

func TestBroadcastDeliveredOnce(t *testing.T) {
	h := newHarness(t, smr.ModeSync, 4, nil)
	nodes := h.bootstrapSystem(smr.ModeSync, 5, 60*time.Second)
	h.net.Run(h.net.Now() + 2*time.Second)
	if err := nodes[0].BroadcastWith([]byte("once"), BroadcastOpts{}); err != nil {
		t.Fatal(err)
	}
	h.net.Run(h.net.Now() + 20*time.Second)
	for id, msgs := range h.delivered {
		count := 0
		for _, m := range msgs {
			if m == "once" {
				count++
			}
		}
		if count > 1 {
			t.Errorf("node %v delivered the broadcast %d times", id, count)
		}
	}
}

func TestSplitKeepsSystemConnected(t *testing.T) {
	// Join enough nodes to exceed GMax (6) and force a split.
	h := newHarness(t, smr.ModeSync, 5, nil)
	nodes := h.bootstrapSystem(smr.ModeSync, 8, 90*time.Second)
	h.net.Run(h.net.Now() + 30*time.Second)

	groups := h.groupsOf()
	if len(groups) < 2 {
		t.Fatalf("expected a split, still %d group(s)", len(groups))
	}
	h.checkMembershipConsistent()
	if h.sum(func(s Stats) uint64 { return s.Splits }) == 0 {
		t.Error("no split counted")
	}
	// Broadcast must still reach everyone across groups.
	if err := nodes[0].BroadcastWith([]byte("after-split"), BroadcastOpts{}); err != nil {
		t.Fatal(err)
	}
	h.net.Run(h.net.Now() + 20*time.Second)
	missing := 0
	for _, n := range nodes {
		if !n.IsMember() {
			continue
		}
		found := false
		for _, m := range h.delivered[n.cfg.Identity.ID] {
			if m == "after-split" {
				found = true
			}
		}
		if !found {
			missing++
		}
	}
	if missing > 0 {
		t.Errorf("%d members missed the post-split broadcast", missing)
	}
}

func TestLeaveShrinksGroup(t *testing.T) {
	h := newHarness(t, smr.ModeSync, 6, func(cfg *Config) {
		cfg.DisableShuffle = true // isolate the leave behaviour
		cfg.Params = Params{HC: 2, RWL: 3, GMax: 10, GMin: 2}
	})
	nodes := h.bootstrapSystem(smr.ModeSync, 4, 60*time.Second)
	h.net.Run(h.net.Now() + 2*time.Second)

	leaver := nodes[2]
	if err := leaver.Leave(); err != nil {
		t.Fatal(err)
	}
	deadline := h.net.Now() + 30*time.Second
	for leaver.IsMember() && h.net.Now() < deadline {
		h.net.Run(h.net.Now() + 100*time.Millisecond)
	}
	if leaver.IsMember() {
		t.Fatal("leaver still a member")
	}
	h.net.Run(h.net.Now() + 2*time.Second)
	for _, n := range nodes {
		if n == leaver || !n.IsMember() {
			continue
		}
		if n.Comp().Contains(leaver.cfg.Identity.ID) {
			t.Errorf("node %v still lists the leaver", n.cfg.Identity.ID)
		}
	}
	h.checkMembershipConsistent()
}

// TestSoleLeaverDropsPendingOps: the sole member of an instance that leaves
// while its broadcast is still pending drops the op with the instance. When
// it then joins another instance, that instance must not deliver the
// broadcast: the op belongs to the instance that ended.
func TestSoleLeaverDropsPendingOps(t *testing.T) {
	h := newHarness(t, smr.ModeSync, 1, nil)
	a, b := h.addNode(smr.ModeSync), h.addNode(smr.ModeSync)
	h.net.Run(10 * time.Millisecond)
	if err := a.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	if err := b.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	if err := a.BroadcastWith([]byte("stale"), BroadcastOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := a.Leave(); err != nil {
		t.Fatal(err)
	}
	if len(a.ownPend) != 0 {
		t.Errorf("after leaving as the sole member, %d ops are still pending", len(a.ownPend))
	}
	if err := a.Join(b.Identity()); err != nil {
		t.Fatal(err)
	}
	deadline := h.net.Now() + 60*time.Second
	for !a.IsMember() && h.net.Now() < deadline {
		h.net.Run(h.net.Now() + 50*time.Millisecond)
	}
	if !a.IsMember() {
		t.Fatal("the leaver failed to join the other instance")
	}
	h.net.Run(h.net.Now() + 5*time.Second)
	for _, n := range []*Node{a, b} {
		if slices.Contains(h.delivered[n.cfg.Identity.ID], "stale") {
			t.Errorf("node %v delivered a broadcast of the instance its publisher left", n.cfg.Identity.ID)
		}
	}
	h.checkMembershipConsistent()
}

func TestCrashedNodeIsEvicted(t *testing.T) {
	h := newHarness(t, smr.ModeSync, 7, func(cfg *Config) {
		cfg.DisableShuffle = true
		cfg.Params = Params{HC: 2, RWL: 3, GMax: 10, GMin: 2}
		cfg.HeartbeatEvery = 300 * time.Millisecond
		cfg.EvictAfter = 2 * time.Second
	})
	nodes := h.bootstrapSystem(smr.ModeSync, 4, 60*time.Second)
	h.net.Run(h.net.Now() + time.Second)

	victim := nodes[3]
	h.net.Crash(victim.cfg.Identity.ID)
	h.net.Run(h.net.Now() + 30*time.Second)

	for _, n := range nodes[:3] {
		if !n.IsMember() {
			t.Fatalf("correct node %v lost membership", n.cfg.Identity.ID)
		}
		if n.Comp().Contains(victim.cfg.Identity.ID) {
			t.Errorf("node %v still lists the crashed node", n.cfg.Identity.ID)
		}
	}
	if h.sum(func(s Stats) uint64 { return s.Evictions }) == 0 {
		t.Error("no eviction counted")
	}
	h.checkMembershipConsistent()
}

func TestShuffleEventsFire(t *testing.T) {
	// With shuffling enabled, joins trigger exchanges.
	h := newHarness(t, smr.ModeSync, 8, func(cfg *Config) {
		cfg.Params = Params{HC: 2, RWL: 2, GMax: 4, GMin: 2}
	})
	h.bootstrapSystem(smr.ModeSync, 7, 120*time.Second)
	h.net.Run(h.net.Now() + 60*time.Second)
	total := h.sum(func(s Stats) uint64 { return s.ExchangesCompleted + s.ExchangesSuppressed })
	if total == 0 {
		t.Error("no exchange activity despite shuffling enabled")
	}
	h.checkMembershipConsistent()
	if got := h.memberCount(); got != 7 {
		t.Errorf("members = %d, want 7 (nobody lost in shuffles)", got)
	}
}

func TestGrowTo16NodesBothModes(t *testing.T) {
	if testing.Short() {
		t.Skip("long system test")
	}
	for _, mode := range modes() {
		t.Run(mode.String(), func(t *testing.T) {
			h := newHarness(t, mode, 9, func(cfg *Config) {
				cfg.Params = Params{HC: 3, RWL: 3, GMax: 6, GMin: 3}
				// Full shuffling under sustained growth is exercised at
				// smaller scale (TestShuffleEventsFire).
				cfg.DisableShuffle = true
			})
			nodes := h.bootstrapSystem(mode, 16, 240*time.Second)
			h.net.Run(h.net.Now() + 60*time.Second)
			h.checkMembershipConsistent()
			if got := h.memberCount(); got < 14 {
				t.Fatalf("members = %d, want >= 14", got)
			}
			groups := h.groupsOf()
			if len(groups) < 2 {
				t.Errorf("16 nodes with gmax=6 should occupy several vgroups, got %d", len(groups))
			}
			// System-wide broadcast.
			if err := nodes[0].BroadcastWith([]byte("big"), BroadcastOpts{}); err != nil {
				t.Fatal(err)
			}
			h.net.Run(h.net.Now() + 30*time.Second)
			reached := 0
			for _, n := range nodes {
				if !n.IsMember() {
					continue
				}
				for _, m := range h.delivered[n.cfg.Identity.ID] {
					if m == "big" {
						reached++
						break
					}
				}
			}
			if members := h.memberCount(); reached < members {
				t.Errorf("broadcast reached %d of %d members", reached, members)
			}
		})
	}
}

func TestJoinViaNonBootstrapContact(t *testing.T) {
	h := newHarness(t, smr.ModeSync, 10, nil)
	nodes := h.bootstrapSystem(smr.ModeSync, 3, 60*time.Second)
	// A fourth node joins through node 3 rather than the bootstrap node.
	n := h.addNode(smr.ModeSync)
	h.net.Run(h.net.Now() + 10*time.Millisecond)
	if err := n.Join(nodes[2].Identity()); err != nil {
		t.Fatal(err)
	}
	deadline := h.net.Now() + 60*time.Second
	for !n.IsMember() && h.net.Now() < deadline {
		h.net.Run(h.net.Now() + 100*time.Millisecond)
	}
	if !n.IsMember() {
		t.Fatal("join via non-bootstrap contact failed")
	}
	h.checkMembershipConsistent()
}

func TestByzantineSilentTolerated(t *testing.T) {
	// One silent Byzantine node in a 5-node system (one vgroup of <=6):
	// broadcasts still flow.
	h := newHarness(t, smr.ModeAsync, 11, func(cfg *Config) {
		cfg.EvictAfter = time.Hour // keep the silent node in place
	})
	nodes := h.bootstrapSystem(smr.ModeAsync, 5, 60*time.Second)
	h.net.Run(h.net.Now() + time.Second)
	// Turn node 4 Byzantine-silent in place.
	nodes[4].SetBehavior(BehaviorSilent)

	if err := nodes[1].BroadcastWith([]byte("despite-byz"), BroadcastOpts{}); err != nil {
		t.Fatal(err)
	}
	h.net.Run(h.net.Now() + 20*time.Second)
	for _, n := range nodes[:4] {
		found := false
		for _, m := range h.delivered[n.cfg.Identity.ID] {
			if m == "despite-byz" {
				found = true
			}
		}
		if !found {
			t.Errorf("correct node %v missed broadcast with a silent Byzantine member", n.cfg.Identity.ID)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	h := newHarness(t, smr.ModeSync, 12, nil)
	nodes := h.bootstrapSystem(smr.ModeSync, 3, 60*time.Second)
	st := nodes[0].st
	snap := st.buildSnapshot()
	restored, err := restoreSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.comp.Equal(st.comp) {
		t.Error("snapshot did not preserve composition")
	}
	if restored.nbrs.NumCycles() != st.nbrs.NumCycles() {
		t.Error("snapshot did not preserve neighbor cycles")
	}
	for c := 0; c < st.nbrs.NumCycles(); c++ {
		if !restored.nbrs.Preds[c].Equal(st.nbrs.Preds[c]) {
			t.Error("pred mismatch after snapshot round trip")
		}
	}
	// Snapshot bytes are identical across members (determinism).
	a := encodePayload(snapshotPayload{State: nodes[0].st.buildSnapshot()})
	b := encodePayload(snapshotPayload{State: nodes[1].st.buildSnapshot()})
	if nodes[0].st.comp.Epoch == nodes[1].st.comp.Epoch && string(a) != string(b) {
		t.Error("snapshot encoding differs between members of the same epoch")
	}
}

func TestDeterministicHelpers(t *testing.T) {
	seed := opDigest([]byte("x"))
	r1 := prfRands(seed, 5)
	r2 := prfRands(seed, 5)
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("prfRands not deterministic")
		}
	}
	if prfPick(seed, 1, 10) != prfPick(seed, 1, 10) {
		t.Fatal("prfPick not deterministic")
	}
	ids1 := prfShuffleIdentities(seed, testIdentities(8))
	ids2 := prfShuffleIdentities(seed, testIdentities(8))
	for i := range ids1 {
		if ids1[i].ID != ids2[i].ID {
			t.Fatal("prfShuffleIdentities not deterministic")
		}
	}
}

func testIdentities(n int) []ids.Identity {
	out := make([]ids.Identity, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, ids.Identity{ID: ids.NodeID(i)})
	}
	return out
}

// TestDerivedDigestsGolden pins every identifier derived through
// crypto.Derive to the bytes the hand-rolled hash chains it replaced produced:
// members running either derive the same MsgIDs, GroupIDs and relay rotations.
func TestDerivedDigestsGolden(t *testing.T) {
	src := testComp(7, 3, 1, 2, 3)
	walk := crypto.Hash([]byte("a walk"))
	for _, g := range []struct {
		name string
		got  crypto.Digest
		want string
	}{
		{"snapMsgID", snapMsgID(src, 4), "d85e0ea0176f07afdefd3bb922dff42a217e0b412bbf381982a1cb2320d136e5"},
		{"nbrUpdateMsgID", nbrUpdateMsgID(src, 9), "ffbabb1ed302a2761ced082d886c4599dc7d7656de95583a82984d37bf17bab5"},
		{"walkMsgID", walkMsgID(walk, 2, 9), "15ab12e1540938e498981d577e45dbad655357fb3d8c2b70efc81378fef67cc1"},
		{"replyMsgID", replyMsgID(walk, 999), "f743bb9d4b1063d717e40624b181889d3f5f58f8dcc1c6ec8f78ea8639382f15"},
		{"setNbrMsgID", setNbrMsgID(src, 9, 1, overlay.Succ), "7529a812fe5d66a86ca7af4978a6a79d25740721a608dd7fcc696e2f7b84eb68"},
		{"freshMsgID", freshMsgID(src, 9), "7628c41425c41e0323cc30d08c1ee3ef26b8101c84b5031cfd16780866464975"},
		{"cycleAssignMsgID", cycleAssignMsgID(src, 9, 1), "0bd31ca6ff87a885d64b04057135c1232adf081a3276c1923034f58033335c4a"},
		{"bcastID", bcastID(5, 9, []byte("data")), "e4cc265034660f4e038431fa896e5bd57c69a1d112940b51d23a4c3b88b0da35"},
	} {
		if got := fmt.Sprintf("%x", g.got); got != g.want {
			t.Errorf("%s = %s, want %s", g.name, got, g.want)
		}
	}
	if got := deriveGroupID(7, 3); got != 17753047487205206062 {
		t.Errorf("deriveGroupID(7, 3) = %d, want 17753047487205206062", uint64(got))
	}
	// The relay rotation shows through RelaySender modulo the source's size;
	// sizes 2 to 9 against three destinations pin it.
	var rot []int
	for size := 2; size <= 9; size++ {
		members := make([]uint64, size)
		for i := range members {
			members[i] = uint64(i + 1)
		}
		s := testComp(7, 3, members...)
		for _, dst := range []group.Composition{testComp(9, 1, 20), testComp(9, 2, 20), testComp(11, 5, 20)} {
			rot = append(rot, group.RelaySender(s, dst, 0))
		}
	}
	if want := []int{0, 0, 1, 1, 1, 2, 0, 0, 3, 4, 0, 1, 4, 4, 5, 0, 2, 5, 4, 4, 7, 1, 7, 8}; !slices.Equal(rot, want) {
		t.Errorf("relay rotations %v, want %v", rot, want)
	}
}
