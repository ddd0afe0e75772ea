package core

// Edge-case coverage for per-destination gossip batching: exactly-once
// delivery when batches carry already-seen broadcast IDs, Forward-callback
// veto of a subset of inner payloads, a batch flush racing a vgroup
// reconfiguration, and the freshSent rate-limiter eviction fix.

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"atum/internal/actor"
	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/overlay"
	"atum/internal/smr"
)

// TestBatchedBroadcastDeliveredOnce floods a multi-vgroup system with
// concurrent broadcasts so batches routinely carry payloads the receiving
// members have already seen via another cycle; every payload must still be
// delivered exactly once at every node.
func TestBatchedBroadcastDeliveredOnce(t *testing.T) {
	h := newHarness(t, smr.ModeSync, 11, func(cfg *Config) {
		cfg.DisableShuffle = true // freeze membership: deliveries are not replayed across moves
		cfg.EvictAfter = time.Hour
	})
	nodes := h.bootstrapSystem(smr.ModeSync, 10, 90*time.Second)
	h.net.Run(h.net.Now() + 10*time.Second)
	if len(h.groupsOf()) < 2 {
		t.Fatalf("expected multiple vgroups, got %d", len(h.groupsOf()))
	}

	var payloads []string
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			p := fmt.Sprintf("dup-%d-%d", round, i)
			if err := nodes[i].BroadcastWith([]byte(p), BroadcastOpts{}); err != nil {
				t.Fatalf("broadcast %s: %v", p, err)
			}
			payloads = append(payloads, p)
		}
		h.net.Run(h.net.Now() + 200*time.Millisecond)
	}
	h.net.Run(h.net.Now() + 30*time.Second)

	for _, n := range nodes {
		if !n.IsMember() {
			continue
		}
		counts := make(map[string]int)
		for _, m := range h.delivered[n.cfg.Identity.ID] {
			counts[m]++
		}
		for _, p := range payloads {
			if counts[p] != 1 {
				t.Errorf("node %v delivered %q %d times, want exactly 1",
					n.cfg.Identity.ID, p, counts[p])
			}
		}
	}
}

// TestForwardVetoPerInnerBroadcast verifies Forward-callback semantics hold
// per inner broadcast, not per batch: when vetoed and forwarded payloads are
// published concurrently (and thus share flush windows), the vetoed ones must
// stay inside the origin vgroup while the rest reach everyone.
func TestForwardVetoPerInnerBroadcast(t *testing.T) {
	h := newHarness(t, smr.ModeSync, 12, func(cfg *Config) {
		cfg.DisableShuffle = true // freeze membership during dissemination
		cfg.EvictAfter = time.Hour
		cfg.Callbacks.Forward = func(d Delivery, _ ForwardLink) bool {
			return !strings.HasPrefix(string(d.Data), "local-")
		}
	})
	nodes := h.bootstrapSystem(smr.ModeSync, 10, 90*time.Second)
	h.net.Run(h.net.Now() + 10*time.Second)
	if len(h.groupsOf()) < 2 {
		t.Fatalf("expected multiple vgroups, got %d", len(h.groupsOf()))
	}

	origin := nodes[0]
	originGroup := origin.Comp().GroupID
	// Interleave vetoed and forwarded payloads in the same flush windows.
	for i := 0; i < 3; i++ {
		if err := origin.BroadcastWith([]byte(fmt.Sprintf("local-%d", i)), BroadcastOpts{}); err != nil {
			t.Fatal(err)
		}
		if err := origin.BroadcastWith([]byte(fmt.Sprintf("global-%d", i)), BroadcastOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	h.net.Run(h.net.Now() + 30*time.Second)

	for _, n := range nodes {
		if !n.IsMember() {
			continue
		}
		inOrigin := n.Comp().GroupID == originGroup
		got := make(map[string]bool)
		for _, m := range h.delivered[n.cfg.Identity.ID] {
			got[m] = true
		}
		for i := 0; i < 3; i++ {
			global := fmt.Sprintf("global-%d", i)
			local := fmt.Sprintf("local-%d", i)
			if !got[global] {
				t.Errorf("node %v (origin group: %v) missed %q", n.cfg.Identity.ID, inOrigin, global)
			}
			if got[local] != inOrigin {
				t.Errorf("node %v: delivered[%q]=%v, want %v (vetoed payloads stay in origin vgroup)",
					n.cfg.Identity.ID, local, got[local], inOrigin)
			}
		}
	}
}

// --- white-box tests with a captured environment ---

type fakeSend struct {
	to  ids.NodeID
	msg actor.Message
}

type fakeEnv struct {
	self ids.NodeID
	now  time.Duration
	rng  *rand.Rand
	sent []fakeSend
	logs []string
}

func (e *fakeEnv) Self() ids.NodeID                          { return e.self }
func (e *fakeEnv) Now() time.Duration                        { return e.now }
func (e *fakeEnv) Send(to ids.NodeID, msg actor.Message)     { e.sent = append(e.sent, fakeSend{to, msg}) }
func (e *fakeEnv) SetTimer(time.Duration, any) actor.TimerID { return 0 }
func (e *fakeEnv) Rand() *rand.Rand                          { return e.rng }
func (e *fakeEnv) Logf(f string, args ...any)                { e.logs = append(e.logs, fmt.Sprintf(f, args...)) }

// memberNode builds a node that believes it is a member of comp, with a
// neighbor vgroup on every cycle, running on a captured environment. It runs
// ModeSync unless a tweak says otherwise.
func memberNode(t *testing.T, self ids.NodeID, comp, nbr group.Composition, tweaks ...func(*Config)) (*Node, *fakeEnv) {
	t.Helper()
	cfg := Config{
		Identity:       ids.Identity{ID: self, Addr: fmt.Sprintf("t:%d", self)},
		SignerSeed:     []byte(fmt.Sprintf("batch-test-%d", self)),
		Scheme:         simScheme(),
		Mode:           smr.ModeSync,
		Params:         Params{HC: 2, RWL: 3, GMax: 6, GMin: 3},
		RoundDuration:  100 * time.Millisecond,
		DisableShuffle: true,
	}
	for _, tweak := range tweaks {
		tweak(&cfg)
	}
	n := New(cfg)
	env := &fakeEnv{self: self, now: time.Second, rng: rand.New(rand.NewSource(int64(self)))}
	n.Start(env)
	n.phase = phaseMember
	nbrs := overlay.NewNeighbors(2, comp)
	nbrs.Set(overlay.Link{Cycle: 0, Dir: overlay.Succ}, nbr.Clone())
	n.st = newGroupState(comp.Clone(), nbrs)
	n.learnComp(comp)
	n.learnComp(nbr)
	// The other members of comp were members from the start: the catch-up
	// check covers every delivery of theirs.
	n.rebuildPeers()
	for _, p := range n.peers {
		p.upTo = 0
	}
	return n, env
}

// originGossip starts the gossip phase of d at n the way applyBcast does.
func originGossip(n *Node, d Delivery) {
	payload := encodePayload(gossipPayload{BcastID: d.BcastID, Origin: d.Origin, Data: d.Data})
	n.forwardGossip(d, payload, crypto.Hash(payload), group.Key{})
}

func testComp(gid ids.GroupID, epoch uint64, members ...uint64) group.Composition {
	c := group.Composition{GroupID: gid, Epoch: epoch}
	for _, m := range members {
		c.Members = append(c.Members, ids.Identity{ID: ids.NodeID(m), Addr: fmt.Sprintf("t:%d", m)})
	}
	ids.SortIdentities(c.Members)
	return c
}

// TestBatchFlushesBeforeReconfigure pins the flush-vs-reconfiguration race:
// payloads enqueued under epoch e must leave stamped with epoch e even when a
// reconfiguration bumps the epoch before the round tick would have flushed
// them — their inner MsgIDs were derived under e, and votes sent under e+1
// would tally against a composition the other members never used.
func TestBatchFlushesBeforeReconfigure(t *testing.T) {
	self := ids.NodeID(1)
	comp := testComp(7, 3, 1, 2, 3)
	nbr := testComp(9, 1, 4, 5, 6)
	n, env := memberNode(t, self, comp, nbr)

	for i := 0; i < 2; i++ {
		originGossip(n, Delivery{
			BcastID: crypto.Hash([]byte(fmt.Sprintf("race-%d", i))),
			Origin:  self,
			Data:    []byte("payload"),
		})
	}
	if dests, items := n.egress.Pending(); dests != 1 || items != 2 {
		t.Fatalf("pending = %d dests / %d items, want 1/2", dests, items)
	}

	// Admit a member: reconfigure bumps the epoch to 4.
	joiner := ids.Identity{ID: 42, Addr: "t:42"}
	n.reconfigure(append(ids.CloneIdentities(comp.Members), joiner), causeJoin)

	if n.st.comp.Epoch != 4 {
		t.Fatalf("epoch after reconfigure = %d, want 4", n.st.comp.Epoch)
	}
	// The batch was closed before the bump but belongs to the round: nothing
	// group-addressed leaves before the tick (the snapshots reconfigure sends
	// the members are node-addressed).
	if sent := groupSends(env); len(sent) != 0 {
		t.Fatalf("%d group messages left before the round tick", len(sent))
	}
	// At the tick it leaves first, stamped with the old epoch, ahead of the
	// neighbor-update notices reconfigure queued after the bump.
	n.egress.FlushDeferred()
	sent := groupSends(env)
	if len(sent) != 2*nbr.N() {
		t.Fatalf("%d group messages at the tick, want a carrier and a notice per neighbor member (%d)", len(sent), 2*nbr.N())
	}
	for _, m := range sent[:nbr.N()] {
		if m.Kind != kindBatch || m.SrcGroup != comp.GroupID || m.SrcEpoch != 3 {
			t.Fatalf("kind %d stamped %v/%d left first, want the gossip carrier stamped %v/3 (the enqueue-time epoch)",
				m.Kind, m.SrcGroup, m.SrcEpoch, comp.GroupID)
		}
		inner, err := group.UnpackBatch(m)
		if err != nil {
			t.Fatalf("unpack: %v", err)
		}
		if len(inner) != 2 || inner[0].Kind != kindGossip || inner[1].Kind != kindGossip {
			t.Errorf("carrier holds %d items, want the 2 gossip items", len(inner))
		}
	}
	for _, m := range sent[nbr.N():] {
		if m.Kind != kindNeighborUpdate {
			t.Errorf("kind %d after the carriers, want the neighbor-update notices", m.Kind)
		}
	}
}

// groupSends returns the group-addressed messages env captured since the last
// call, in send order.
func groupSends(env *fakeEnv) []group.GroupMsg {
	var out []group.GroupMsg
	for _, s := range env.sent {
		if m, ok := s.msg.(group.GroupMsg); ok && m.DstGroup != 0 {
			out = append(out, m)
		}
	}
	env.sent = nil
	return out
}

// TestBatchFlushesBeforeSplitInstall covers the other state-replacement
// path: a member moving into the split-off half must first flush batches
// enqueued under the parent composition — flushed later they would be
// stamped with the new group, fragmenting receiver-side votes.
func TestBatchFlushesBeforeSplitInstall(t *testing.T) {
	self := ids.NodeID(1)
	comp := testComp(7, 3, 1, 2, 3)
	nbr := testComp(9, 1, 4, 5, 6)
	n, env := memberNode(t, self, comp, nbr)

	originGossip(n, Delivery{BcastID: crypto.Hash([]byte("pre-split")), Origin: self, Data: []byte("x")})
	originGossip(n, Delivery{BcastID: crypto.Hash([]byte("pre-split-2")), Origin: self, Data: []byte("y")})
	if dests, _ := n.egress.Pending(); dests != 1 {
		t.Fatalf("pending destinations = %d, want 1", dests)
	}

	eComp := testComp(33, 1, 1, 2)
	dComp := testComp(7, 4, 3)
	n.installSplitHalf(eComp, overlay.NewNeighbors(2, eComp), dComp)

	if dests, _ := n.egress.Pending(); dests != 0 {
		t.Fatal("pending batches survived the split install")
	}
	n.egress.FlushDeferred()
	found := false
	for _, m := range groupSends(env) {
		if m.Kind == kindBatch {
			found = true
			if m.SrcGroup != comp.GroupID || m.SrcEpoch != comp.Epoch {
				t.Errorf("batch stamped %v/%d, want parent %v/%d",
					m.SrcGroup, m.SrcEpoch, comp.GroupID, comp.Epoch)
			}
		}
	}
	if !found {
		t.Fatal("no gossip batch flushed by installSplitHalf")
	}
}

// TestBatchUnwrapsSinglePayload checks the degenerate case: one pending
// payload flushes as a plain kindGossip message, not a one-item batch.
func TestBatchUnwrapsSinglePayload(t *testing.T) {
	self := ids.NodeID(1)
	comp := testComp(7, 3, 1, 2, 3)
	nbr := testComp(9, 1, 4, 5, 6)
	n, env := memberNode(t, self, comp, nbr)

	originGossip(n, Delivery{BcastID: crypto.Hash([]byte("solo")), Origin: self, Data: []byte("x")})
	n.egress.FlushDeferred()
	seen := 0
	for _, m := range groupSends(env) {
		if m.Kind == kindBatch {
			t.Fatal("single payload must flush as plain kindGossip, not a batch")
		}
		if m.Kind == kindGossip {
			seen++
		}
	}
	if seen != nbr.N() {
		t.Fatalf("plain gossip copies = %d, want one per destination member (%d)", seen, nbr.N())
	}
}

// TestBatchCapOneNeverBuffers checks GossipMaxBatch=1 is an ordinary cap the
// first item already fills: nothing stays queued, and each item leaves at the
// round tick as a plain group message.
func TestBatchCapOneNeverBuffers(t *testing.T) {
	self := ids.NodeID(1)
	comp := testComp(7, 3, 1, 2, 3)
	nbr := testComp(9, 1, 4, 5, 6)
	n, env := memberNode(t, self, comp, nbr, func(cfg *Config) { cfg.GossipMaxBatch = 1 })

	originGossip(n, Delivery{BcastID: crypto.Hash([]byte("legacy")), Origin: self, Data: []byte("x")})
	if dests, _ := n.egress.Pending(); dests != 0 {
		t.Fatal("GossipMaxBatch=1 must not buffer payloads")
	}
	if sent := groupSends(env); len(sent) != 0 {
		t.Fatalf("%d group messages left before the round tick", len(sent))
	}
	n.egress.FlushDeferred()
	seen := 0
	for _, m := range groupSends(env) {
		if m.Kind == kindGossip {
			seen++
			if m.Payload != nil && !bytes.Contains(m.Payload, []byte("x")) {
				t.Error("payload not carried")
			}
		}
	}
	if seen != nbr.N() {
		t.Fatalf("plain gossip copies = %d, want %d", seen, nbr.N())
	}
}

// TestBatchCountTriggerFlushesEarly checks the byte/count budget: the
// GossipMaxBatch-th payload closes the destination's batch at once, and the
// closed batch leaves at the round tick as one carrier.
func TestBatchCountTriggerFlushesEarly(t *testing.T) {
	self := ids.NodeID(1)
	comp := testComp(7, 3, 1, 2, 3)
	nbr := testComp(9, 1, 4, 5, 6)
	n, env := memberNode(t, self, comp, nbr, func(cfg *Config) { cfg.GossipMaxBatch = 3 })

	for i := 0; i < 3; i++ {
		originGossip(n, Delivery{
			BcastID: crypto.Hash([]byte(fmt.Sprintf("cap-%d", i))),
			Origin:  self,
			Data:    []byte("x"),
		})
	}
	if dests, _ := n.egress.Pending(); dests != 0 {
		t.Fatalf("full batch not flushed: %d destinations pending", dests)
	}
	n.egress.FlushDeferred()
	batches := 0
	for _, m := range groupSends(env) {
		if m.Kind == kindBatch {
			batches++
		}
	}
	if batches != nbr.N() {
		t.Fatalf("batch copies = %d, want one per destination member (%d)", batches, nbr.N())
	}
}

// TestFreshSentEvictsOnlyStaleEntries pins the rate-limiter fix: overflowing
// the freshness cache must evict entries older than the suppression window,
// not recent ones — a wholesale reset re-opened the refresh-storm window.
func TestFreshSentEvictsOnlyStaleEntries(t *testing.T) {
	self := ids.NodeID(1)
	comp := testComp(7, 3, 1, 2, 3)
	nbr := testComp(9, 1, 4, 5, 6)
	n, env := memberNode(t, self, comp, nbr)
	window := 4 * n.cfg.RoundDuration

	// An old epoch of our composition that includes us (we can attest it).
	oldComp := testComp(7, 2, 1, 2)
	n.learnComp(oldComp)

	// 200 stale entries and 150 fresh ones.
	for i := 0; i < 200; i++ {
		n.freshSent.last[group.Key{GroupID: ids.GroupID(1000 + i), Epoch: 1}] = env.now - window
	}
	fresh := make([]group.Key, 0, 150)
	for i := 0; i < 150; i++ {
		k := group.Key{GroupID: ids.GroupID(5000 + i), Epoch: 1}
		n.freshSent.last[k] = env.now
		fresh = append(fresh, k)
	}

	// A stale-epoch message from the neighbor trips the overflow path.
	n.maybeRefreshSender(group.GroupMsg{
		SrcGroup: nbr.GroupID, SrcEpoch: nbr.Epoch,
		DstGroup: comp.GroupID, DstEpoch: 2,
	})

	for _, k := range fresh {
		if _, ok := n.freshSent.last[k]; !ok {
			t.Fatalf("fresh entry %v evicted by overflow handling", k)
		}
	}
	for i := 0; i < 200; i++ {
		if _, ok := n.freshSent.last[group.Key{GroupID: ids.GroupID(1000 + i), Epoch: 1}]; ok {
			t.Fatalf("stale entry %d survived overflow handling", i)
		}
	}
	// The triggering sender itself was recorded (reply rate-limited next time).
	if _, ok := n.freshSent.last[nbr.Key()]; !ok {
		t.Fatal("triggering sender not recorded in freshSent")
	}
}

// TestPruneStale covers the shared rate-limiter eviction helper.
func TestPruneStale(t *testing.T) {
	m := map[int]time.Duration{1: 0, 2: 50, 3: 100}
	pruneStale(m, 100, 60)
	if _, ok := m[1]; ok {
		t.Error("entry at age 100 must be evicted (window 60)")
	}
	if _, ok := m[2]; !ok {
		t.Error("entry at age 50 must survive (window 60)")
	}
	if _, ok := m[3]; !ok {
		t.Error("entry at age 0 must survive")
	}
}

// TestConfigClampsGossipMaxBatch pins the cross-layer limit: the send-side
// cap must never exceed what receivers accept per frame.
func TestConfigClampsGossipMaxBatch(t *testing.T) {
	cfg := Config{GossipMaxBatch: group.MaxBatchItems * 2}.withDefaults()
	if cfg.GossipMaxBatch != group.MaxBatchItems {
		t.Errorf("GossipMaxBatch = %d, want clamped to %d", cfg.GossipMaxBatch, group.MaxBatchItems)
	}
	if cfg := (Config{}).withDefaults(); cfg.GossipMaxBatch != 64 {
		t.Errorf("default GossipMaxBatch = %d, want 64", cfg.GossipMaxBatch)
	}
}

// TestBroadcastRejectsOversizedPayload: oversized data must fail at the
// caller with a typed error, never reach the wire framing (whose hard limit
// would fault remote forwarders instead).
func TestBroadcastRejectsOversizedPayload(t *testing.T) {
	self := ids.NodeID(1)
	comp := testComp(7, 3, 1, 2, 3)
	nbr := testComp(9, 1, 4, 5, 6)
	n, _ := memberNode(t, self, comp, nbr)

	if err := n.BroadcastWith(make([]byte, MaxBroadcastBytes+1), BroadcastOpts{}); err != ErrBroadcastTooLarge {
		t.Fatalf("oversized Broadcast returned %v, want ErrBroadcastTooLarge", err)
	}
	if dests, _ := n.egress.Pending(); dests != 0 || n.opSeq != 0 {
		t.Error("oversized Broadcast must have no side effects")
	}
}
