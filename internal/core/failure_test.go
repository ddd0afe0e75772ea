package core

// Failure-injection suite: message loss, partitions, simultaneous crashes,
// Byzantine payload withholding and vote spoofing, and the join-concurrency regression. Each scenario also verifies the
// divergence invariant (all members of a vgroup apply the same op sequence
// per epoch) through an OnApply detector.

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"atum/internal/actor"
	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/overlay"
	"atum/internal/simnet"
	"atum/internal/smr"
)

// runUntil advances virtual time until cond holds or max passes.
func (h *harness) runUntil(cond func() bool, max time.Duration) bool {
	deadline := h.net.Now() + max
	for !cond() && h.net.Now() < deadline {
		h.net.Run(h.net.Now() + 100*time.Millisecond)
	}
	return cond()
}

// newHarnessNet is newHarness with a custom simulated-network configuration.
func newHarnessNet(t *testing.T, netCfg simnet.Config, cfgFn func(cfg *Config)) *harness {
	t.Helper()
	h := &harness{
		t:         t,
		net:       simnet.New(netCfg),
		nodes:     make(map[ids.NodeID]*Node),
		delivered: make(map[ids.NodeID][]string),
		deliverAt: make(map[ids.NodeID]map[string]time.Duration),
		cfgFn:     cfgFn,
	}
	return h
}

// divergenceDetector records (group, epoch) -> node -> op digests and
// reports forks: two members applying different sequences in one epoch.
type divergenceDetector struct {
	seqs map[string]map[ids.NodeID][]crypto.Digest
}

func newDivergenceDetector() *divergenceDetector {
	return &divergenceDetector{seqs: make(map[string]map[ids.NodeID][]crypto.Digest)}
}

func (d *divergenceDetector) hook(id ids.NodeID) func(gid uint64, epoch uint64, dig [32]byte, kind string) {
	return func(gid uint64, epoch uint64, dig [32]byte, kind string) {
		k := fmt.Sprintf("%d/%d", gid, epoch)
		if d.seqs[k] == nil {
			d.seqs[k] = make(map[ids.NodeID][]crypto.Digest)
		}
		d.seqs[k][id] = append(d.seqs[k][id], crypto.Digest(dig))
	}
}

// check fails the test if any two members diverge on a shared prefix.
func (d *divergenceDetector) check(t *testing.T) {
	t.Helper()
	for key, byNode := range d.seqs {
		var ref []crypto.Digest
		var refID ids.NodeID
		first := true
		for id, seq := range byNode {
			if first {
				ref, refID, first = seq, id, false
				continue
			}
			n := len(seq)
			if len(ref) < n {
				n = len(ref)
			}
			for i := 0; i < n; i++ {
				if ref[i] != seq[i] {
					t.Fatalf("epoch %s: op sequence diverges between %v and %v at index %d",
						key, refID, id, i)
				}
			}
		}
	}
}

func TestConcurrentJoinsSameContact(t *testing.T) {
	// Regression test: joiners racing through one contact used to deadlock
	// when their redirects were lost to epoch churn — the queued admission
	// was never drained and blocked all retries by op dedup (fixed by
	// draining pendingJoins at reconfiguration barriers).
	for _, mode := range []smr.Mode{smr.ModeSync, smr.ModeAsync} {
		t.Run(mode.String(), func(t *testing.T) {
			h := newHarness(t, mode, 77, nil)
			first := h.addNode(mode)
			h.net.Run(h.net.Now() + 10*time.Millisecond)
			if err := first.Bootstrap(); err != nil {
				t.Fatal(err)
			}
			contact := first.Identity()

			const joiners = 6
			var nodes []*Node
			for i := 0; i < joiners; i++ {
				n := h.addNode(mode)
				nodes = append(nodes, n)
			}
			h.net.Run(h.net.Now() + 10*time.Millisecond)
			for _, n := range nodes {
				if err := n.Join(contact); err != nil {
					t.Fatal(err)
				}
			}
			deadline := h.net.Now() + 240*time.Second
			allIn := func() bool {
				for _, n := range nodes {
					if !n.IsMember() {
						return false
					}
				}
				return true
			}
			for !allIn() && h.net.Now() < deadline {
				h.net.Run(h.net.Now() + 100*time.Millisecond)
				// The paper's liveness guarantee presumes clients re-request
				// failed joins; re-issue for joiners whose attempt expired.
				for _, n := range nodes {
					if n.phase == phaseIdle || n.phase == phaseLeft {
						_ = n.Join(contact)
					}
				}
			}
			if !allIn() {
				for i, n := range nodes {
					t.Logf("joiner %d member=%v phase=%v", i, n.IsMember(), n.phase)
				}
				t.Fatal("concurrent joins did not all complete")
			}
			h.checkMembershipConsistent()
		})
	}
}

func TestBroadcastSurvivesMessageLoss(t *testing.T) {
	det := newDivergenceDetector()
	h := newHarnessNet(t, simnet.Config{
		Seed:     3,
		Latency:  simnet.UniformLatency(time.Millisecond, 8*time.Millisecond),
		LossProb: 0.02, // 2% of all messages silently vanish
	}, func(cfg *Config) {
		prev := cfg.Callbacks.OnApply
		id := cfg.Identity.ID
		hook := det.hook(id)
		cfg.Callbacks.OnApply = func(g uint64, e uint64, d [32]byte, k string) {
			hook(g, e, d, k)
			if prev != nil {
				prev(g, e, d, k)
			}
		}
	})
	nodes := h.bootstrapSystem(smr.ModeSync, 8, 90*time.Second)

	if err := nodes[2].BroadcastWith([]byte("lossy-net"), BroadcastOpts{}); err != nil {
		t.Fatal(err)
	}
	deadline := h.net.Now() + 60*time.Second
	everyone := func() bool {
		for _, n := range nodes {
			if !n.IsMember() {
				continue // churned by shuffling; deliveries follow membership
			}
			found := false
			for _, msg := range h.delivered[n.cfg.Identity.ID] {
				if msg == "lossy-net" {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	for !everyone() && h.net.Now() < deadline {
		h.net.Run(h.net.Now() + 100*time.Millisecond)
	}
	if !everyone() {
		t.Fatal("broadcast did not reach all members under 2% loss")
	}
	det.check(t)
	h.checkMembershipConsistent()
}

func TestPartitionedMinorityEvictedThenRejoins(t *testing.T) {
	h := newHarness(t, smr.ModeSync, 9, nil)
	nodes := h.bootstrapSystem(smr.ModeSync, 5, 90*time.Second)

	// Cut one node off (paper §2: isolated nodes are treated as faulty and
	// counted against the fault bound).
	victim := nodes[4]
	vid := victim.cfg.Identity.ID
	var rest []ids.NodeID
	for _, n := range nodes[:4] {
		rest = append(rest, n.cfg.Identity.ID)
	}
	h.net.SetPartitions([]ids.NodeID{vid}, rest)

	deadline := h.net.Now() + 60*time.Second
	evicted := func() bool {
		for _, n := range nodes[:4] {
			if n.IsMember() && n.Comp().Contains(vid) {
				return false
			}
		}
		return true
	}
	for !evicted() && h.net.Now() < deadline {
		h.net.Run(h.net.Now() + 200*time.Millisecond)
	}
	if !evicted() {
		t.Fatal("partitioned node was not evicted")
	}
	if h.sum(func(s Stats) uint64 { return s.Evictions }) == 0 {
		t.Fatal("no eviction counted")
	}

	// Heal; the victim rejoins through any connected node.
	h.net.Heal()
	// The victim's own view still says "member of the old epoch"; the join
	// API requires it to notice it is gone. Clients call Leave/Join; the
	// engine also self-detects via heartbeat silence, but rejoin via Join
	// after an explicit reset is the documented path.
	h.net.Run(h.net.Now() + 5*time.Second)
	back := func() bool { return victim.IsMember() && victim.Comp().N() >= 2 }
	if !back() {
		victim.phase = phaseLeft // simulate app-level restart after isolation
		victim.st = nil
		if err := victim.Join(nodes[0].Identity()); err != nil {
			t.Fatal(err)
		}
		for !back() && h.net.Now() < deadline+120*time.Second {
			h.net.Run(h.net.Now() + 200*time.Millisecond)
		}
	}
	if !back() {
		t.Fatal("victim did not rejoin after heal")
	}
	h.checkMembershipConsistent()
}

func TestCrashesWithinFaultBoundDoNotStopBroadcast(t *testing.T) {
	h := newHarness(t, smr.ModeSync, 21, func(cfg *Config) {
		// One big vgroup so the fault bound is easy to reason about:
		// g = 9 tolerates f = 4 in sync mode.
		cfg.Params = Params{HC: 2, RWL: 3, GMax: 12, GMin: 3}
	})
	nodes := h.bootstrapSystem(smr.ModeSync, 9, 120*time.Second)

	// Crash two members (well within f=4).
	h.net.Crash(nodes[7].cfg.Identity.ID)
	h.net.Crash(nodes[8].cfg.Identity.ID)
	h.net.Run(h.net.Now() + 2*time.Second)

	if err := nodes[0].BroadcastWith([]byte("after-crashes"), BroadcastOpts{}); err != nil {
		t.Fatal(err)
	}
	deadline := h.net.Now() + 60*time.Second
	reached := func() int {
		count := 0
		for _, n := range nodes[:7] {
			for _, msg := range h.delivered[n.cfg.Identity.ID] {
				if msg == "after-crashes" {
					count++
					break
				}
			}
		}
		return count
	}
	for reached() < 7 && h.net.Now() < deadline {
		h.net.Run(h.net.Now() + 100*time.Millisecond)
	}
	if got := reached(); got != 7 {
		t.Fatalf("broadcast reached %d/7 surviving nodes", got)
	}

	// The crashed members are eventually evicted and the group shrinks.
	evictDeadline := h.net.Now() + 120*time.Second
	shrunk := func() bool {
		for _, n := range nodes[:7] {
			if !n.IsMember() {
				continue
			}
			c := n.Comp()
			if c.Contains(nodes[7].cfg.Identity.ID) || c.Contains(nodes[8].cfg.Identity.ID) {
				return false
			}
		}
		return true
	}
	for !shrunk() && h.net.Now() < evictDeadline {
		h.net.Run(h.net.Now() + 500*time.Millisecond)
	}
	if !shrunk() {
		t.Fatal("crashed members never evicted")
	}
	h.checkMembershipConsistent()
}

// TestSilentMemberSendsNoHeartbeatAndIsEvicted: BehaviorSilent "sends nothing"
// and that includes heartbeats. The failure detector's beacon used to reach
// env.Send without passing the bottom send primitive that drops for a silent
// node, so a silent member kept itself un-evicted forever. With the default
// EvictAfter the others now vote it out — it and only it: every correct member
// keeps the other three, and the four apply one eviction each — and
// broadcasts go on meanwhile.
func TestSilentMemberSendsNoHeartbeatAndIsEvicted(t *testing.T) {
	flipped := false
	var silentID ids.NodeID
	heartbeats := 0
	h := newHarness(t, smr.ModeSync, 23, nil)
	h.wrapEnv = func(n *Node, env actor.Env) actor.Env {
		return sendHook{Env: env, hook: func(msg actor.Message) actor.Message {
			if _, ok := msg.(Heartbeat); ok && flipped && n.cfg.Identity.ID == silentID {
				heartbeats++
			}
			return msg
		}}
	}
	nodes := h.bootstrapSystem(smr.ModeSync, 5, 60*time.Second)
	h.net.Run(h.net.Now() + time.Second)
	silent, correct := nodes[4], nodes[:4]
	silentID = silent.cfg.Identity.ID
	silent.SetBehavior(BehaviorSilent)
	flipped = true

	if err := nodes[1].BroadcastWith([]byte("while-silent"), BroadcastOpts{}); err != nil {
		t.Fatal(err)
	}
	gone := func() bool {
		for _, n := range correct {
			if n.Comp().Contains(silentID) {
				return false
			}
		}
		return true
	}
	if !h.runUntil(gone, 10*nodes[0].cfg.EvictAfter) {
		t.Fatalf("the silent member is still in a correct member's composition after ten times EvictAfter (%v)", nodes[0].cfg.EvictAfter)
	}
	h.net.Run(h.net.Now() + 2*time.Second)
	if heartbeats != 0 {
		t.Errorf("the silent member sent %d heartbeats after it went silent", heartbeats)
	}
	var evictions uint64
	for _, n := range correct {
		evictions += n.Stats().Evictions
		for _, peer := range correct {
			if !n.IsMember() || !n.Comp().Contains(peer.cfg.Identity.ID) {
				t.Errorf("correct member %v lost %v: an eviction hit a correct member", n.cfg.Identity.ID, peer.cfg.Identity.ID)
			}
		}
	}
	if evictions != 4 {
		t.Errorf("the correct members applied %d evictions, want 4: the silent member's, once each", evictions)
	}
	for _, n := range correct {
		if !slices.Contains(h.delivered[n.cfg.Identity.ID], "while-silent") {
			t.Errorf("correct member %v missed the broadcast sent next to a silent member", n.cfg.Identity.ID)
		}
	}
	h.checkMembershipConsistent()
}

// TestHeartbeatOnlyEvictionsReachTheVgroup: a heartbeat-only member (the
// paper's Sync-experiment adversary, §6.1.3) proposes to evict every correct
// peer, and its proposals must reach agreement — in ModeSync a proposal leaves
// only at its replica's round tick, which a faulty member once skipped, so its
// evictions stayed queued. With f such members in a vgroup of six, every
// correct member commits each one's eviction votes, and f votes evict nobody.
func TestHeartbeatOnlyEvictionsReachTheVgroup(t *testing.T) {
	for _, mode := range modes() {
		t.Run(mode.String(), func(t *testing.T) {
			// committed[at][proposer] counts the eviction votes node at applied.
			committed := map[ids.NodeID]map[ids.NodeID]int{}
			h := newHarness(t, mode, 3, func(cfg *Config) {
				self := cfg.Identity.ID
				cfg.Callbacks.OnApply = func(_, _ uint64, _ [32]byte, kind string) {
					var proposer ids.NodeID
					if _, err := fmt.Sscanf(kind, "core.evictVoteOp:n%d", &proposer); err == nil {
						if committed[self] == nil {
							committed[self] = map[ids.NodeID]int{}
						}
						committed[self][proposer]++
					}
				}
			})
			nodes := h.bootstrapSystem(mode, 6, 60*time.Second)
			h.net.Run(h.net.Now() + time.Second)
			comp := nodes[0].Comp()
			if comp.N() != 6 {
				t.Fatalf("the six nodes formed a vgroup of %d", comp.N())
			}
			f := mode.F(comp.N())
			faulty, correct := nodes[len(nodes)-f:], nodes[:len(nodes)-f]
			for _, n := range faulty {
				n.SetBehavior(BehaviorHeartbeatOnly)
			}
			h.net.Run(h.net.Now() + 10*nodes[0].cfg.EvictAfter)

			for _, n := range correct {
				for _, b := range faulty {
					if got := committed[n.cfg.Identity.ID][b.cfg.Identity.ID]; got != comp.N()-1 {
						t.Errorf("correct member %v committed %d eviction votes of heartbeat-only member %v, want one per peer (%d)",
							n.cfg.Identity.ID, got, b.cfg.Identity.ID, comp.N()-1)
					}
				}
				if !n.Comp().Equal(comp) {
					t.Errorf("correct member %v ends in %v, want the vgroup unchanged: f eviction votes evict nobody", n.cfg.Identity.ID, ids.IdentityIDs(n.Comp().Members))
				}
			}
			if ev := h.sum(func(s Stats) uint64 { return s.Evictions }); ev != 0 {
				t.Errorf("%d evictions applied, want 0", ev)
			}
		})
	}
}

// forgeEvictionVotes runs a six-member vgroup with eviction by silence out of
// reach, and has the member at index faulty of the composition hand its own
// replica f+1 eviction votes for a correct member, each under the name of
// another member. It returns the target and the correct members.
func forgeEvictionVotes(t *testing.T, mode smr.Mode, faulty int) (ids.NodeID, []*Node) {
	t.Helper()
	h := newHarness(t, mode, 3, func(cfg *Config) { cfg.EvictAfter = time.Hour })
	nodes := h.bootstrapSystem(mode, 6, 60*time.Second)
	h.net.Run(h.net.Now() + time.Second)
	comp := nodes[0].Comp()
	if comp.N() != 6 {
		t.Fatalf("the six nodes formed a vgroup of %d", comp.N())
	}
	forger := h.nodes[comp.Members[faulty].ID]
	target := comp.Members[(faulty+1)%comp.N()].ID
	vote := encodePayload(evictVoteOp{GroupID: comp.GroupID, Target: target, Epoch: comp.Epoch})
	names := 0
	for _, m := range comp.Members {
		if m.ID == forger.cfg.Identity.ID || m.ID == target || names == mode.F(comp.N())+1 {
			continue
		}
		names++
		forger.replica.Propose(smr.Operation{Proposer: m.ID, OpID: 1 << 40, Data: vote})
	}
	h.net.Run(h.net.Now() + 5*time.Second)
	var correct []*Node
	for _, n := range nodes {
		if n != forger {
			correct = append(correct, n)
		}
	}
	return target, correct
}

// TestForgedEvictionVotesEvictNobody: a faulty member puts f+1 eviction votes
// for a correct member under other members' names into its replica. An op
// commits only under the name of the member that sent it, so the votes count
// for nothing and nobody is evicted. The faulty member is the vgroup's
// highest NodeID, so in ModeAsync it is a backup, not the view-0 primary.
func TestForgedEvictionVotesEvictNobody(t *testing.T) {
	for _, mode := range modes() {
		t.Run(mode.String(), func(t *testing.T) {
			target, correct := forgeEvictionVotes(t, mode, 5)
			for _, n := range correct {
				if ev := n.Stats().Evictions; ev != 0 {
					t.Errorf("correct member %v applied %d evictions, want 0", n.cfg.Identity.ID, ev)
				}
				if !n.IsMember() || !n.Comp().Contains(target) {
					t.Errorf("correct member %v evicted %v on forged votes", n.cfg.Identity.ID, target)
				}
			}
		})
	}
}

// TestFaultyPrimaryForgesEvictionVotes pins a known limit (docs/ARCHITECTURE.md
// "Known limits", ROADMAP item 13): PBFT backups check a PrePrepare's batch
// against its digest only, so a faulty view-0 primary (the vgroup's lowest
// NodeID) still commits ops under other members' names, and its f+1 forged
// eviction votes evict a correct member. When backups check proposers, this
// test must be inverted to expect no eviction.
func TestFaultyPrimaryForgesEvictionVotes(t *testing.T) {
	target, correct := forgeEvictionVotes(t, smr.ModeAsync, 0)
	for _, n := range correct {
		if n.IsMember() && n.Comp().Contains(target) {
			t.Fatalf("correct member %v still holds %v; the known limit no longer reproduces", n.cfg.Identity.ID, target)
		}
	}
}

// TestPenFloodBoundsConfigurations: any link peer can name a configuration in
// an SMR envelope, and pen buffered each one until that configuration was
// installed — for a group the node never joins, forever. One peer flooding a
// fresh node with 30 000 distinct (group, epoch) keys left 30 000 buffers;
// now the oldest gives way past maxPenKeys, so the newest is still kept.
func TestPenFloodBoundsConfigurations(t *testing.T) {
	h := newHarness(t, smr.ModeSync, 29, nil)
	n := New(h.defaultConfig(1, smr.ModeSync))
	const keys = 30000
	for i := 1; i <= keys; i++ {
		n.Receive(2, SMREnvelope{GroupID: ids.GroupID(i), Epoch: uint64(i), Inner: Heartbeat{}})
	}
	if len(n.pen) != maxPenKeys || len(n.penQ) != maxPenKeys {
		t.Fatalf("%d flooded configurations left %d buffers (%d queued), want the cap %d", keys, len(n.pen), len(n.penQ), maxPenKeys)
	}
	for _, k := range n.penQ {
		if _, ok := n.pen[k]; !ok {
			t.Fatalf("queued configuration %v has no buffer", k)
		}
	}
	if _, ok := n.pen[group.Key{GroupID: keys, Epoch: keys}]; !ok {
		t.Fatal("the newest configuration was refused instead of the oldest evicted")
	}
}

// TestNewestIndexBoundedByComps: every composition a node learns names a
// group, and a per-group copy of the newest one was kept for every group ever
// named — 10 000 groups left 10 000 clones. The newest composition is now the
// last of its group's list in the one store, which the maxComps FIFO bounds:
// when the FIFO evicts a group's newest epoch the newest one left takes its
// place, and a group with none left is gone from the store.
func TestNewestIndexBoundedByComps(t *testing.T) {
	n, _ := memberNode(t, 1, testComp(7, 3, 1, 2, 3), testComp(9, 1, 4, 5, 6))
	// Learned out of order, so the FIFO evicts epoch 2 before epoch 1.
	n.learnComp(testComp(5, 2, 51, 52, 53))
	n.learnComp(testComp(5, 1, 51, 52, 54))
	gid := uint64(100)
	flood := func() {
		n.learnComp(testComp(ids.GroupID(gid), 1, gid+1, gid+2, gid+3))
		gid++
	}
	held := func(k group.Key) bool { _, ok := n.comps.exact(k); return ok }
	for held(group.Key{GroupID: 5, Epoch: 2}) {
		flood()
	}
	if c, ok := n.comps.newest(5); !ok || c.Epoch != 1 {
		t.Fatalf("with epoch 2 evicted, group 5's newest is %v (%v), want epoch 1", c.Key(), ok)
	}
	flood()
	if _, ok := n.comps.byGroup[5]; ok {
		t.Fatal("group 5 is still in the store with none of its compositions left")
	}
	for gid < 100+10000 {
		flood()
	}
	total := 0
	for g, list := range n.comps.byGroup {
		total += len(list)
		if !slices.IsSortedFunc(list, func(a, b group.Composition) int { return cmp.Compare(a.Epoch, b.Epoch) }) {
			t.Fatalf("group %v's compositions are not in ascending epoch order", g)
		}
	}
	if total > maxComps || len(n.comps.q) > maxComps {
		t.Fatalf("10 000 learned groups left %d compositions and %d queued keys, want at most maxComps = %d", total, len(n.comps.q), maxComps)
	}
}

// TestReShareAttestsOnlyAnExactEpoch: a member heartbeating at epoch E-1 gets
// this node's share of the snapshot E-1 attested. Once comps had evicted
// (gid, E-1), lookupComp's fallback answered with epoch E's members, and the
// share went out stamped E — filling a catch-up slot on the laggard for an
// epoch that never attested that snapshot. Now nothing is sent.
func TestReShareAttestsOnlyAnExactEpoch(t *testing.T) {
	prev, cur := testComp(7, 3, 1, 2, 3), testComp(7, 4, 1, 2, 3)
	n, env := memberNode(t, 1, cur, testComp(9, 1, 4, 5, 6))
	n.learnComp(prev)
	n.cacheSnapshot(prev.Epoch, []byte("snapshot attested by epoch 3"))
	snapshotsTo := func(to ids.NodeID) (epochs []uint64) {
		for _, s := range env.sent {
			if m, ok := s.msg.(group.GroupMsg); ok && s.to == to && m.Kind == kindSnapshot {
				epochs = append(epochs, m.SrcEpoch)
			}
		}
		return epochs
	}

	n.handleHeartbeat(2, Heartbeat{GroupID: 7, Epoch: prev.Epoch})
	if got := snapshotsTo(2); !slices.Equal(got, []uint64{prev.Epoch}) {
		t.Fatalf("with epoch 3 known, re-shares stamped %v, want [3]", got)
	}
	n.comps.drop(prev.Key())
	n.handleHeartbeat(3, Heartbeat{GroupID: 7, Epoch: prev.Epoch})
	if got := snapshotsTo(3); len(got) != 0 {
		t.Fatalf("with epoch 3 evicted, re-shares stamped %v, want none", got)
	}
}

// TestSnapshotCacheFreedOnceMembersCurrent: a node's outgoing snapshots are
// cached only for re-shares, which answer a heartbeat below the current epoch.
// They used to stay for four epochs; now the cache is freed once the last
// heartbeat of every other member names the current epoch or a later one, and
// each reconfigure fills it again. A member whose heartbeat named the new
// epoch before this node crossed the barrier is current already; one whose
// last heartbeat named the parent vgroup of a split is not, whatever its
// epoch.
func TestSnapshotCacheFreedOnceMembersCurrent(t *testing.T) {
	n, env := memberNode(t, 1, testComp(7, 3, 1, 2, 3), testComp(9, 1, 4, 5, 6))
	mark := 0
	reShares := func(to ids.NodeID) (epochs []uint64) {
		for _, s := range env.sent[mark:] {
			if m, ok := s.msg.(group.GroupMsg); ok && s.to == to && m.Kind == kindSnapshot {
				epochs = append(epochs, m.SrcEpoch)
			}
		}
		return epochs
	}
	heartbeat := func(from ids.NodeID, epoch uint64) {
		mark = len(env.sent)
		n.handleHeartbeat(from, Heartbeat{GroupID: 7, Epoch: epoch})
	}

	n.reconfigure([]ids.Identity{n.cfg.Identity, testComp(7, 0, 2).Members[0], testComp(7, 0, 3).Members[0], testComp(7, 0, 4).Members[0]}, causeJoin)
	if n.st.comp.Epoch != 4 || n.recentSnaps[3] == nil {
		t.Fatalf("after the reconfigure to epoch %d, cached epochs %v, want [3]", n.st.comp.Epoch, slices.Sorted(maps.Keys(n.recentSnaps)))
	}
	heartbeat(2, 3)
	if got := reShares(2); !slices.Equal(got, []uint64{3}) {
		t.Fatalf("a heartbeat at epoch 3 got re-shares stamped %v, want [3]", got)
	}
	heartbeat(2, 4)
	heartbeat(4, 3)
	if got := reShares(4); !slices.Equal(got, []uint64{3}) {
		t.Fatalf("a heartbeat at epoch 3 got re-shares stamped %v, want [3]", got)
	}
	heartbeat(3, 5) // a later epoch counts as current
	if len(n.recentSnaps) == 0 {
		t.Fatal("cache freed while member 4 has not heartbeated at epoch 4")
	}
	heartbeat(4, 4)
	if len(n.recentSnaps) != 0 {
		t.Fatalf("every member heartbeated at epoch 4, yet epochs %v are still cached", slices.Sorted(maps.Keys(n.recentSnaps)))
	}
	heartbeat(3, 3)
	if got := reShares(3); len(got) != 0 {
		t.Fatalf("with the cache freed, a stale heartbeat got re-shares stamped %v", got)
	}

	heartbeat(2, 5) // 2 crosses the next barrier first
	n.reconfigure([]ids.Identity{n.cfg.Identity, testComp(7, 0, 2).Members[0], testComp(7, 0, 3).Members[0]}, causeEvict)
	if n.recentSnaps[4] == nil {
		t.Fatalf("after the reconfigure to epoch %d, cached epochs %v, want [4]", n.st.comp.Epoch, slices.Sorted(maps.Keys(n.recentSnaps)))
	}
	heartbeat(3, 4)
	if got := reShares(3); !slices.Equal(got, []uint64{4}) {
		t.Fatalf("a heartbeat at epoch 4 got re-shares stamped %v, want [4]", got)
	}
	heartbeat(3, 5)
	if len(n.recentSnaps) != 0 {
		t.Fatalf("2 heartbeated at epoch 5 before the reconfigure and 3 after it, yet epochs %v are still cached", slices.Sorted(maps.Keys(n.recentSnaps)))
	}

	// 1 and 2 split off from vgroup 7 at epoch 5 into vgroup 8 at epoch 1,
	// which then admits 10.
	n, _ = memberNode(t, 1, testComp(7, 5, 1, 2, 3, 4), testComp(9, 1, 5, 6, 7))
	n.handleHeartbeat(2, Heartbeat{GroupID: 7, Epoch: 5})
	E := testComp(8, 1, 1, 2)
	n.installSplitHalf(E, overlay.NewNeighbors(2, E), testComp(7, 6, 3, 4))
	n.reconfigure(testComp(8, 0, 1, 2, 10).Members, causeJoin)
	n.handleHeartbeat(10, Heartbeat{GroupID: 8, Epoch: 2})
	if n.recentSnaps[1] == nil {
		t.Fatal("cache freed while 2's last heartbeat named vgroup 7, not 8")
	}
	n.handleHeartbeat(2, Heartbeat{GroupID: 8, Epoch: 2})
	if len(n.recentSnaps) != 0 {
		t.Fatalf("2 and 10 heartbeated at vgroup 8's epoch 2, yet epochs %v are still cached", slices.Sorted(maps.Keys(n.recentSnaps)))
	}
}

// TestNoCachedSnapshotsOnceSettled: once a grown system is quiet, every
// member has heard every other at its current epoch, so no member holds a
// cached outgoing snapshot. Shuffling is off, as in the benchmark: with it on,
// this seed leaves compositions that list a member gone elsewhere, and a
// member stuck an epoch behind, whose snapshots stay cached for it.
func TestNoCachedSnapshotsOnceSettled(t *testing.T) {
	for _, mode := range modes() {
		t.Run(mode.String(), func(t *testing.T) {
			h := newHarness(t, mode, 5, func(cfg *Config) { cfg.DisableShuffle = true })
			h.bootstrapSystem(mode, 24, 240*time.Second)
			h.net.Run(h.net.Now() + 10*time.Second)
			if len(h.groupsOf()) < 2 {
				t.Fatalf("24 nodes settled in %d vgroup(s), want several", len(h.groupsOf()))
			}
			for id, n := range h.nodes {
				if len(n.recentSnaps) != 0 {
					t.Errorf("node %v still caches snapshots of epochs %v", id, slices.Sorted(maps.Keys(n.recentSnaps)))
				}
				if n.st == nil {
					continue
				}
				others := ids.IdentityIDs(ids.Without(n.st.comp.Members, id))
				if got := slices.Sorted(maps.Keys(n.peers)); !slices.Equal(got, others) || n.peerBehind() {
					t.Errorf("node %v's table holds %v for the other members %v (one behind epoch %d: %v)",
						id, got, others, n.st.comp.Epoch, n.peerBehind())
				}
			}
		})
	}
}

func TestLaggardCatchesUpAfterPartition(t *testing.T) {
	// A member partitioned across an epoch change misses both the commit
	// and the one-shot catch-up shares. After healing, its stale-epoch
	// heartbeats must trigger snapshot re-shares from the up-to-date
	// members, pulling it into the current epoch — without this
	// anti-entropy it stays a permanent zombie (heartbeating but unable to
	// participate).
	h := newHarness(t, smr.ModeAsync, 41, func(cfg *Config) {
		// One big group: no splits, so the laggard's group is the system.
		cfg.Params = Params{HC: 2, RWL: 3, GMax: 12, GMin: 2}
	})
	nodes := h.bootstrapSystem(smr.ModeAsync, 5, 120*time.Second)

	// Partition one member away.
	laggard := nodes[4]
	lagID := laggard.cfg.Identity.ID
	var rest []ids.NodeID
	for _, n := range nodes[:4] {
		rest = append(rest, n.cfg.Identity.ID)
	}
	h.net.SetPartitions([]ids.NodeID{lagID}, rest)

	// Epoch changes while the laggard is cut off: a new node joins.
	joiner := h.addNode(smr.ModeAsync)
	h.net.SetPartitions([]ids.NodeID{lagID},
		append(append([]ids.NodeID(nil), rest...), joiner.cfg.Identity.ID))
	h.net.Run(h.net.Now() + 10*time.Millisecond)
	if err := joiner.Join(nodes[0].Identity()); err != nil {
		t.Fatal(err)
	}
	if !h.runUntil(joiner.IsMember, 120*time.Second) {
		t.Fatal("join during partition did not complete")
	}
	epochAhead := nodes[0].Comp().Epoch
	if laggard.Comp().Epoch >= epochAhead {
		t.Fatalf("laggard unexpectedly advanced: %d >= %d", laggard.Comp().Epoch, epochAhead)
	}

	// Heal: heartbeats from the laggard carry its stale epoch; members
	// re-share the snapshot; the laggard catches up to the epoch barrier.
	h.net.Heal()
	caughtUp := func() bool {
		return laggard.IsMember() && laggard.Comp().Epoch >= epochAhead
	}
	if !h.runUntil(caughtUp, 120*time.Second) {
		t.Fatalf("laggard stuck at epoch %d, group at %d",
			laggard.Comp().Epoch, nodes[0].Comp().Epoch)
	}
	h.checkMembershipConsistent()

	// Barrier catch-up restores membership, but the laggard still lacks
	// the sequence numbers committed mid-epoch while it was away, so it
	// cannot execute in this epoch. Full participation returns at the
	// next epoch barrier (here: the joiner leaves), whose snapshot it
	// receives as a connected member.
	if err := joiner.Leave(); err != nil {
		t.Fatal(err)
	}
	if !h.runUntil(func() bool { return !joiner.IsMember() }, 120*time.Second) {
		t.Fatal("joiner's leave did not complete")
	}
	afterLeave := nodes[0].Comp().Epoch
	if !h.runUntil(func() bool {
		return laggard.IsMember() && laggard.Comp().Epoch >= afterLeave
	}, 120*time.Second) {
		t.Fatalf("laggard stuck at epoch %d after second barrier (group at %d)",
			laggard.Comp().Epoch, nodes[0].Comp().Epoch)
	}

	// And it participates again: a broadcast from the laggard reaches the
	// whole system, including the laggard itself.
	if err := laggard.BroadcastWith([]byte("back-from-the-dead"), BroadcastOpts{}); err != nil {
		t.Fatal(err)
	}
	reached := func() bool {
		for _, n := range nodes {
			if !n.IsMember() {
				continue
			}
			found := false
			for _, m := range h.delivered[n.cfg.Identity.ID] {
				if m == "back-from-the-dead" {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if !h.runUntil(reached, 120*time.Second) {
		t.Fatal("laggard's broadcast did not reach the system after catch-up")
	}
	h.checkMembershipConsistent()
}

func TestTotalPartitionPreservesSafety(t *testing.T) {
	// Split the system down the middle: no broadcast may be delivered with
	// corrupted content or wrong attribution, and the vgroup state must not
	// fork (safety holds even when liveness is lost, §2). This property
	// belongs to the ASYNCHRONOUS engine: PBFT quorums (4 of 6) are
	// unreachable in both halves, so neither commits. The synchronous
	// engine's safety explicitly assumes a synchronous network — a severed
	// vgroup exceeds its fault model, which is why the paper deploys Sync
	// only inside a datacenter (§6).
	det := newDivergenceDetector()
	h := newHarness(t, smr.ModeAsync, 31, func(cfg *Config) {
		hook := det.hook(cfg.Identity.ID)
		cfg.Callbacks.OnApply = hook
	})
	nodes := h.bootstrapSystem(smr.ModeAsync, 6, 90*time.Second)

	var a, b []ids.NodeID
	for i, n := range nodes {
		if i%2 == 0 {
			a = append(a, n.cfg.Identity.ID)
		} else {
			b = append(b, n.cfg.Identity.ID)
		}
	}
	h.net.SetPartitions(a, b)
	if err := nodes[0].BroadcastWith([]byte("during-partition"), BroadcastOpts{}); err != nil {
		t.Fatal(err)
	}
	h.net.Run(h.net.Now() + 20*time.Second)
	h.net.Heal()
	h.net.Run(h.net.Now() + 30*time.Second)

	det.check(t)
	for id, msgs := range h.delivered {
		for _, m := range msgs {
			if m != "during-partition" {
				t.Fatalf("node %v delivered unknown message %q", id, m)
			}
		}
	}
}

// gossipWithholder is the fault TestGossipSurvivesPayloadWithholding injects,
// at the worst place for each item of each link: the f members of the sending
// vgroup that attach its payload toward the most members of the destination
// send their gossip votes without it, or, silent, send no gossip at all. At the
// origin hop those are f of the f+1 lowest-index members, who attach it for
// everyone; on a relayed hop, the f members group.RelaySender names for the
// most destination members (the lowest index breaking ties). Everything else
// they send is untouched, so they stay members. Indices are taken in the
// compositions the message is stamped with.
type gossipWithholder struct {
	t        *testing.T
	mode     smr.Mode
	silent   bool
	withheld int                          // gossip copies stripped or dropped
	origins  map[crypto.Digest]ids.NodeID // the origin of every broadcast seen with its payload
}

// faulty reports whether the member at index idx of src withholds the
// broadcast of digest d toward dst.
func (w *gossipWithholder) faulty(n *Node, src, dst group.Composition, idx int, d crypto.Digest) bool {
	f := w.mode.F(src.N())
	// A broadcast no one has sent the payload of yet is at its origin hop,
	// which is the hop of the origin's own vgroup (membership is frozen).
	if origin, seen := w.origins[d]; !seen || n.st.comp.Contains(origin) {
		return idx < f
	}
	served := make([]int, src.N()) // destination members each member serves
	for j := range dst.Members {
		served[group.RelaySender(src, dst, j)]++
	}
	order := make([]int, src.N())
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return served[b] - served[a] })
	return slices.Contains(order[:f], idx)
}

func (w *gossipWithholder) wrapEnv(n *Node, env actor.Env) actor.Env {
	if w.origins == nil {
		w.origins = map[crypto.Digest]ids.NodeID{}
	}
	return sendHook{Env: env, hook: func(msg actor.Message) actor.Message {
		m, ok := msg.(group.GroupMsg)
		if !ok || m.DstGroup == 0 || (m.Kind != kindGossip && m.Kind != kindBatch) {
			return msg
		}
		src, okSrc := n.lookupComp(group.Key{GroupID: m.SrcGroup, Epoch: m.SrcEpoch})
		dst, okDst := n.lookupComp(group.Key{GroupID: m.DstGroup, Epoch: m.DstEpoch})
		idx := src.Index(n.cfg.Identity.ID)
		if !okSrc || !okDst || idx < 0 || n.st == nil {
			return msg
		}
		// withhold strips or drops one gossip item; it reports whether the item
		// still leaves.
		withhold := func(it *group.GroupMsg) bool {
			if it.Payload != nil {
				if p, err := decodeGossip(it.Payload); err == nil {
					if _, seen := w.origins[it.PayloadDigest]; !seen {
						w.origins[it.PayloadDigest] = p.Origin
					}
				}
			}
			if !w.faulty(n, src, dst, idx, it.PayloadDigest) {
				return true
			}
			w.withheld++
			it.Payload = nil
			return !w.silent
		}
		if m.Kind == kindGossip {
			if !withhold(&m) {
				return nil
			}
			return m
		}
		// A carrier: the same, item by item, reframed.
		inner, err := group.UnpackBatch(m)
		if err != nil {
			w.t.Fatalf("a node sent a carrier that does not unpack: %v", err)
		}
		var items []group.BatchItem
		for _, im := range inner {
			if im.Kind == kindGossip && !withhold(&im) {
				continue
			}
			items = append(items, group.BatchItem{Kind: im.Kind, MsgID: im.MsgID, Payload: im.Payload, Digest: im.PayloadDigest})
		}
		if len(items) == 0 {
			return nil
		}
		group.SendBatchToNode(func(_ ids.NodeID, framed actor.Message) {
			m.Payload = framed.(group.GroupMsg).Payload
		}, group.Composition{}, 0, 0, m.Kind, m.MsgID, items)
		return m
	}}
}

// gossipFaultRig grows the system the gossip fault tests run on — 26 nodes,
// at least four vgroups, membership frozen; in ModeAsync over a four-region
// WAN — with fault standing between every node and the network.
func gossipFaultRig(t *testing.T, mode smr.Mode, fault func(*Node, actor.Env) actor.Env) (*harness, []*Node) {
	t.Helper()
	const seed = 1
	h := newHarness(t, mode, seed, func(cfg *Config) {
		cfg.DisableShuffle = true
		cfg.EvictAfter = time.Hour
		cfg.RequestTimeout = 2 * time.Second
	})
	if mode == smr.ModeAsync {
		h.net = simnet.New(simnet.Config{Seed: seed, Latency: simnet.WANLatency(4)})
	}
	h.wrapEnv = fault
	nodes := h.bootstrapSystem(mode, 26, 240*time.Second)
	h.net.Run(h.net.Now() + 30*time.Second)
	if groups := len(h.groupsOf()); groups < 4 {
		t.Fatalf("%d vgroups, want at least 4", groups)
	}
	return h, nodes
}

// TestGossipSurvivesPayloadWithholding: on a relayed hop each member of a
// vgroup gets a broadcast's payload from one member of its in-neighbour, and
// at the origin hop from f+1 of them. In a system of at least four vgroups the
// f members that serve the most members of each link withhold every gossip
// payload (then: every gossip message), in both fault models, and every node
// still delivers every broadcast exactly once with the bytes that were sent —
// through another link's copy, a pull from a voter, or its vgroup's
// heartbeats. The fault-free run of each mode is the baseline the withholding
// runs report their p99 delivery latency against.
func TestGossipSurvivesPayloadWithholding(t *testing.T) {
	p99 := map[smr.Mode]time.Duration{}
	for _, tc := range []struct {
		mode          smr.Mode
		silent, clean bool
	}{
		{smr.ModeAsync, false, true}, {smr.ModeAsync, false, false}, {smr.ModeAsync, true, false},
		{smr.ModeSync, false, true}, {smr.ModeSync, false, false}, {smr.ModeSync, true, false},
	} {
		name := fmt.Sprintf("%v/silent=%v", tc.mode, tc.silent)
		if tc.clean {
			name = fmt.Sprintf("%v/fault-free", tc.mode)
		}
		t.Run(name, func(t *testing.T) {
			fault := &gossipWithholder{t: t, mode: tc.mode, silent: tc.silent}
			wrap := fault.wrapEnv
			if tc.clean {
				wrap = nil
			}
			h, nodes := gossipFaultRig(t, tc.mode, wrap)
			groups := h.groupsOf()
			faulty := 0
			for _, members := range groups {
				faulty += tc.mode.F(len(members))
			}
			if faulty < len(groups)/2 {
				t.Fatalf("%d withholding members over %d vgroups: too few for the fault to bite", faulty, len(groups))
			}

			var want []string
			sentAt := map[string]time.Duration{}
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 10; i++ {
				data := make([]byte, 600)
				rng.Read(data)
				want = append(want, string(data))
				sentAt[string(data)] = h.net.Now()
				if err := nodes[(7*i)%len(nodes)].BroadcastWith(data, BroadcastOpts{}); err != nil {
					t.Fatal(err)
				}
				h.net.Run(h.net.Now() + 2*time.Second)
			}
			h.net.Run(h.net.Now() + 30*time.Second)
			if fault.withheld == 0 && !tc.clean {
				t.Fatal("no gossip copy was withheld: the fault was never exercised")
			}
			slices.Sort(want)
			var lat []time.Duration
			for _, n := range nodes {
				id := n.cfg.Identity.ID
				got := slices.Sorted(slices.Values(h.delivered[id]))
				if !slices.Equal(got, want) {
					t.Errorf("node %v delivered %d broadcasts, want each of the %d exactly once and intact", id, len(got), len(want))
				}
				for data, at := range h.deliverAt[id] {
					lat = append(lat, at-sentAt[data])
				}
			}
			slices.Sort(lat)
			q := lat[len(lat)*99/100]
			pulls, caught := h.sum(func(s Stats) uint64 { return s.PullsSent }), h.sum(func(s Stats) uint64 { return s.CaughtUp })
			if tc.clean {
				p99[tc.mode] = q
				if pulls+caught != 0 {
					t.Errorf("%d pulls and %d catch-ups without a fault, want none", pulls, caught)
				}
			}
			t.Logf("p99 delivery %v (fault-free %v), %d payloads pulled, %d broadcasts caught up", q, p99[tc.mode], pulls, caught)
		})
	}
}

// voteSpoofer is the fault TestGossipSurvivesVoteSpoofing injects on top of a
// silent gossipWithholder: the faulty members of all vgroups collude. The
// moment any node first sends a copy of a broadcast, every one of them knows
// its digest and votes it, digest-only, to every member of every neighbor of
// its vgroup — long before its vgroup holds the broadcast — and its real
// copies never leave. A neighbor that took such votes for holders would skip
// the vgroup (forwardGossip). extra members per vgroup beyond the f join in
// the early votes and are correct otherwise: the run that shows f is the edge.
type voteSpoofer struct {
	gossipWithholder
	extra   int
	nodes   map[ids.NodeID]spoofNode
	known   map[crypto.Digest]bool
	spoofed int // votes sent
}

// spoofNode is a node and what it sends on, unwrapped.
type spoofNode struct {
	*Node
	env actor.Env
}

func (s *voteSpoofer) wrapEnv(n *Node, env actor.Env) actor.Env {
	s.nodes[n.cfg.Identity.ID] = spoofNode{n, env}
	return sendHook{Env: s.gossipWithholder.wrapEnv(n, env), hook: func(msg actor.Message) actor.Message {
		for _, m := range gossipCopies(s.t, msg) {
			if !s.known[m.PayloadDigest] {
				s.known[m.PayloadDigest] = true
				s.spoof(m.PayloadDigest)
			}
		}
		return msg
	}}
}

func (s *voteSpoofer) spoof(digest crypto.Digest) {
	for _, id := range slices.Sorted(maps.Keys(s.nodes)) {
		st := s.nodes[id].st
		if st == nil || st.comp.Index(id) >= s.mode.F(st.comp.N())+s.extra {
			continue
		}
		var voted []group.Key
		for c := 0; c < st.nbrs.NumCycles(); c++ {
			for _, dir := range [...]overlay.Direction{overlay.Pred, overlay.Succ} {
				nbr := st.nbrs.At(overlay.Link{Cycle: c, Dir: dir})
				if nbr.GroupID == st.comp.GroupID || slices.Contains(voted, nbr.Key()) {
					continue
				}
				voted = append(voted, nbr.Key())
				for _, m := range nbr.Members {
					s.spoofed++
					s.nodes[id].env.Send(m.ID, group.GroupMsg{SrcGroup: st.comp.GroupID, SrcEpoch: st.comp.Epoch,
						DstGroup: nbr.GroupID, DstEpoch: nbr.Epoch, Kind: kindGossip, MsgID: digest, PayloadDigest: digest})
				}
			}
		}
	}
}

// TestGossipSurvivesVoteSpoofing: a vgroup is skipped on f+1 of its members'
// votes because one of any f+1 is correct and holds the broadcast, and a
// member's relayed payload on one vote from its vgroup. With f colluding
// spoofers in every vgroup, in both fault models, every node still delivers
// every broadcast exactly once. When one more member per vgroup casts the
// early votes — nothing else about it is faulty — the votes alone reach the
// threshold and vgroups are skipped that hold nothing: the repair paths must
// then run (on this seed sync delivers everywhere through pulls, and async
// loses broadcasts at some nodes even so), which shows the first run had the
// rule under attack at its edge. The fault-free run of each mode is the
// baseline the spoofed runs report their p99 delivery latency against.
func TestGossipSurvivesVoteSpoofing(t *testing.T) {
	p99 := map[smr.Mode]time.Duration{}
	for _, tc := range []struct {
		mode  smr.Mode
		extra int
		clean bool
	}{
		{smr.ModeAsync, 0, true}, {smr.ModeAsync, 0, false}, {smr.ModeAsync, 1, false},
		{smr.ModeSync, 0, true}, {smr.ModeSync, 0, false}, {smr.ModeSync, 1, false},
	} {
		name := fmt.Sprintf("%v/f+%d", tc.mode, tc.extra)
		if tc.clean {
			name = fmt.Sprintf("%v/fault-free", tc.mode)
		}
		t.Run(name, func(t *testing.T) {
			const bcasts = 10
			fault := &voteSpoofer{
				gossipWithholder: gossipWithholder{t: t, mode: tc.mode, silent: true},
				extra:            tc.extra, nodes: map[ids.NodeID]spoofNode{}, known: map[crypto.Digest]bool{},
			}
			wrap := fault.wrapEnv
			if tc.clean {
				wrap = nil
			}
			h, nodes := gossipFaultRig(t, tc.mode, wrap)
			var want []string
			sentAt := map[string]time.Duration{}
			for i := 0; i < bcasts; i++ {
				want = append(want, fmt.Sprintf("spoofed-%d", i))
				sentAt[want[i]] = h.net.Now()
				if err := nodes[(7*i)%len(nodes)].BroadcastWith([]byte(want[i]), BroadcastOpts{}); err != nil {
					t.Fatal(err)
				}
				h.net.Run(h.net.Now() + 2*time.Second)
			}
			h.net.Run(h.net.Now() + 30*time.Second)
			if !tc.clean && (fault.spoofed == 0 || fault.withheld == 0) {
				t.Fatalf("%d votes spoofed, %d copies withheld: the fault was never exercised", fault.spoofed, fault.withheld)
			}
			slices.Sort(want)
			short := 0
			var lat []time.Duration
			for _, n := range nodes {
				id := n.cfg.Identity.ID
				if got := slices.Sorted(slices.Values(h.delivered[id])); !slices.Equal(got, want) {
					short++
					if tc.extra == 0 {
						t.Errorf("node %v delivered %d broadcasts, want each of the %d exactly once", id, len(got), bcasts)
					}
				}
				for data, at := range h.deliverAt[id] {
					lat = append(lat, at-sentAt[data])
				}
			}
			slices.Sort(lat)
			q := lat[len(lat)*99/100]
			pulls, caught := h.sum(func(s Stats) uint64 { return s.PullsSent }), h.sum(func(s Stats) uint64 { return s.CaughtUp })
			if tc.clean {
				p99[tc.mode] = q
				if pulls+caught != 0 {
					t.Errorf("%d pulls and %d catch-ups without a fault, want none", pulls, caught)
				}
			}
			t.Logf("p99 delivery %v (fault-free %v), %d nodes short, %d payloads pulled, %d broadcasts caught up", q, p99[tc.mode], short, pulls, caught)
			if tc.extra > 0 && pulls+caught == 0 {
				t.Errorf("nothing was pulled although f+%d members of every vgroup voted early: the rule was not under attack", tc.extra)
			}
		})
	}
}

// TestCatchUpSurvivesShareFlood: node 99, a member of nothing, sends a member
// maxSnapShares digest-only snapshot shares of distinct digests stamped with
// its vgroup and a far-future epoch, then as many stamped with its current
// epoch. When any share could open a catch-up tally, the flood held the whole
// table and two valid shares from members 2 and 3 of its three-member vgroup
// (f+1) no longer installed epoch 4. Now a current-epoch share from a
// non-member opens nothing and one sender opens at most maxSnapSharesPerSender
// tallies, so the catch-up goes through.
func TestCatchUpSurvivesShareFlood(t *testing.T) {
	comp := testComp(7, 3, 1, 2, 3)
	succ := testComp(7, 4, 1, 2, 3, 10)
	payload := encodePayload(snapshotPayload{State: newGroupState(succ, overlay.NewNeighbors(2, succ)).buildSnapshot()})
	share := group.GroupMsg{SrcGroup: 7, SrcEpoch: 3, Kind: kindSnapshot, MsgID: snapMsgID(comp, 1),
		PayloadDigest: crypto.Hash(payload), Payload: payload}
	for _, flood := range []bool{false, true} {
		n, _ := memberNode(t, 1, comp, testComp(9, 1, 4, 5, 6))
		if flood {
			for _, epoch := range []uint64{1 << 40, 3} {
				for i := 0; i < maxSnapShares; i++ {
					n.Receive(99, group.GroupMsg{SrcGroup: 7, SrcEpoch: epoch, Kind: kindSnapshot, MsgID: share.MsgID,
						PayloadDigest: crypto.HashUint64(crypto.Digest{}, uint64(i))})
				}
				if epoch == 3 && len(n.snaps) != maxSnapSharesPerSender {
					t.Fatalf("the flood holds %d tallies, want the %d future-epoch ones it was charged for",
						len(n.snaps), maxSnapSharesPerSender)
				}
			}
		}
		n.Receive(2, share)
		digestOnly := share
		digestOnly.Payload = nil
		n.Receive(3, digestOnly)
		if n.st.comp.Epoch != 4 {
			t.Fatalf("flood %v: still at epoch %d after f+1 members attested epoch 4", flood, n.st.comp.Epoch)
		}
	}
}

// TestCatchUpAfterManyOwnCommits: a member's tallies for epochs it then
// applied itself were freed only at its next install. A seven-member async
// node that kept up through maxSnapShares reconfigurations, each after one
// peer's share of the epoch it was closing (four peers taking turns), held a
// full table of stale tallies, and the successor state f+1 peers then attested
// opened no tally: the node stayed an epoch behind. Its own reconfiguration
// now frees them.
func TestCatchUpAfterManyOwnCommits(t *testing.T) {
	n, _ := memberNode(t, 1, testComp(7, 3, 1, 2, 3, 4, 5, 6, 7), testComp(9, 1, 11, 12, 13), func(cfg *Config) {
		cfg.Mode = smr.ModeAsync
		cfg.Params.GMax = 12
	})
	share := func(cur group.Composition, payload []byte, digest crypto.Digest) group.GroupMsg {
		return group.GroupMsg{SrcGroup: cur.GroupID, SrcEpoch: cur.Epoch, Kind: kindSnapshot, MsgID: snapMsgID(cur, 1),
			PayloadDigest: digest, Payload: payload}
	}
	for i := 0; i < maxSnapShares; i++ {
		cur := n.st.comp
		n.Receive(ids.NodeID(2+i%4), share(cur, nil, crypto.HashUint64(crypto.Digest{}, uint64(i))))
		n.reconfigure(slices.Clone(cur.Members), causeExchange)
	}
	cur := n.st.comp
	succ := group.Composition{GroupID: cur.GroupID, Epoch: cur.Epoch + 1, Members: cur.Members}
	payload := encodePayload(snapshotPayload{State: newGroupState(succ, overlay.NewNeighbors(2, succ)).buildSnapshot()})
	for _, from := range []ids.NodeID{6, 7, 2} {
		n.Receive(from, share(cur, payload, crypto.Hash(payload)))
	}
	if n.st.comp.Epoch != succ.Epoch {
		t.Fatalf("after %d own reconfigurations, still at epoch %d with %d tallies held, want epoch %d attested by f+1 peers",
			maxSnapShares, n.st.comp.Epoch, len(n.snaps), succ.Epoch)
	}
}

// TestSnapshotSurvivesForeignShareFlood: shares a non-member floods under a
// composition the node knows open no tally, and one sender's floods under
// unknown ones are charged to it. A joiner expecting vgroup 20 is flooded by
// four non-members under 20's known epoch and by one under a far-future epoch;
// a member is flooded under its neighbour vgroup's known epoch and under a
// vgroup it does not expect. Each still adopts its real snapshot, and the
// joiner's adoption leaves nothing in the inbox.
func TestSnapshotSurvivesForeignShareFlood(t *testing.T) {
	flood := func(n *Node, from ids.NodeID, gid ids.GroupID, epoch uint64) {
		for i := 0; i < maxSnapShares; i++ {
			n.Receive(from, group.GroupMsg{SrcGroup: gid, SrcEpoch: epoch, Kind: kindSnapshot,
				PayloadDigest: crypto.HashUint64(crypto.Digest{}, uint64(i))})
		}
	}
	snapshot := func(c group.Composition) []byte {
		return encodePayload(snapshotPayload{State: newGroupState(c, overlay.NewNeighbors(2, c)).buildSnapshot()})
	}
	share := func(attest group.Composition, payload []byte) group.GroupMsg {
		return group.GroupMsg{SrcGroup: attest.GroupID, SrcEpoch: attest.Epoch, Kind: kindSnapshot,
			MsgID: snapMsgID(attest, 1), PayloadDigest: crypto.Hash(payload), Payload: payload}
	}

	t.Run("joiner", func(t *testing.T) {
		n, _ := memberNode(t, 1, testComp(7, 3, 1, 2, 3), testComp(9, 1, 4, 5, 6))
		n.st, n.phase = nil, phaseJoining
		target := testComp(20, 5, 21, 22, 23)
		n.expectSnapshotFrom(target)
		for from := ids.NodeID(96); from <= 99; from++ {
			flood(n, from, target.GroupID, target.Epoch)
		}
		flood(n, 99, target.GroupID, 1<<40)
		if len(n.snaps) != maxSnapSharesPerSender {
			t.Fatalf("the floods hold %d tallies, want the %d far-future ones node 99 was charged for", len(n.snaps), maxSnapSharesPerSender)
		}
		payload := snapshot(testComp(20, 6, 1, 21, 22, 23))
		n.Receive(21, share(target, payload))
		n.Receive(22, share(target, payload))
		if !n.IsMember() || n.st.comp.Key() != (group.Key{GroupID: 20, Epoch: 6}) {
			t.Fatalf("phase %v after a majority of 20/5 attested 20/6, want a member of 20/6", n.phase)
		}
		if n.inbox.Len() != 0 {
			t.Fatalf("adoption left %d inbox entries, want none: a snapshot never enters the inbox", n.inbox.Len())
		}
	})

	t.Run("member", func(t *testing.T) {
		comp := testComp(7, 3, 1, 2, 3)
		n, _ := memberNode(t, 1, comp, testComp(9, 1, 4, 5, 6))
		flood(n, 99, 9, 1)
		flood(n, 99, 50, 1)
		if len(n.snaps) != maxSnapSharesPerSender {
			t.Fatalf("the floods hold %d tallies, want the %d for vgroup 50 node 99 was charged for", len(n.snaps), maxSnapSharesPerSender)
		}
		payload := snapshot(testComp(7, 4, 1, 2, 3, 10))
		n.Receive(2, share(comp, payload))
		n.Receive(3, share(comp, payload))
		if n.st.comp.Epoch != 4 || len(n.snaps) != 0 {
			t.Fatalf("at epoch %d with %d tallies after f+1 members attested epoch 4, want epoch 4 and none", n.st.comp.Epoch, len(n.snaps))
		}
	})
}
