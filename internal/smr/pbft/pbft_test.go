package pbft

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"atum/internal/actor"
	"atum/internal/crypto"
	"atum/internal/ids"
	"atum/internal/simnet"
	"atum/internal/smr"
)

// replicaNode adapts a Replica to the actor runtime for tests; the core
// engine does the same wiring in production.
type replicaNode struct {
	mk  func(env actor.Env) *Replica
	rep *Replica
}

func (n *replicaNode) Start(env actor.Env)                      { n.rep = n.mk(env) }
func (n *replicaNode) Receive(from ids.NodeID, m actor.Message) { n.rep.Receive(from, m) }
func (n *replicaNode) Timer(_ actor.TimerID, data any)          { n.rep.HandleTimer(data) }
func (n *replicaNode) Stop()                                    { n.rep.Stop() }

type fixture struct {
	net       *simnet.Network
	members   []ids.Identity
	nodes     map[ids.NodeID]*replicaNode
	committed map[ids.NodeID][]smr.Operation
}

func newFixture(t *testing.T, n int, timeout time.Duration) *fixture {
	t.Helper()
	scheme := crypto.SimScheme{}
	f := &fixture{
		net: simnet.New(simnet.Config{
			Seed:    int64(n) * 31,
			Latency: simnet.UniformLatency(time.Millisecond, 10*time.Millisecond),
		}),
		nodes:     make(map[ids.NodeID]*replicaNode),
		committed: make(map[ids.NodeID][]smr.Operation),
	}
	signers := make(map[ids.NodeID]crypto.Signer)
	for i := 1; i <= n; i++ {
		id := ids.NodeID(i)
		signers[id] = scheme.NewSigner([]byte(fmt.Sprintf("pbft-%d", i)))
		f.members = append(f.members, ids.Identity{ID: id, PubKey: signers[id].Public()})
	}
	ids.SortIdentities(f.members)
	for i := 1; i <= n; i++ {
		id := ids.NodeID(i)
		node := &replicaNode{mk: func(env actor.Env) *Replica {
			cfg := smr.Config{
				GroupID: 1, Epoch: 1,
				Members: f.members,
				Self:    id,
				Scheme:  scheme,
				Signer:  signers[id],
				Send:    env.Send,
				SetTimer: func(d time.Duration, data any) {
					env.SetTimer(d, data)
				},
				Commit: func(op smr.Operation) {
					f.committed[id] = append(f.committed[id], op)
				},
			}
			return New(cfg, Options{RequestTimeout: timeout})
		}}
		f.nodes[id] = node
		f.net.Add(id, node)
	}
	f.net.Run(0) // start everyone
	return f
}

func (f *fixture) checkAgreement(t *testing.T, liveOnly map[ids.NodeID]bool) []smr.Operation {
	t.Helper()
	var ref []smr.Operation
	var refID ids.NodeID
	for _, m := range f.members {
		if liveOnly != nil && !liveOnly[m.ID] {
			continue
		}
		seq := f.committed[m.ID]
		if ref == nil {
			ref, refID = seq, m.ID
			continue
		}
		if !reflect.DeepEqual(ref, seq) {
			t.Fatalf("divergence: %v committed %v, %v committed %v", refID, ref, m.ID, seq)
		}
	}
	return ref
}

func op(p ids.NodeID, id uint64, data string) smr.Operation {
	return smr.Operation{Proposer: p, OpID: id, Data: []byte(data)}
}

func TestNormalCaseCommit(t *testing.T) {
	f := newFixture(t, 4, time.Second)
	f.nodes[2].rep.Propose(op(2, 1, "hello"))
	f.net.Run(2 * time.Second)
	got := f.checkAgreement(t, nil)
	if len(got) != 1 || string(got[0].Data) != "hello" {
		t.Fatalf("committed = %v, want [hello]", got)
	}
	if v := f.nodes[1].rep.view; v != 0 {
		t.Errorf("view = %d, want 0 (no view change in failure-free run)", v)
	}
}

func TestManyProposersTotalOrder(t *testing.T) {
	f := newFixture(t, 7, time.Second)
	total := 0
	for i := 1; i <= 7; i++ {
		for j := 1; j <= 5; j++ {
			total++
			f.nodes[ids.NodeID(i)].rep.Propose(op(ids.NodeID(i), uint64(j), fmt.Sprintf("%d-%d", i, j)))
		}
	}
	f.net.Run(5 * time.Second)
	got := f.checkAgreement(t, nil)
	if len(got) != total {
		t.Fatalf("committed %d ops, want %d", len(got), total)
	}
}

func TestDedupSameOp(t *testing.T) {
	f := newFixture(t, 4, time.Second)
	f.nodes[1].rep.Propose(op(1, 7, "once"))
	f.nodes[1].rep.Propose(op(1, 7, "once"))
	f.net.Run(2 * time.Second)
	got := f.checkAgreement(t, nil)
	if len(got) != 1 {
		t.Fatalf("committed %d copies, want 1", len(got))
	}
}

func TestBackupCrashStillCommits(t *testing.T) {
	f := newFixture(t, 4, time.Second)
	f.net.Crash(3) // a backup; f=1 tolerated
	f.nodes[1].rep.Propose(op(1, 1, "x"))
	f.net.Run(3 * time.Second)
	live := map[ids.NodeID]bool{1: true, 2: true, 4: true}
	got := f.checkAgreement(t, live)
	if len(got) != 1 {
		t.Fatalf("committed = %v, want 1 op", got)
	}
}

func TestPrimaryCrashTriggersViewChange(t *testing.T) {
	f := newFixture(t, 4, 300*time.Millisecond)
	f.net.Crash(1) // primary of view 0
	f.nodes[2].rep.Propose(op(2, 1, "survive"))
	f.net.Run(5 * time.Second)
	live := map[ids.NodeID]bool{2: true, 3: true, 4: true}
	got := f.checkAgreement(t, live)
	if len(got) != 1 || string(got[0].Data) != "survive" {
		t.Fatalf("committed = %v, want [survive]", got)
	}
	if v := f.nodes[2].rep.view; v == 0 {
		t.Error("view change did not happen")
	}
}

func TestSuccessivePrimaryCrashes(t *testing.T) {
	f := newFixture(t, 7, 300*time.Millisecond) // f=2
	f.net.Crash(1)
	f.net.Crash(2)
	f.nodes[5].rep.Propose(op(5, 1, "deep"))
	f.net.Run(10 * time.Second)
	live := map[ids.NodeID]bool{3: true, 4: true, 5: true, 6: true, 7: true}
	got := f.checkAgreement(t, live)
	if len(got) != 1 || string(got[0].Data) != "deep" {
		t.Fatalf("committed = %v, want [deep]", got)
	}
	if v := f.nodes[5].rep.view; v < 2 {
		t.Errorf("view = %d, want >= 2 after two primary crashes", v)
	}
}

func TestOpsProposedBeforeViewChangeSurvive(t *testing.T) {
	f := newFixture(t, 4, 300*time.Millisecond)
	// Propose, let it commit, then crash the primary and propose again.
	f.nodes[2].rep.Propose(op(2, 1, "a"))
	f.net.Run(time.Second)
	f.net.Crash(1)
	f.nodes[3].rep.Propose(op(3, 1, "b"))
	f.net.Run(6 * time.Second)
	live := map[ids.NodeID]bool{2: true, 3: true, 4: true}
	got := f.checkAgreement(t, live)
	if len(got) != 2 {
		t.Fatalf("committed %v, want [a b]", got)
	}
}

func TestCheckpointGarbageCollection(t *testing.T) {
	f := newFixture(t, 4, time.Second)
	for j := 1; j <= 3*checkpointInterval; j++ {
		f.nodes[1].rep.Propose(op(1, uint64(j), "op"))
	}
	f.net.Run(10 * time.Second)
	got := f.checkAgreement(t, nil)
	if len(got) != 3*checkpointInterval {
		t.Fatalf("committed %d, want %d", len(got), 3*checkpointInterval)
	}
	rep := f.nodes[2].rep
	if rep.stableSeq == 0 {
		t.Error("no stable checkpoint was formed")
	}
	if len(rep.entries) > 2*checkpointInterval {
		t.Errorf("log not garbage-collected: %d entries", len(rep.entries))
	}
}

// byzPrimary equivocates: for each request it assigns the same sequence
// number to different batches for different backups.
type byzPrimary struct {
	env     actor.Env
	members []ids.Identity
	seq     uint64
}

func (b *byzPrimary) Start(env actor.Env)      { b.env = env }
func (b *byzPrimary) Stop()                    {}
func (b *byzPrimary) Timer(actor.TimerID, any) {}
func (b *byzPrimary) Receive(_ ids.NodeID, raw actor.Message) {
	req, ok := raw.(Request)
	if !ok {
		return
	}
	b.seq++
	for i, m := range b.members {
		if m.ID == b.env.Self() {
			continue
		}
		batch := []smr.Operation{req.Op}
		if i%2 == 0 {
			batch = []smr.Operation{{Proposer: req.Op.Proposer, OpID: req.Op.OpID, Data: []byte("EVIL")}}
		}
		d := digestOfBatch(req.GroupID, req.Epoch, batch)
		b.env.Send(m.ID, PrePrepare{GroupID: req.GroupID, Epoch: req.Epoch,
			View: 0, Seq: b.seq, Digest: d, Batch: batch})
	}
}

func TestEquivocatingPrimarySafety(t *testing.T) {
	// Node 1 (primary of view 0) equivocates. Correct replicas must never
	// commit divergent sequences, and the op must eventually commit after a
	// view change.
	scheme := crypto.SimScheme{}
	net := simnet.New(simnet.Config{Seed: 99, Latency: simnet.UniformLatency(time.Millisecond, 5*time.Millisecond)})
	var members []ids.Identity
	signers := make(map[ids.NodeID]crypto.Signer)
	for i := 1; i <= 4; i++ {
		id := ids.NodeID(i)
		signers[id] = scheme.NewSigner([]byte(fmt.Sprintf("eq-%d", i)))
		members = append(members, ids.Identity{ID: id, PubKey: signers[id].Public()})
	}
	ids.SortIdentities(members)

	committed := make(map[ids.NodeID][]smr.Operation)
	nodes := make(map[ids.NodeID]*replicaNode)
	for i := 2; i <= 4; i++ {
		id := ids.NodeID(i)
		node := &replicaNode{mk: func(env actor.Env) *Replica {
			cfg := smr.Config{
				GroupID: 1, Epoch: 1, Members: members, Self: id,
				Scheme: scheme, Signer: signers[id],
				Send:     env.Send,
				SetTimer: func(d time.Duration, data any) { env.SetTimer(d, data) },
				Commit: func(op smr.Operation) {
					committed[id] = append(committed[id], op)
				},
			}
			return New(cfg, Options{RequestTimeout: 300 * time.Millisecond})
		}}
		nodes[id] = node
		net.Add(id, node)
	}
	net.Add(1, &byzPrimary{members: members})
	net.Run(0)

	nodes[2].rep.Propose(op(2, 1, "good"))
	net.Run(8 * time.Second)

	// Safety: committed prefixes must agree pairwise.
	for i := 2; i <= 4; i++ {
		for j := i + 1; j <= 4; j++ {
			a, b := committed[ids.NodeID(i)], committed[ids.NodeID(j)]
			n := len(a)
			if len(b) < n {
				n = len(b)
			}
			if !reflect.DeepEqual(a[:n], b[:n]) {
				t.Fatalf("safety violation: %v vs %v", a, b)
			}
		}
	}
	// Liveness: op commits after view change; the EVIL payload must never
	// have been executed for (2,1) — whichever batch won, its payload must
	// be consistent across replicas (checked above) and present.
	found := false
	for _, ops := range committed {
		for _, o := range ops {
			if o.Proposer == 2 && o.OpID == 1 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("op never committed despite correct quorum")
	}
	if v := nodes[2].rep.view; v == 0 {
		t.Error("expected a view change away from the equivocating primary")
	}
}

func TestNullRequestsFillGaps(t *testing.T) {
	// computeNewViewPrePrepares must fill sequence gaps with null batches.
	d1 := digestOfBatch(1, 1, []smr.Operation{op(9, 1, "x")})
	vcs := []ViewChange{
		{NewView: 1, StableSeq: 0, Prepared: []PreparedEntry{
			{Seq: 3, View: 0, Digest: d1, Batch: []smr.Operation{op(9, 1, "x")}},
		}},
	}
	pps := computeNewViewPrePrepares(1, 1, 1, vcs)
	if len(pps) != 3 {
		t.Fatalf("got %d pre-prepares, want 3 (seqs 1..3)", len(pps))
	}
	if len(pps[0].Batch) != 0 || len(pps[1].Batch) != 0 {
		t.Error("gap seqs should carry null batches")
	}
	if pps[2].Digest != d1 {
		t.Error("prepared entry not re-proposed")
	}
}

func TestHighestViewWinsInNewView(t *testing.T) {
	bA := []smr.Operation{op(1, 1, "A")}
	bB := []smr.Operation{op(1, 1, "B")}
	vcs := []ViewChange{
		{NewView: 3, Prepared: []PreparedEntry{{Seq: 1, View: 0, Digest: digestOfBatch(1, 1, bA), Batch: bA}}},
		{NewView: 3, Prepared: []PreparedEntry{{Seq: 1, View: 2, Digest: digestOfBatch(1, 1, bB), Batch: bB}}},
	}
	pps := computeNewViewPrePrepares(1, 1, 3, vcs)
	if len(pps) != 1 {
		t.Fatalf("got %d pre-prepares, want 1", len(pps))
	}
	if string(pps[0].Batch[0].Data) != "B" {
		t.Error("the higher-view prepared batch must win")
	}
}

// TestRequestCarriesOnlyItsSendersOp: replica 2 proposes ops that name
// replicas 1 and 3 as their proposers next to one of its own. A member
// requests its own ops only, so only replica 2's own op commits, everywhere.
func TestRequestCarriesOnlyItsSendersOp(t *testing.T) {
	f := newFixture(t, 4, time.Second)
	f.nodes[2].rep.Propose(op(1, 9, "in 1's name"))
	f.nodes[2].rep.Propose(op(2, 1, "own"))
	f.nodes[2].rep.Propose(op(3, 9, "in 3's name"))
	f.net.Run(2 * time.Second)
	got := f.checkAgreement(t, nil)
	if len(got) != 1 || got[0].Proposer != 2 || string(got[0].Data) != "own" {
		t.Fatalf("committed %v, want only replica 2's own op", got)
	}
}

func TestNonMemberIgnored(t *testing.T) {
	f := newFixture(t, 4, time.Second)
	rep := f.nodes[2].rep
	rep.Receive(99, Request{GroupID: 1, Epoch: 1, Op: op(99, 1, "intruder")})
	f.net.Run(2 * time.Second)
	if len(f.committed[2]) != 0 {
		t.Fatalf("non-member request committed: %v", f.committed[2])
	}
}

// TestDerivedDigestsGolden pins the checkpoint state digest, now derived
// through crypto.Derive, to the bytes its hand-rolled hash chain produced.
func TestDerivedDigestsGolden(t *testing.T) {
	r := &Replica{cfg: smr.Config{GroupID: 7, Epoch: 3}}
	if got, want := fmt.Sprintf("%x", r.stateDigest(42)), "1cfebfd94bfd8a6fa5e35460026535e000d0621a8891b02ff39b48b5bcf193e2"; got != want {
		t.Errorf("stateDigest(42) = %s, want %s", got, want)
	}
}
