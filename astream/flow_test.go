package astream

// Tests for tier-2 pacing: pushData sheds toward pressured destinations
// instead of flooding blindly.

import (
	"testing"
	"time"

	"atum"
)

// TestPushDataShedsUnderPressure: a destination at Critical receives no
// data pushes, a destination at High receives verified but not speculative
// pushes, and recovery (Low) restores the flood; sheds are counted.
func TestPushDataShedsUnderPressure(t *testing.T) {
	cluster := atum.NewSimCluster(atum.SimOptions{Seed: 41})
	var nodes []*atum.Node
	var svcs []*Service
	for i := 0; i < 4; i++ {
		s := New(Options{})
		n := cluster.AddNodeWith(s.Callbacks(),
			func(cfg *atum.Config) { cfg.OnRawMessage = s.HandleRaw })
		s.Bind(n)
		nodes = append(nodes, n)
		svcs = append(svcs, s)
	}
	svc := svcs[0]
	cb := svc.Callbacks()
	cluster.Run(10 * time.Millisecond)
	if err := nodes[0].Bootstrap(); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes[1:] {
		if err := n.Join(nodes[0].Identity()); err != nil {
			t.Fatal(err)
		}
		if !cluster.RunUntil(n.IsMember, time.Minute) {
			t.Fatal("join timed out")
		}
	}
	peer := nodes[1].Identity().ID

	countSends := func(fn func()) int64 {
		before := cluster.Net.Stats().SentByType["group.GroupMsg"]
		beforeRaw := cluster.Net.Stats().Sent
		fn()
		cluster.Run(time.Second)
		_ = beforeRaw
		return cluster.Net.Stats().SentByType["group.GroupMsg"] - before
	}

	// Baseline: an un-pressured publish pushes to every peer.
	base := countSends(func() {
		if err := svc.Publish(1, []byte("chunk-1")); err != nil {
			t.Fatal(err)
		}
	})
	if base == 0 {
		t.Fatal("baseline publish produced no tier-2 sends")
	}

	// pushData is synchronous, so shed deltas are read immediately around
	// each call (peers echoing chunks back can add speculative-forward sheds
	// later, once the cluster runs — that noise must not count here).

	// Drive the pressure hook directly (the engine fires it the same way).
	cb.OnEgressPressure(peer, atum.PressureCritical)
	shed0 := svc.Shed()
	if err := svc.Publish(2, []byte("chunk-2")); err != nil {
		t.Fatal(err)
	}
	if svc.Shed() != shed0+1 {
		t.Fatalf("Critical destination: sheds %d -> %d, want one shed (the pressured peer)", shed0, svc.Shed())
	}
	cluster.Run(time.Second)

	// High: verified (publish) pushes still flow to that peer...
	cb.OnEgressPressure(peer, atum.PressureHigh)
	shed1 := svc.Shed()
	if err := svc.Publish(3, []byte("chunk-3")); err != nil {
		t.Fatal(err)
	}
	if svc.Shed() != shed1 {
		t.Fatalf("High destination shed a verified publish (sheds %d -> %d)", shed1, svc.Shed())
	}
	// ...but speculative candidate forwards to it are shed.
	shed1 = svc.Shed()
	svc.pushData(dataMsg{Seq: 4, Data: []byte("spec")}, true)
	if svc.Shed() != shed1+1 {
		t.Fatalf("High destination did not shed a speculative push (sheds %d -> %d)", shed1, svc.Shed())
	}
	cluster.Run(time.Second)

	// Recovery: Low clears the entry and the flood resumes in full.
	cb.OnEgressPressure(peer, atum.PressureLow)
	if len(svc.pressure) != 0 {
		t.Fatalf("Low transition left pressure entries: %v", svc.pressure)
	}
	shed2 := svc.Shed()
	if err := svc.Publish(5, []byte("chunk-5")); err != nil {
		t.Fatal(err)
	}
	if svc.Shed() != shed2 {
		t.Fatalf("recovered destination still shed (sheds %d -> %d)", shed2, svc.Shed())
	}
}

// TestPushDataReachesEveryNeighborVgroup: one pushData hands the chunk to at
// least f+1 members of every neighbor vgroup on the publisher's overlay links
// — the §4.3 forest's "one correct parent per group". Only the publisher runs
// a Service, so no receiver re-pushes and every recorded copy is its own.
func TestPushDataReachesEveryNeighborVgroup(t *testing.T) {
	cluster := atum.NewSimCluster(atum.SimOptions{Seed: 43, Tweak: func(cfg *atum.Config) {
		cfg.DisableShuffle = true // freeze membership once grown
		cfg.EvictAfter = time.Hour
	}})
	svc := New(Options{})
	pub := cluster.AddNodeWith(svc.Callbacks(), nil)
	svc.Bind(pub)
	pubID := pub.Identity().ID
	reached := make(map[atum.NodeID]bool)
	nodes := []*atum.Node{pub}
	for i := 1; i < 32; i++ {
		var self atum.NodeID
		n := cluster.AddNodeWith(atum.Callbacks{}, func(cfg *atum.Config) {
			self = cfg.Identity.ID
			cfg.OnRawMessage = func(from atum.NodeID, msg any) {
				if _, ok := msg.(dataMsg); ok && from == pubID {
					reached[self] = true
				}
			}
		})
		nodes = append(nodes, n)
	}
	cluster.Run(10 * time.Millisecond)
	if err := pub.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes[1:] {
		if err := n.Join(pub.Identity()); err != nil {
			t.Fatal(err)
		}
		if !cluster.RunUntil(n.IsMember, time.Minute) {
			t.Fatal("join timed out")
		}
	}
	cluster.Run(5 * time.Second)

	svc.pushData(dataMsg{Seq: 3, Data: []byte("chunk")}, false)
	cluster.Run(time.Second)

	inner := pub.Inner()
	own := inner.Comp().GroupID
	nbrs := inner.Neighbors()
	distinct := make(map[atum.GroupID]bool)
	for c := 0; c < nbrs.NumCycles(); c++ {
		for _, nbr := range []atum.GroupComposition{nbrs.Preds[c], nbrs.Succs[c]} {
			if nbr.GroupID == 0 || nbr.GroupID == own {
				continue
			}
			distinct[nbr.GroupID] = true
			got := 0
			for _, m := range nbr.Members {
				if reached[m.ID] {
					got++
				}
			}
			if want := min(inner.FaultBound(len(nbr.Members))+1, len(nbr.Members)); got < want {
				t.Errorf("cycle %d: neighbor vgroup %v got the chunk at %d of %d members, want >= f+1 = %d",
					c, nbr.GroupID, got, len(nbr.Members), want)
			}
		}
	}
	if len(distinct) < 2 {
		t.Fatalf("publisher has %d distinct neighbor vgroups; the scenario needs several", len(distinct))
	}
	if svc.Shed() != 0 {
		t.Errorf("%d pushes shed on an idle system", svc.Shed())
	}
}
