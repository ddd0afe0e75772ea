package astream

// Tests for tier-2 pacing: pushData sheds toward pressured destinations
// instead of flooding blindly.

import (
	"testing"
	"time"

	"atum"
)

// TestPushDataShedsUnderPressure: under a real PriorityBulk flood toward one
// peer (NodeQueueLimit 1024: High at depth 512, Critical at 896), a
// destination at High receives verified but not speculative pushes, one at
// Critical receives no data pushes, and once the queue drains the flood
// resumes in full; sheds are counted.
func TestPushDataShedsUnderPressure(t *testing.T) {
	cluster := atum.NewSimCluster(atum.SimOptions{Seed: 41})
	var nodes []*atum.Node
	var svcs []*Service
	for i := 0; i < 4; i++ {
		s := New(Options{})
		n := cluster.AddNodeWith(s.Callbacks(), func(cfg *atum.Config) {
			cfg.OnRawMessage = s.HandleRaw
		})
		s.Bind(n)
		nodes = append(nodes, n)
		svcs = append(svcs, s)
	}
	svc, pub := svcs[0], nodes[0]
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
	peer := nodes[1].Identity().ID

	// Baseline: an un-pressured publish reaches the peer.
	if err := svc.Publish(1, []byte("chunk-1")); err != nil {
		t.Fatal(err)
	}
	cluster.Run(time.Second)
	if svc.Shed() != 0 || !svcs[1].delivered[1] {
		t.Fatalf("baseline publish: %d sheds, delivered at the peer %v", svc.Shed(), svcs[1].delivered[1])
	}

	// Everything below runs at one virtual instant, so the flood stays queued
	// and pushData's shed deltas are read around each call before any peer
	// can echo a chunk back. The flood's first item leaves at once (the
	// destination is idle) and so does its first full carrier; the rest
	// queue, so the flood runs to a depth read from Stats, not to a count.
	depth := func() int {
		for _, d := range pub.Stats().Egress.Dests {
			if d.Node == peer {
				return d.Depth
			}
		}
		return 0
	}
	floodTo := func(target int) {
		t.Helper()
		for i := 0; depth() < target; i++ {
			if i == 2*atum.NodeQueueLimit {
				t.Fatalf("%d sends left the queue at depth %d, short of %d", i, depth(), target)
			}
			if err := pub.SendRawWith(peer, dataMsg{Seq: 1000, Data: []byte{byte(i)}},
				atum.SendOpts{Priority: atum.PriorityBulk}); err != nil {
				t.Fatal(err)
			}
		}
	}
	high, critical := atum.NodeQueueLimit/2, atum.NodeQueueLimit-atum.NodeQueueLimit/8
	floodTo(high)
	if lvl := pub.EgressPressure(peer); lvl != atum.PressureHigh {
		t.Fatalf("flood to depth %d of %d: level %v, want high", depth(), atum.NodeQueueLimit, lvl)
	}
	// High: verified (publish) pushes still flow to that peer...
	shed := svc.Shed()
	if err := svc.Publish(3, []byte("chunk-3")); err != nil {
		t.Fatal(err)
	}
	if svc.Shed() != shed {
		t.Fatalf("High destination shed a verified publish (sheds %d -> %d)", shed, svc.Shed())
	}
	// ...but speculative candidate forwards to it are shed.
	svc.pushData(dataMsg{Seq: 4, Data: []byte("spec")}, true)
	if svc.Shed() != shed+1 {
		t.Fatalf("High destination did not shed a speculative push (sheds %d -> %d)", shed, svc.Shed())
	}

	floodTo(critical)
	if lvl := pub.EgressPressure(peer); lvl != atum.PressureCritical {
		t.Fatalf("flood to depth %d of %d: level %v, want critical", depth(), atum.NodeQueueLimit, lvl)
	}
	shed = svc.Shed()
	if err := svc.Publish(2, []byte("chunk-2")); err != nil {
		t.Fatal(err)
	}
	if svc.Shed() != shed+1 {
		t.Fatalf("Critical destination: sheds %d -> %d, want one shed (the pressured peer)", shed, svc.Shed())
	}

	// Recovery: the paced drain empties the queue, the level reads Low and the
	// flood resumes in full.
	cluster.Run(time.Second)
	if lvl := pub.EgressPressure(peer); lvl != atum.PressureLow {
		t.Fatalf("after the drain: level %v, want low", lvl)
	}
	shed = svc.Shed()
	if err := svc.Publish(5, []byte("chunk-5")); err != nil {
		t.Fatal(err)
	}
	if svc.Shed() != shed {
		t.Fatalf("recovered destination still shed (sheds %d -> %d)", shed, svc.Shed())
	}
}

// TestPushDataReachesEveryNeighborVgroup: one pushData hands the chunk to at
// least f+1 members of every neighbor vgroup on the publisher's overlay links
// — the §4.3 forest's "one correct parent per group". Only the publisher runs
// a Service, so no receiver re-pushes and every recorded copy is its own.
func TestPushDataReachesEveryNeighborVgroup(t *testing.T) {
	cluster := atum.NewSimCluster(atum.SimOptions{Seed: 43})
	freeze := func(cfg *atum.Config) { // freeze membership once grown
		cfg.DisableShuffle = true
		cfg.EvictAfter = time.Hour
	}
	svc := New(Options{})
	pub := cluster.AddNodeWith(svc.Callbacks(), freeze)
	svc.Bind(pub)
	pubID := pub.Identity().ID
	reached := make(map[atum.NodeID]bool)
	nodes := []*atum.Node{pub}
	for i := 1; i < 32; i++ {
		var self atum.NodeID
		n := cluster.AddNodeWith(atum.Callbacks{}, func(cfg *atum.Config) {
			freeze(cfg)
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
