package atum_test

// Acceptance test for the flow-controlled send surface (PR 5): under a
// slow-consumer raw flood, pacing off the egress pressure signals keeps
// broadcast delivery intact and moves the losses from the transport (where
// they drown gossip carriers) to the senders (application-chosen shedding).

import (
	"testing"

	"atum/internal/experiment"
)

func TestBackpressureMovesDropsToApplication(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	const n, publishers, rounds, seed = 48, 8, 8, 1

	blind, err := experiment.BackpressureRun(n, publishers, rounds, false, seed)
	if err != nil {
		t.Fatalf("blind run: %v", err)
	}
	paced, err := experiment.BackpressureRun(n, publishers, rounds, true, seed)
	if err != nil {
		t.Fatalf("paced run: %v", err)
	}

	// The blind flood must actually overload the slow consumer: transport
	// drops, including protocol carriers, and lost broadcasts at that node.
	if blind.TransportDrops == 0 {
		t.Fatal("blind flood caused no transport overload drops; the scenario is not stressing the slow consumer")
	}
	if blind.SlowDelivered > 0.9 {
		t.Fatalf("blind flood: slow consumer still delivered %.2f of broadcasts; overload too weak", blind.SlowDelivered)
	}

	// With pacing: full delivery at the slow consumer, and the raw-flood
	// losses move from transport-level drops to sender-side shedding.
	if paced.SlowDelivered != 1.0 {
		t.Fatalf("paced: slow consumer delivered %.2f of broadcasts, want 1.00", paced.SlowDelivered)
	}
	if paced.Delivered != 1.0 {
		t.Fatalf("paced: overall delivery %.2f, want 1.00", paced.Delivered)
	}
	if paced.TransportDrops*10 > blind.TransportDrops {
		t.Fatalf("paced transport drops %d not an order of magnitude under blind's %d",
			paced.TransportDrops, blind.TransportDrops)
	}
	shed := paced.AppSheds + paced.EgressDropsOverflow
	if shed == 0 {
		t.Fatal("paced run shed nothing at the application; the pressure signal never engaged")
	}

	// Flow control must actually bound the egress queues.
	if paced.QueueLimit <= 0 {
		t.Fatal("paced run reported no queue limit")
	}
	if paced.MaxDepth > paced.QueueLimit {
		t.Fatalf("paced egress depth %d exceeded NodeQueueLimit %d", paced.MaxDepth, paced.QueueLimit)
	}
}
