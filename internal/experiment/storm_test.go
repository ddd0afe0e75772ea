package experiment

import "testing"

// TestStormTrafficCeilings pins the one send path in absolute terms: full
// delivery, every raw chunk through, and per-broadcast traffic under
// committed ceilings. The ceilings are the measured cost of the unified
// egress scheduler plus about 20% (storm, which does not replay: 234–250
// msgs, 127–130 link msgs, 159–170 KB per broadcast; steady: 104 msgs, 78
// link msgs, 62.4 KB). Every payload is incompressible filler, so the byte
// ceilings measure the protocol, not how well test data folds. Sending one
// message per logical send cost 452 msgs per broadcast on the steady scenario
// and 198 link msgs on the storm when only gossip was coalesced, so batching
// that silently stops working fails here.
func TestStormTrafficCeilings(t *testing.T) {
	cases := []struct {
		name                       string
		sc                         StormConfig
		maxMsgs, maxLink, maxBytes float64
	}{
		{
			name:    "churn storm and raw floods",
			sc:      StormConfig{N: 24, Publishers: 8, Rounds: 6, Seed: 1, Churn: true, RawFloods: true},
			maxMsgs: 290, maxLink: 155, maxBytes: 200_000,
		},
		{
			name:    "steady publishers",
			sc:      StormConfig{N: 24, Publishers: 8, Rounds: 3, Seed: 1},
			maxMsgs: 125, maxLink: 94, maxBytes: 75_000,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := StormRun(tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			if want := tc.sc.Publishers * tc.sc.Rounds; tr.Broadcasts != want {
				t.Fatalf("%d broadcasts accepted, want %d", tr.Broadcasts, want)
			}
			if tr.Delivered != 1 {
				t.Errorf("delivery on stable members %.3f, want 1", tr.Delivered)
			}
			if tc.sc.RawFloods && tr.RawSent == 0 {
				t.Error("raw floods on, no chunk sent")
			}
			if tr.RawDelivered != tr.RawSent {
				t.Errorf("raw chunks delivered %d of %d", tr.RawDelivered, tr.RawSent)
			}
			if tr.MsgsPerBcast > tc.maxMsgs {
				t.Errorf("msgs/bcast %.0f above ceiling %.0f", tr.MsgsPerBcast, tc.maxMsgs)
			}
			if tr.LinkMsgsPerBcast > tc.maxLink {
				t.Errorf("link msgs/bcast %.0f above ceiling %.0f", tr.LinkMsgsPerBcast, tc.maxLink)
			}
			if tr.BytesPerBcast > tc.maxBytes {
				t.Errorf("bytes/bcast %.0f above ceiling %.0f", tr.BytesPerBcast, tc.maxBytes)
			}
			t.Logf("msgs/bcast %.0f, link msgs/bcast %.0f, bytes/bcast %.0f, raw %d/%d",
				tr.MsgsPerBcast, tr.LinkMsgsPerBcast, tr.BytesPerBcast, tr.RawDelivered, tr.RawSent)
		})
	}
}

// TestTreeReducesLinkMessages pins the dissemination tree's bar at system
// level: under the churn storm with 8 publishers at N=60, the eager/lazy
// tree cuts per-link messages by at least 25% against the flood-everywhere
// gossip phase, at 100% delivery on stable members, and the
// duplicate-delivery count drops with them. (The headline bench bar is ≥35%
// — `atum-bench -exp tree`; the test bar keeps seed-variance margin.) The
// scale is deliberate: below ~8 vgroups the H-graph's cycle slots alias onto
// a handful of distinct neighbor groups and churn-control batches keep every
// link pair warm, so there is little redundant fan-out to prune.
func TestTreeReducesLinkMessages(t *testing.T) {
	flood, err := StormRun(TreeStorm(60, 8, 6, false, 1))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := StormRun(TreeStorm(60, 8, 6, true, 1))
	if err != nil {
		t.Fatal(err)
	}
	if flood.Delivered < 1 || tree.Delivered < 1 {
		t.Fatalf("delivery not 100%%: flood %.3f, tree %.3f", flood.Delivered, tree.Delivered)
	}
	if flood.LinkMsgsPerBcast <= 0 {
		t.Fatalf("degenerate baseline: %+v", flood)
	}
	reduction := 1 - tree.LinkMsgsPerBcast/flood.LinkMsgsPerBcast
	if reduction < 0.25 {
		t.Fatalf("per-link message reduction %.1f%% < 25%% (flood %.0f, tree %.0f)",
			100*reduction, flood.LinkMsgsPerBcast, tree.LinkMsgsPerBcast)
	}
	// The tree must actually suppress redundant deliveries, not just move
	// traffic around: duplicates per broadcast must drop too.
	if tree.DupsPerBcast >= flood.DupsPerBcast {
		t.Fatalf("duplicates did not drop: %.1f -> %.1f", flood.DupsPerBcast, tree.DupsPerBcast)
	}
	t.Logf("link msgs/bcast %.0f -> %.0f (%.1f%% reduction), dups/bcast %.1f -> %.1f, delivery %.2f/%.2f",
		flood.LinkMsgsPerBcast, tree.LinkMsgsPerBcast, 100*reduction,
		flood.DupsPerBcast, tree.DupsPerBcast, flood.Delivered, tree.Delivered)
}

// TestTreeRunReplays: two identically seeded tree-on runs must send the same
// messages and bytes: lazy announcements flushed in map order would reorder
// the simulator's latency draws from run to run. Churn is off: the
// leave+join-per-round storm does not replay with the tree off either.
func TestTreeRunReplays(t *testing.T) {
	sc := TreeStorm(60, 8, 6, true, 1)
	sc.Churn = false
	first, err := StormRun(sc)
	if err != nil {
		t.Fatal(err)
	}
	second, err := StormRun(sc)
	if err != nil {
		t.Fatal(err)
	}
	if first.Sent == 0 || first.Delivered != 1 {
		t.Fatalf("degenerate run: %+v", first)
	}
	if first.Sent != second.Sent || first.BytesSent != second.BytesSent {
		t.Fatalf("tree-on run does not replay: sent %d vs %d, bytes %d vs %d",
			first.Sent, second.Sent, first.BytesSent, second.BytesSent)
	}
}
