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
