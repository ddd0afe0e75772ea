package experiment

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"atum"
)

// TestExpChunkGoldenBytes pins the harness's raw frame, expChunk{Seq: 7,
// Data: "ab"} under extension tag 0xA0 (docs/WIRE.md).
func TestExpChunkGoldenBytes(t *testing.T) {
	msg := expChunk{Seq: 7, Data: []byte("ab")}
	want, _ := hex.DecodeString("00a001" + "0000000000000007" + "00000002" + "6162")
	codec := atum.WireMessageCodec()
	if got, ok := codec.EncodeMessage(msg); !ok || !bytes.Equal(got, want) {
		t.Errorf("expChunk encodes to %x, %v; want %x", got, ok, want)
	}
	if got, err := codec.DecodeMessage(want); err != nil || !reflect.DeepEqual(got, msg) {
		t.Errorf("golden frame decodes to %+v, %v", got, err)
	}
}

// TestStormTrafficCeilings pins the one send path in absolute terms: full
// delivery, every raw chunk through, and per-broadcast traffic under
// committed ceilings, set about 20% above the unified egress scheduler's
// cost when it landed (seed 1 today: storm 245 msgs and 144 KB per
// broadcast, steady 98 msgs and 36 KB). Every payload is incompressible
// filler, so the byte ceilings measure the protocol, not how well test data
// folds. The msgs ceiling catches batching that silently stops working:
// with GossipMaxBatch = 1 the two cases cost 565 and 345 msgs per broadcast
// against ceilings of 290 and 125. No ceiling sees the growth and churn
// kinds (walk hops, neighbour updates, exchanges) leaving the carriers: that
// mutation moves the storm 245 → 247 msgs per broadcast, and the overlay-link
// count this test used to bound moved 127 → 129, inside its ceiling too.
func TestStormTrafficCeilings(t *testing.T) {
	cases := []struct {
		name              string
		sc                StormConfig
		maxMsgs, maxBytes float64
	}{
		{
			name:    "churn storm and raw floods",
			sc:      StormConfig{N: 24, Publishers: 8, Rounds: 6, Seed: 1, Churn: true, RawFloods: true},
			maxMsgs: 290, maxBytes: 200_000,
		},
		{
			name:    "steady publishers",
			sc:      StormConfig{N: 24, Publishers: 8, Rounds: 3, Seed: 1},
			maxMsgs: 125, maxBytes: 75_000,
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
			if tr.BytesPerBcast > tc.maxBytes {
				t.Errorf("bytes/bcast %.0f above ceiling %.0f", tr.BytesPerBcast, tc.maxBytes)
			}
			t.Logf("msgs/bcast %.0f, bytes/bcast %.0f, raw %d/%d",
				tr.MsgsPerBcast, tr.BytesPerBcast, tr.RawDelivered, tr.RawSent)
		})
	}
}
