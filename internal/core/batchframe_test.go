package core

// Batch-frame system coverage: a cluster delivers off the carriers every
// node emits, and a carrier holding a frame of another version — a peer from
// before the current frame — is dropped whole rather than partly decoded.

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/smr"
)

// TestBatchFrameClusterDelivery runs concurrent broadcast bursts from two
// publishers (bursts make batches actually form) and requires every member
// to deliver every payload exactly once off the carriers.
func TestBatchFrameClusterDelivery(t *testing.T) {
	h := newHarness(t, smr.ModeSync, 23, func(cfg *Config) {
		cfg.DisableShuffle = true // freeze membership during dissemination
		cfg.EvictAfter = time.Hour
	})
	nodes := h.bootstrapSystem(smr.ModeSync, 12, 90*time.Second)
	h.net.Run(h.net.Now() + 10*time.Second)
	if len(h.groupsOf()) < 2 {
		t.Fatalf("expected multiple vgroups, got %d", len(h.groupsOf()))
	}

	pubA, pubB := nodes[0], nodes[1]
	var payloads []string
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			for pi, pub := range []*Node{pubA, pubB} {
				p := fmt.Sprintf("burst-%d-%d-%d", pi, round, i)
				if err := pub.BroadcastWith([]byte(p), BroadcastOpts{}); err != nil {
					t.Fatalf("broadcast %s: %v", p, err)
				}
				payloads = append(payloads, p)
			}
		}
		h.net.Run(h.net.Now() + 200*time.Millisecond)
	}
	h.net.Run(h.net.Now() + 30*time.Second)

	members := 0
	for _, n := range nodes {
		if !n.IsMember() {
			continue
		}
		members++
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
	if members < len(nodes)-1 {
		t.Fatalf("only %d/%d nodes stayed members", members, len(nodes))
	}
}

// staleV2CarrierFrameHex is what the deleted v2 writer put in a carrier for
// the one raw item TestStaleVersionBatchCarrierIgnored sends (bitmaps 0x01 /
// 0x01: full, derived MsgID; payload form 0x00: literal), committed as bytes.
const staleV2CarrierFrameHex = "02" + "00000001" + "01" + "01" + "10" + "00000001" +
	"00" + "00000014" + "00f0010000000000000001000000056368756e6b"

// staleV3CarrierFrameHex is the same item as the deleted v3 writer framed it
// (frame-wide flags 0x03: full, derived MsgIDs).
const staleV3CarrierFrameHex = "03" + "03" + "00000001" + "10" + "00000001" +
	"00000014" + "00f0010000000000000001000000056368756e6b"

// TestStaleVersionBatchCarrierIgnored pins the receive side of replacing the
// frame: a batch carrier holding a frame of an older version is dropped
// whole — no inner item reaches the raw hook — while the identical item in a
// current frame goes through.
func TestStaleVersionBatchCarrierIgnored(t *testing.T) {
	self := ids.NodeID(4)
	comp := testComp(9, 1, 4, 5, 6)
	src := testComp(7, 3, 1, 2, 3)
	n, _ := memberNode(t, self, comp, src)
	registerEgressTestMsg()
	var got []any
	n.cfg.Callbacks.OnRawMessage = func(_ ids.NodeID, msg any) { got = append(got, msg) }

	extFrame, ok := encodeWire(egressTestMsg{Seq: 1, Body: []byte("chunk")}, classExt)
	if !ok {
		t.Fatal("egressTestMsg not wire-codable")
	}
	var staleFrames [][]byte
	for _, frameHex := range []string{staleV2CarrierFrameHex, staleV3CarrierFrameHex} {
		stale, err := hex.DecodeString(frameHex)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasSuffix(stale, extFrame) {
			t.Fatalf("golden v%d frame does not carry the item under test %x", stale[0], extFrame)
		}
		staleFrames = append(staleFrames, stale)
	}
	items := []group.BatchItem{{
		Kind:      kindRaw,
		MsgID:     crypto.Hash(extFrame),
		Payload:   extFrame,
		DerivedID: true,
	}}

	var carrier group.GroupMsg
	group.SendBatchToNode(func(_ ids.NodeID, m any) {
		carrier = m.(group.GroupMsg)
	}, src, 1, self, kindBatch, crypto.Hash([]byte("carrier")), items)

	n.handleBatch(1, carrier)
	if len(got) != 1 {
		t.Fatalf("current carrier delivered %d raw messages, want 1", len(got))
	}

	for _, stale := range staleFrames {
		carrier.Payload = stale
		carrier.PayloadDigest = crypto.Hash(stale)
		n.handleBatch(1, carrier)
		if len(got) != 1 {
			t.Fatalf("stale v%d carrier leaked %d raw messages through, want 0", stale[0], len(got)-1)
		}
	}
}
