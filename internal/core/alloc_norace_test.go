//go:build !race

package core

// Allocation ceilings of the receive path. The race detector adds
// allocations of its own, so these build only without it.

import (
	"fmt"
	"testing"

	"atum/internal/actor"
	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/smr/dolev"
	"atum/internal/smr/pbft"
)

// TestHandleBatchOfDeliveredGossipAllocatesNothing: a carrier of gossip copies
// of broadcasts the node already delivered — the common carrier on a busy
// link, half of it full copies and half digest-only votes — is walked in
// place and each item stops at the delivered index, so receiving it allocates
// nothing however many items it holds.
func TestHandleBatchOfDeliveredGossipAllocatesNothing(t *testing.T) {
	comp, src := testComp(9, 1, 4, 5, 6), testComp(7, 3, 1, 2, 3)
	n, _ := memberNode(t, 4, comp, src)
	delivered := 0
	n.cfg.Callbacks.Deliver = func(Delivery) { delivered++ }
	var items []group.BatchItem
	for i := 0; i < 64; i++ {
		p, d := gossipOf(fmt.Sprint("delivered ", i))
		n.delivered.add(d, p, n.Now())
		it := group.BatchItem{Kind: kindGossip, MsgID: d, Digest: d, DerivedID: true, Payload: p}
		if i%2 == 1 {
			it.Payload = nil
		}
		items = append(items, it)
	}
	hdr := group.GroupMsg{SrcGroup: src.GroupID, SrcEpoch: src.Epoch, DstGroup: comp.GroupID, DstEpoch: comp.Epoch}
	carrier, _ := group.Copy(hdr, kindBatch, items, group.CopyRule{Full: true})

	known := 0
	if err := group.EachInBatch(carrier, func(im group.GroupMsg) {
		if im.Kind == kindGossip && im.MsgID == im.PayloadDigest && n.delivered.has(im.MsgID) {
			known++
		}
	}); err != nil || known != len(items) {
		t.Fatalf("the carrier holds %d delivered gossip items of %d (err %v)", known, len(items), err)
	}
	if got := testing.AllocsPerRun(200, func() { n.handleBatch(1, carrier) }); got != 0 {
		t.Errorf("handleBatch of a delivered carrier allocates %.0f objects, want 0", got)
	}
	if delivered != 0 {
		t.Errorf("%d broadcasts delivered again", delivered)
	}
}

// TestGroupMsgSizeAndGossipDecodeAllocateNothing: a GroupMsg's size is its
// walk run over a counter, and the gossip decode handleGossip uses walks the
// frame in place with Data a view of it; neither allocates.
func TestGroupMsgSizeAndGossipDecodeAllocateNothing(t *testing.T) {
	payload, digest := gossipOf("sized")
	var msg actor.Message = group.GroupMsg{SrcGroup: 1, SrcEpoch: 300, DstGroup: 2, DstEpoch: 4, Kind: kindGossip,
		MsgID: digest, PayloadDigest: digest, Payload: payload, Attach: []byte("att")}
	if got := testing.AllocsPerRun(200, func() { actor.SizeOf(msg) }); got != 0 {
		t.Errorf("sizing a GroupMsg allocates %.0f objects, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := decodeGossip(payload); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("decodeGossip allocates %.0f objects, want 0", got)
	}
}

// TestNodeMessageSizeAllocations: a node-level message's size is its walk run
// over a counter that lives with the value it measures, so sizing a
// heartbeat, a pull or a push allocates nothing, and an SMREnvelope at most
// the one box that holds its inner message's copy and counter together.
func TestNodeMessageSizeAllocations(t *testing.T) {
	d := crypto.Hash([]byte("lacked"))
	for _, c := range []struct {
		msg  actor.Message
		want float64
	}{
		{Heartbeat{GroupID: 3, Epoch: 9, Salt: 7, Have: []uint32{1, 5, 9}, Lacks: []crypto.Digest{d}}, 0},
		{PayloadPull{Digests: []crypto.Digest{d, d}}, 0},
		{PayloadPush{Payloads: [][]byte{[]byte("pushed"), {}}}, 0},
		{SMREnvelope{GroupID: 3, Epoch: 9, Inner: pbft.Prepare{GroupID: 3, Epoch: 9, View: 1, Seq: 4, Digest: d}}, 1},
		{SMREnvelope{GroupID: 3, Epoch: 9, Inner: dolev.SlotMsg{GroupID: 3, Epoch: 9, StartRound: 2, Sender: 10,
			Sigs: []dolev.SigEntry{{Node: 10, Sig: []byte{3}}}}}, 1},
	} {
		if got := testing.AllocsPerRun(200, func() { actor.SizeOf(c.msg) }); got > c.want {
			t.Errorf("sizing a %T allocates %.0f objects, want <= %.0f", c.msg, got, c.want)
		}
	}
}

// TestHolderRecordIsOneAllocation: a holders record starts its votes in its
// own array, so seeding one for a delivered digest allocates the record alone.
func TestHolderRecordIsOneAllocation(t *testing.T) {
	comp, src := testComp(9, 1, 4, 5, 6), testComp(7, 3, 1, 2, 3)
	n, _ := memberNode(t, 4, comp, src)
	_, d := gossipOf("held")
	if got := testing.AllocsPerRun(200, func() { n.seedHolders(d) }); got != 1 {
		t.Errorf("seeding a holders record allocates %.0f objects, want 1", got)
	}
}
