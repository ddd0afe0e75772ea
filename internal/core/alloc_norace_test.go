//go:build !race

package core

// Allocation ceilings of the receive path. The race detector adds
// allocations of its own, so these build only without it.

import (
	"fmt"
	"testing"

	"atum/internal/group"
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
