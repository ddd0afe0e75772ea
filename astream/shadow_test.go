package astream

// White-box tests for tier-2 copy handling: a Byzantine parent's corrupted
// copy must never shadow the correct copy, in any arrival order (the
// paper's push-pull scheme re-pulls from another parent; the flood keeps
// bounded candidate copies instead).

import (
	"testing"
	"time"

	"atum"
	"atum/internal/crypto"
)

// soloService builds a bound service on a single-node cluster.
func soloService(t *testing.T) (*atum.SimCluster, *Service) {
	t.Helper()
	cluster := atum.NewSimCluster(atum.SimOptions{Seed: 3})
	svc := New(Options{Mode: Single})
	node := cluster.AddNode(svc.Callbacks())
	svc.Bind(node)
	cluster.Run(10 * time.Millisecond)
	if err := node.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	cluster.Run(time.Second)
	return cluster, svc
}

func digestDelivery(seq uint64, data []byte) atum.Delivery {
	payload := encodeStream(digestMsg{Seq: seq, Digest: crypto.Hash(data)})
	return atum.Delivery{Data: payload}
}

func TestCorruptCopyThenDigestThenCorrect(t *testing.T) {
	_, svc := soloService(t)
	good := []byte("the real chunk")

	svc.handleRaw(2, dataMsg{Seq: 5, Data: []byte("forged!")})
	svc.deliverDigest(digestDelivery(5, good))
	svc.handleRaw(3, dataMsg{Seq: 5, Data: good})

	if !svc.Delivered(5) {
		t.Fatal("correct copy after digest not delivered")
	}
}

func TestCorruptCopyShadowingCorrectCopy(t *testing.T) {
	// The hostile order: corrupt copy first, correct copy second (while no
	// digest is known yet), digest last. The correct copy must survive as a
	// candidate — dropping it because "seq already seen" loses the chunk.
	_, svc := soloService(t)
	good := []byte("the real chunk")

	svc.handleRaw(2, dataMsg{Seq: 6, Data: []byte("forged!")})
	svc.handleRaw(3, dataMsg{Seq: 6, Data: good})
	svc.deliverDigest(digestDelivery(6, good))

	if !svc.Delivered(6) {
		t.Fatal("corrupted first copy shadowed the correct one: chunk lost")
	}
}

func TestManyForgedCopiesBounded(t *testing.T) {
	// A Byzantine flood of distinct forged copies must not grow memory
	// without bound — and must still not prevent delivery of the correct
	// copy that arrives afterwards.
	_, svc := soloService(t)
	good := []byte("the real chunk")

	for i := 0; i < 100; i++ {
		svc.handleRaw(2, dataMsg{Seq: 7, Data: []byte{byte(i), byte(i >> 8), 0xBA, 0xD0}})
	}
	if got := len(svc.pendingData[7]); got > maxCandidates {
		t.Fatalf("stored %d candidate copies, bound is %d", got, maxCandidates)
	}
	svc.deliverDigest(digestDelivery(7, good))
	svc.handleRaw(3, dataMsg{Seq: 7, Data: good})
	if !svc.Delivered(7) {
		t.Fatal("correct copy not delivered after forged flood")
	}
}

func TestDigestFirstVerifiedForwardOnly(t *testing.T) {
	// Once the digest is known, corrupted copies are dropped outright —
	// they are neither stored nor forwarded.
	_, svc := soloService(t)
	good := []byte("the real chunk")

	svc.deliverDigest(digestDelivery(8, good))
	svc.handleRaw(2, dataMsg{Seq: 8, Data: []byte("forged!")})
	if len(svc.pendingData[8]) != 0 {
		t.Fatal("corrupted copy stored despite known digest")
	}
	svc.handleRaw(3, dataMsg{Seq: 8, Data: good})
	if !svc.Delivered(8) {
		t.Fatal("verified chunk not delivered")
	}
}
