package core

// Proposal order must not depend on Go map iteration: it fixes OpIDs and the
// order a replica batches operations in, so it reaches the commit order and
// the transport's send order. Each test runs the site on 20 fresh nodes —
// 20 independently seeded maps — and accepts one order only. The entries go
// in descending, so no rotation of the insertion order is the sorted one.

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"atum/internal/actor"
	"atum/internal/crypto"
	"atum/internal/ids"
	"atum/internal/smr"
	"atum/internal/smr/dolev"
)

const proposeOrderNodes, proposeOrderEntries = 20, 6

// recordingReplica records what the engine proposes, in order.
type recordingReplica struct{ proposed []smr.Operation }

func (r *recordingReplica) Propose(op smr.Operation)        { r.proposed = append(r.proposed, op) }
func (*recordingReplica) Receive(ids.NodeID, actor.Message) {}
func (*recordingReplica) HandleTimer(any)                   {}
func (*recordingReplica) Tick(uint64)                       {}
func (*recordingReplica) Stop()                             {}

// TestMakeReplicaReproposesInOpIDOrder: a fresh epoch's replica gets this
// node's unapplied operations back in the order they were first proposed.
// The recorder is the real replica's first slot batch, read off the wire.
func TestMakeReplicaReproposesInOpIDOrder(t *testing.T) {
	comp := testComp(7, 3, 1, 2, 3)
	nbr := testComp(9, 1, 4, 5, 6)
	for run := 0; run < proposeOrderNodes; run++ {
		n, env := memberNode(t, 1, comp, nbr)
		for id := uint64(proposeOrderEntries); id >= 1; id-- {
			data := encodePayload(walkTimeoutOp{WalkID: wcDigest(byte(id))})
			n.ownPend[opDigest(data)] = smr.Operation{Proposer: 1, OpID: id, Data: data}
		}
		n.makeReplica()
		n.replica.Tick(uint64(env.now/n.cfg.RoundDuration) + 1)

		var batch []smr.Operation
		for _, s := range env.sent {
			if e, ok := s.msg.(SMREnvelope); ok {
				batch = e.Inner.(dolev.SlotMsg).Ops
				break
			}
		}
		var got []uint64
		for _, op := range batch {
			got = append(got, op.OpID)
		}
		if !slices.Equal(got, []uint64{1, 2, 3, 4, 5, 6}) {
			t.Fatalf("run %d: re-proposed OpIDs %v, want 1..%d ascending", run, got, proposeOrderEntries)
		}
	}
}

// TestWalkTimeoutsProposedInWalkIDOrder: walks that expire in one tick are
// proposed for timeout in ascending WalkID.
func TestWalkTimeoutsProposedInWalkIDOrder(t *testing.T) {
	comp := testComp(7, 3, 1, 2, 3)
	nbr := testComp(9, 1, 4, 5, 6)
	for run := 0; run < proposeOrderNodes; run++ {
		n, env := memberNode(t, 1, comp, nbr)
		rec := &recordingReplica{}
		n.replica = rec
		for b := byte(proposeOrderEntries); b >= 1; b-- {
			n.walkDeadlines[wcDigest(b)] = env.now - time.Millisecond
		}
		n.walkDeadlineTick(env.now)

		if len(rec.proposed) != proposeOrderEntries || len(n.walkDeadlines) != 0 {
			t.Fatalf("run %d: %d timeouts proposed, %d deadlines left; want %d and 0",
				run, len(rec.proposed), len(n.walkDeadlines), proposeOrderEntries)
		}
		var prev crypto.Digest
		for _, op := range rec.proposed {
			v, err := decodeWire(op.Data)
			if err != nil {
				t.Fatal(err)
			}
			id := v.(walkTimeoutOp).WalkID
			if bytes.Compare(prev[:], id[:]) >= 0 {
				t.Fatalf("run %d: timeout for walk %x proposed after %x, want ascending WalkID", run, id[:2], prev[:2])
			}
			prev = id
		}
	}
}
