package core

// Proposal order must not depend on Go map iteration: it fixes OpIDs and the
// order a replica batches operations in, so it reaches the commit order and
// the transport's send order. The same holds for which parked snapshot a node
// adopts and for an orphan's renounce order and rejoin contact. Each test runs
// the site on 20 fresh nodes — 20 independently seeded maps — and accepts one
// order only. The entries go in descending, so no rotation of the insertion
// order is the sorted one.

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"atum/internal/actor"
	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/overlay"
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
			v, err := decodeWire(op.Data, classOp)
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

// TestParkedSnapshotsAdoptedInGroupIDOrder: with several expected snapshots
// parked, the one from the lowest GroupID is adopted.
func TestParkedSnapshotsAdoptedInGroupIDOrder(t *testing.T) {
	for run := 0; run < proposeOrderNodes; run++ {
		n, _ := memberNode(t, 1, testComp(7, 3, 1, 2, 3), testComp(9, 1, 4, 5, 6))
		n.phase = phaseAwaitSnapshot
		for gid := ids.GroupID(10 * proposeOrderEntries); gid >= 10; gid -= 10 {
			comp := testComp(gid, 2, 1, 2, 3)
			snap := newGroupState(comp, overlay.NewNeighbors(2, comp)).buildSnapshot()
			n.expectSnapshot[gid] = true
			n.pendingSnaps[gid] = group.Accepted{
				Src: group.Key{GroupID: gid, Epoch: 1}, Kind: kindSnapshot,
				Payload: encodePayload(snapshotPayload{State: snap}),
			}
		}
		n.tryParkedSnapshots()

		if n.phase != phaseMember || n.st.comp.GroupID != 10 {
			t.Fatalf("run %d: phase %v in group %v after adopting a parked snapshot, want a member of group 10 (the lowest)",
				run, n.phase, n.st.comp.GroupID)
		}
	}
}

// TestOrphanRenouncesInGroupIDOrder: an orphaned node renounces the vgroups
// it expected a snapshot from in ascending GroupID and rejoins through the
// first member of the lowest.
func TestOrphanRenouncesInGroupIDOrder(t *testing.T) {
	for run := 0; run < proposeOrderNodes; run++ {
		n, env := memberNode(t, 1, testComp(7, 3, 1, 2, 3), testComp(9, 1, 4, 5, 6))
		n.phase = phaseAwaitSnapshot
		n.awaitDeadline = env.now - time.Millisecond
		for gid := uint64(10 * proposeOrderEntries); gid >= 10; gid -= 10 {
			n.expectSnapshot[ids.GroupID(gid)] = true
			n.learnComp(testComp(ids.GroupID(gid), 1, gid+1, gid+2, gid+3))
		}
		n.handleTick()

		var renounced []ids.GroupID
		var contact ids.NodeID
		for _, s := range env.sent {
			switch m := s.msg.(type) {
			case Renounce:
				if len(renounced) == 0 || renounced[len(renounced)-1] != m.Target {
					renounced = append(renounced, m.Target)
				}
			case JoinContact:
				contact = s.to
			}
		}
		if !slices.Equal(renounced, []ids.GroupID{10, 20, 30, 40, 50, 60}) || contact != 11 {
			t.Fatalf("run %d: renounced %v and rejoined through %v, want groups 10..60 ascending and node 11", run, renounced, contact)
		}
	}
}
