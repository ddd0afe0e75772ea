package core

// Proposal order must not depend on Go map iteration: it fixes OpIDs and the
// order a replica batches operations in, so it reaches the commit order and
// the transport's send order. The same holds for which attested state the
// snapshot table installs, and an orphan's renounce order and rejoin contact. Each test runs
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

// TestEnterEpochReproposesInOpIDOrder: a fresh epoch's replica gets this
// node's unapplied operations back in the order they were first proposed.
// The recorder is the real replica's first slot batch, read off the wire.
func TestEnterEpochReproposesInOpIDOrder(t *testing.T) {
	comp := testComp(7, 3, 1, 2, 3)
	nbr := testComp(9, 1, 4, 5, 6)
	for run := 0; run < proposeOrderNodes; run++ {
		n, env := memberNode(t, 1, comp, nbr)
		for id := uint64(proposeOrderEntries); id >= 1; id-- {
			data := encodePayload(walkTimeoutOp{WalkID: wcDigest(byte(id))})
			n.ownPend[opDigest(data)] = smr.Operation{Proposer: 1, OpID: id, Data: data}
		}
		n.enterEpoch()
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

// snapTallyOf is a snapshot-table entry for payload attested by senders.
func snapTallyOf(payload []byte, senders ...ids.NodeID) *snapTally {
	st := &snapTally{senders: map[ids.NodeID]bool{}, payload: payload}
	for _, id := range senders {
		st.senders[id] = true
	}
	return st
}

// TestParkedSnapshotsAdoptedInGroupIDOrder: the snapshot table installs in
// ascending (GroupID, epoch, digest) order. A mover expecting snapshots from
// several vgroups, each attested by a majority, becomes a member of the
// lowest GroupID.
func TestParkedSnapshotsAdoptedInGroupIDOrder(t *testing.T) {
	for run := 0; run < proposeOrderNodes; run++ {
		n, _ := memberNode(t, 1, testComp(7, 3, 1, 2, 3), testComp(9, 1, 4, 5, 6))
		n.st, n.phase = nil, phaseAwaitSnapshot
		for gid := ids.GroupID(10 * proposeOrderEntries); gid >= 10; gid -= 10 {
			g := uint64(gid)
			attest := testComp(gid, 1, g+1, g+2, g+3)
			succ := testComp(gid, 2, 1, g+1, g+2, g+3)
			payload := encodePayload(snapshotPayload{State: newGroupState(succ, overlay.NewNeighbors(2, succ)).buildSnapshot()})
			n.learnComp(attest)
			n.expectSnapshot[gid] = true
			n.snaps[snapKey{src: attest.Key(), digest: crypto.Hash(payload)}] = snapTallyOf(payload, ids.NodeID(g+1), ids.NodeID(g+2))
			n.attestSnapshots(attest.Key())
		}
		n.adoptSnapshots()

		if n.phase != phaseMember || n.st.comp.GroupID != 10 {
			t.Fatalf("run %d: phase %v in group %v after adopting from the table, want a member of group 10 (the lowest)",
				run, n.phase, n.st.comp.GroupID)
		}
	}
}

// TestCatchUpInstallsLowestDigestSuccessor: a laggard with several successor
// states of its current epoch in the snapshot table, each attested by f+1
// members, installs the one whose snapshot has the lowest digest.
func TestCatchUpInstallsLowestDigestSuccessor(t *testing.T) {
	comp := testComp(7, 3, 1, 2, 3)
	for run := 0; run < proposeOrderNodes; run++ {
		n, _ := memberNode(t, 1, comp, testComp(9, 1, 4, 5, 6))
		var want crypto.Digest
		var wantJoiner ids.NodeID
		for j := uint64(proposeOrderEntries); j >= 1; j-- {
			succ := testComp(7, 4, 1, 2, 3, 10+j)
			payload := encodePayload(snapshotPayload{State: newGroupState(succ, overlay.NewNeighbors(2, succ)).buildSnapshot()})
			d := crypto.Hash(payload)
			n.snaps[snapKey{src: comp.Key(), digest: d}] = snapTallyOf(payload, 2, 3)
			if wantJoiner == 0 || bytes.Compare(d[:], want[:]) < 0 {
				want, wantJoiner = d, ids.NodeID(10+j)
			}
		}
		n.adoptSnapshots()

		if n.st.comp.Epoch != 4 || !n.st.comp.Contains(wantJoiner) {
			t.Fatalf("run %d: installed epoch %d with members %v, want epoch 4 with node %v (the lowest digest)",
				run, n.st.comp.Epoch, ids.IdentityIDs(n.st.comp.Members), wantJoiner)
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
