package core

// Tests for the flow-controlled send surface: typed send errors, the
// one-release compatibility wrappers, egress stats, and the pressure level
// read from the node.

import (
	"errors"
	"testing"
	"time"

	"atum/internal/actor"
	"atum/internal/ids"
	"atum/internal/smr"
)

// TestSendRawNotRunningTyped pins the fix for silent no-op sends: SendRaw
// before a runtime is attached, and after Stop, reports ErrNotRunning
// instead of silently dropping the message.
func TestSendRawNotRunningTyped(t *testing.T) {
	registerEgressTestMsg()
	h := newHarness(t, smr.ModeSync, 1, nil)
	n := New(h.defaultConfig(99, smr.ModeSync))
	// Not attached to any runtime yet.
	if err := n.SendRawWith(1, egressTestMsg{Seq: 1}, SendOpts{}); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("SendRaw before runtime attach returned %v, want ErrNotRunning", err)
	}
	// Attached and running: sends succeed.
	nodes := h.bootstrapSystem(smr.ModeSync, 2, 20*time.Second)
	if err := nodes[0].SendRawWith(nodes[1].cfg.Identity.ID, egressTestMsg{Seq: 2}, SendOpts{}); err != nil {
		t.Fatalf("SendRaw on a running node returned %v", err)
	}
	// Stopped: typed error again.
	nodes[0].Stop()
	if err := nodes[0].SendRawWith(nodes[1].cfg.Identity.ID, egressTestMsg{Seq: 3}, SendOpts{}); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("SendRaw after Stop returned %v, want ErrNotRunning", err)
	}
}

// unregisteredRawMsg deliberately has no wire extension codec.
type unregisteredRawMsg struct{ X int }

// TestSendRawUnregisteredType: the wire codec is the only serializer, so a
// type without a registered codec is refused with ErrUnregisteredType and
// nothing is sent.
func TestSendRawUnregisteredType(t *testing.T) {
	registerEgressTestMsg()
	n, env := memberNode(t, 1, testComp(7, 3, 1, 2, 3), testComp(9, 1, 4, 5, 6))
	if err := n.SendRawWith(4, unregisteredRawMsg{X: 1}, SendOpts{}); !errors.Is(err, ErrUnregisteredType) {
		t.Fatalf("unregistered type returned %v, want ErrUnregisteredType", err)
	}
	if _, items := n.egress.Pending(); len(env.sent) != 0 || items != 0 {
		t.Fatalf("refused message still left the node: %d sent, %d queued", len(env.sent), items)
	}
	if err := n.SendRawWith(4, egressTestMsg{Seq: 1}, SendOpts{}); err != nil {
		t.Fatalf("registered type returned %v", err)
	}
}

// TestForeignMessageNotDelivered: on simnet/rtnet a Byzantine peer can hand
// a node any Go value. One that is not an engine message never passed a
// decoder and must not reach the application; raw messages arrive only as
// decoded kindRaw frames.
func TestForeignMessageNotDelivered(t *testing.T) {
	registerEgressTestMsg()
	h := newHarness(t, smr.ModeSync, 2, nil)
	nodes := h.bootstrapSystem(smr.ModeSync, 2, 20*time.Second)
	var got []any
	nodes[1].cfg.Callbacks.OnRawMessage = func(_ ids.NodeID, msg any) { got = append(got, msg) }
	to := nodes[1].cfg.Identity.ID
	peer := nodes[0].env.(actor.Env) // a peer that does not run the engine
	peer.Send(to, unregisteredRawMsg{X: 7})
	peer.Send(to, egressTestMsg{Seq: 7}) // registered, but not framed
	h.net.Run(h.net.Now() + time.Second)
	if len(got) != 0 {
		t.Fatalf("undecoded foreign values reached OnRawMessage: %#v", got)
	}
	if err := nodes[0].SendRawWith(to, egressTestMsg{Seq: 8}, SendOpts{}); err != nil {
		t.Fatal(err)
	}
	h.net.Run(h.net.Now() + time.Second)
	if len(got) != 1 || got[0].(egressTestMsg).Seq != 8 {
		t.Fatalf("framed raw message not delivered: %#v", got)
	}
}

// TestZeroOptSendDefaults pins the migration contract that replaced the
// removed zero-option wrappers (docs/API.md): BroadcastOpts{} / SendOpts{}
// behave exactly like the paper-era Broadcast and SendRaw did — same
// delivery, same raw handling — whether the result is ignored (as
// pre-redesign callers did) or checked.
func TestZeroOptSendDefaults(t *testing.T) {
	registerEgressTestMsg()
	h := newHarness(t, smr.ModeSync, 3, nil)
	nodes := h.bootstrapSystem(smr.ModeSync, 3, 20*time.Second)
	var raws []uint64
	nodes[2].cfg.Callbacks.OnRawMessage = func(_ ids.NodeID, msg any) {
		raws = append(raws, msg.(egressTestMsg).Seq)
	}

	// Zero-option form with the result ignored, exactly as pre-redesign
	// code used the removed wrappers.
	nodes[0].BroadcastWith([]byte("old-broadcast"), BroadcastOpts{}) //nolint:errcheck
	nodes[1].SendRawWith(nodes[2].cfg.Identity.ID, egressTestMsg{Seq: 10, Body: []byte("old")}, SendOpts{})

	// Same forms with the result checked.
	if err := nodes[0].BroadcastWith([]byte("new-broadcast"), BroadcastOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].SendRawWith(nodes[2].cfg.Identity.ID,
		egressTestMsg{Seq: 11, Body: []byte("new")}, SendOpts{}); err != nil {
		t.Fatal(err)
	}

	h.net.Run(h.net.Now() + 10*time.Second)
	for _, n := range nodes {
		id := n.cfg.Identity.ID
		gotOld, gotNew := false, false
		for _, d := range h.delivered[id] {
			gotOld = gotOld || d == "old-broadcast"
			gotNew = gotNew || d == "new-broadcast"
		}
		if !gotOld || !gotNew {
			t.Fatalf("node %v delivered old=%v new=%v, want both", id, gotOld, gotNew)
		}
	}
	if len(raws) != 2 || raws[0] != 10 || raws[1] != 11 {
		t.Fatalf("raw sequence = %v, want [10 11]", raws)
	}
}

// TestPressureHookAndEgressStatsFromNode drives the full engine plumbing:
// a raw flood toward one destination past NodeQueueLimit must raise the level
// Node.EgressPressure reads, surface depth/drops in Node.Stats, keep depth
// bounded — and drain back to Low when the flood stops.
func TestPressureHookAndEgressStatsFromNode(t *testing.T) {
	registerEgressTestMsg()
	const limit = NodeQueueLimit
	h := newHarness(t, smr.ModeSync, 5, nil)
	nodes := h.bootstrapSystem(smr.ModeSync, 2, 20*time.Second)
	sender, to := nodes[0], nodes[1].cfg.Identity.ID

	overflows := 0
	levels := []PressureLevel{PressureLow} // every change of the level read after a send
	for i := 0; i < 3*limit; i++ {
		err := sender.SendRawWith(to, egressTestMsg{Seq: uint64(i), Body: []byte("x")},
			SendOpts{Priority: PriorityBulk})
		if errors.Is(err, ErrEgressOverflow) {
			overflows++
		}
		if lvl := sender.EgressPressure(to); lvl != levels[len(levels)-1] {
			levels = append(levels, lvl)
		}
	}
	if overflows == 0 {
		t.Fatal("flood past the queue limit produced no ErrEgressOverflow")
	}
	if len(levels) < 2 || levels[1] != PressureHigh {
		t.Fatalf("pressure levels read = %v, want High first", levels)
	}
	st := sender.Stats().Egress
	var dest *EgressDestStats
	for i := range st.Dests {
		if st.Dests[i].Node == to {
			dest = &st.Dests[i]
		}
	}
	if dest == nil {
		t.Fatalf("Stats().Egress has no entry for %v: %+v", to, st)
	}
	if dest.Depth > limit {
		t.Fatalf("queue depth %d exceeds NodeQueueLimit %d", dest.Depth, limit)
	}
	if dest.DroppedOverflow == 0 || dest.Level == PressureLow {
		t.Fatalf("dest stats = %+v, want overflow drops and a raised level", dest)
	}
	// Stop the flood; the paced drain empties the queue and the level must
	// read recovery (hysteresis exit to Low).
	h.net.Run(h.net.Now() + 2*time.Second)
	if lvl := sender.EgressPressure(to); lvl != PressureLow {
		t.Fatalf("level after the drain = %v, want Low", lvl)
	}
	if d, _ := sender.egress.Pending(); d != 0 {
		t.Fatalf("egress still holds %d destination queues after drain", d)
	}
}
