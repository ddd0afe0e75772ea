package atum_test

// Surface-contract tests for the public API: accessor aliasing (returned
// slices must be copies, not views into engine state), typed send errors at
// the atum layer, and SimCluster.RunUntil edge cases.

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"atum"
	"atum/astream"
	"atum/internal/crypto"
	"atum/internal/rtnet"
	"atum/internal/tcpnet"
)

// TestGroupMembersNotAliased: mutating the slice returned by GroupMembers
// (including the nested PubKey bytes) must not corrupt engine state.
func TestGroupMembersNotAliased(t *testing.T) {
	c := atum.NewSimCluster(atum.SimOptions{Seed: 11})
	n := c.AddNode(atum.Callbacks{Deliver: func(atum.Delivery) {}})
	c.Run(10 * time.Millisecond)
	if err := n.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	members := n.GroupMembers()
	if len(members) != 1 {
		t.Fatalf("bootstrap group has %d members", len(members))
	}
	members[0].ID = 0xDEAD
	members[0].Addr = "corrupted"
	for i := range members[0].PubKey {
		members[0].PubKey[i] = 0xFF
	}
	fresh := n.GroupMembers()
	if fresh[0].ID != n.Identity().ID || fresh[0].Addr == "corrupted" {
		t.Fatalf("engine state corrupted through GroupMembers: %+v", fresh[0])
	}
	for i, b := range fresh[0].PubKey {
		if b != n.Identity().PubKey[i] {
			t.Fatal("engine PubKey corrupted through GroupMembers aliasing")
		}
	}
	if n.GroupSize() != 1 {
		t.Fatalf("group size changed to %d", n.GroupSize())
	}
}

// TestSendErrorsSurfaceAtPublicAPI: the typed send errors cross the atum
// wrapper layer intact (errors.Is-matchable re-exports).
func TestSendErrorsSurfaceAtPublicAPI(t *testing.T) {
	c := atum.NewSimCluster(atum.SimOptions{Seed: 12})
	n := c.AddNode(atum.Callbacks{Deliver: func(atum.Delivery) {}})
	// Not yet a member: broadcast refuses.
	if err := n.BroadcastWith([]byte("x"), atum.BroadcastOpts{}); !errors.Is(err, atum.ErrNotMember) {
		t.Fatalf("Broadcast before membership returned %v, want ErrNotMember", err)
	}
	// Node created but runtime not started: raw sends refuse instead of
	// silently dropping.
	free := atum.NewNode(atum.Config{
		Identity:   atum.Identity{ID: 7, Addr: "sim:7"},
		SignerSeed: []byte("free-node"),
		Scheme:     crypto.SimScheme{},
		Mode:       atum.ModeSync,
	})
	if err := free.SendRawWith(1, struct{}{}, atum.SendOpts{}); !errors.Is(err, atum.ErrNotRunning) {
		t.Fatalf("SendRaw without a runtime returned %v, want ErrNotRunning", err)
	}
}

// TestConfigHasNoFaultInjectionField: Config describes a correct node — 15
// fields, none of them a behaviour, and no application hook: the raw-message
// hook is Callbacks.OnRawMessage. A fault is injected into a running node,
// through Node.Inner().SetBehavior, and nowhere else. Every option struct of
// the module is held to the same rule, so each keeps the field count pinned
// below.
func TestConfigHasNoFaultInjectionField(t *testing.T) {
	if _, ok := reflect.TypeOf(atum.Config{}).FieldByName("Behavior"); ok {
		t.Error("Config.Behavior is back: SetBehavior is the one way to inject a fault")
	}
	for _, c := range []struct {
		opts   any
		fields int
	}{
		{atum.Config{}, 15},
		{atum.BroadcastOpts{}, 0},
		{atum.SendOpts{}, 2},
		{atum.SimOptions{}, 3},
		{atum.RealtimeOptions{}, 4},
		{tcpnet.Options{}, 4},
		{rtnet.Options{}, 3},
		{astream.Options{}, 2},
	} {
		if typ := reflect.TypeOf(c.opts); typ.NumField() != c.fields {
			t.Errorf("%v has %d fields, want %d: a new option needs two callers that disagree on its value",
				typ, typ.NumField(), c.fields)
		}
	}
}

// TestCallbacksPushNoNodeState: Callbacks holds the paper's §3.3 hooks, the
// membership notices, the divergence detector's OnApply and the raw-message
// hook OnRawMessage — 6 fields. A node's counters and egress pressure are
// read from it (Stats, EgressPressure), not pushed at the application.
func TestCallbacksPushNoNodeState(t *testing.T) {
	typ := reflect.TypeOf(atum.Callbacks{})
	for _, gone := range []string{"OnEvent", "OnEgressPressure"} {
		if _, ok := typ.FieldByName(gone); ok {
			t.Errorf("Callbacks.%s is back: read Node.Stats or Node.EgressPressure instead", gone)
		}
	}
	if typ.NumField() != 6 {
		t.Errorf("Callbacks has %d fields, want 6", typ.NumField())
	}
}

// TestRunUntilCondAlreadyTrue: a satisfied condition returns immediately
// without advancing virtual time.
func TestRunUntilCondAlreadyTrue(t *testing.T) {
	c := atum.NewSimCluster(atum.SimOptions{Seed: 13})
	c.Run(time.Second)
	before := c.Now()
	if !c.RunUntil(func() bool { return true }, time.Minute) {
		t.Fatal("RunUntil returned false for an already-true condition")
	}
	if c.Now() != before {
		t.Fatalf("RunUntil advanced time %v -> %v for an already-true condition", before, c.Now())
	}
}

// TestRunUntilClampsToDeadline: a never-true condition consumes exactly the
// budget — the last step is clamped, not overshot in 50 ms chunks.
func TestRunUntilClampsToDeadline(t *testing.T) {
	c := atum.NewSimCluster(atum.SimOptions{Seed: 14})
	start := c.Now()
	const max = 130 * time.Millisecond // not a multiple of the 50 ms step
	if c.RunUntil(func() bool { return false }, max) {
		t.Fatal("RunUntil returned true for a never-true condition")
	}
	if got := c.Now() - start; got != max {
		t.Fatalf("RunUntil advanced %v, want exactly %v", got, max)
	}
}

// TestRunUntilSeesDeadlineInstant: an event scheduled exactly at the
// deadline still runs, and a condition it satisfies counts as met.
func TestRunUntilSeesDeadlineInstant(t *testing.T) {
	c := atum.NewSimCluster(atum.SimOptions{Seed: 15})
	const max = 175 * time.Millisecond
	fired := false
	c.Net.Schedule(c.Now()+max, func() { fired = true })
	if !c.RunUntil(func() bool { return fired }, max) {
		t.Fatal("RunUntil missed a condition satisfied exactly at the deadline")
	}
}
