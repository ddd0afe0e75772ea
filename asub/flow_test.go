package asub_test

// Publisher-error path tests for the flow-controlled send surface: Publish
// reports typed errors instead of silently losing events, and PublishWith
// carries the broadcast flow-control options.

import (
	"errors"
	"testing"
	"time"

	"atum"
	"atum/asub"
	"atum/internal/core"
)

func TestPublisherErrorsSurfaced(t *testing.T) {
	cluster := atum.NewSimCluster(atum.SimOptions{Seed: 31})
	var got []asub.Event
	cb, bind := asub.Wire("errors", asub.Options{
		OnEvent: func(ev asub.Event) { got = append(got, ev) },
	})
	p := bind(cluster.AddNode(cb))
	cluster.Run(10 * time.Millisecond)

	// Publishing before the topic exists (not a member yet) is a typed,
	// matchable error — not a silent no-op.
	if err := p.Publish([]byte("too-early")); !errors.Is(err, atum.ErrNotMember) {
		t.Fatalf("Publish before CreateTopic returned %v, want ErrNotMember", err)
	}
	if err := p.CreateTopic(); err != nil {
		t.Fatal(err)
	}
	// Oversized events are refused at the publisher, before any dissemination.
	huge := make([]byte, core.MaxBroadcastBytes+1)
	if err := p.Publish(huge); !errors.Is(err, atum.ErrBroadcastTooLarge) {
		t.Fatalf("oversized Publish returned %v, want ErrBroadcastTooLarge", err)
	}
	// A real publish — including one with flow-control options — succeeds
	// and delivers.
	if err := p.Publish([]byte("plain")); err != nil {
		t.Fatal(err)
	}
	if err := p.PublishWith([]byte("optioned"), atum.BroadcastOpts{TTL: time.Second}); err != nil {
		t.Fatal(err)
	}
	cluster.Run(10 * time.Second)
	if len(got) != 2 || string(got[0].Data) != "plain" || string(got[1].Data) != "optioned" {
		t.Fatalf("delivered events = %v, want [plain optioned]", got)
	}
	// The failed publishes must not have produced events.
	for _, ev := range got {
		if string(ev.Data) == "too-early" || len(ev.Data) > core.MaxBroadcastBytes {
			t.Fatalf("failed publish leaked an event: %q", ev.Data[:32])
		}
	}
}
