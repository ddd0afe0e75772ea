package core

import (
	"testing"
	"time"
)

// TestRateLimiter pins the one limiter behind freshness replies and catch-up
// re-shares: one event per key per window, overflow evicts only entries that
// would be admitted anyway, and a table full of live entries is forgotten
// wholesale at the hard cap.
func TestRateLimiter(t *testing.T) {
	const window = 10 * time.Second
	type step struct {
		key  int
		at   time.Duration
		want bool
	}
	cases := []struct {
		name       string
		soft, hard int
		// preload inserts keys 1000.. with the given timestamps before the
		// steps run.
		preload []time.Duration
		steps   []step
		// wantLive lists keys that must (true) or must not (false) be held
		// after the steps.
		wantLive map[int]bool
		wantLen  int
	}{
		{
			name: "suppress inside the window, per key",
			soft: 8, hard: 16,
			steps: []step{
				{key: 1, at: 100 * time.Second, want: true},
				{key: 1, at: 105 * time.Second, want: false},
				{key: 2, at: 105 * time.Second, want: true},
				{key: 1, at: 109*time.Second + 999*time.Millisecond, want: false},
				// A denied event does not restart the window.
				{key: 1, at: 110 * time.Second, want: true},
				{key: 1, at: 115 * time.Second, want: false},
			},
			wantLive: map[int]bool{1: true, 2: true},
			wantLen:  2,
		},
		{
			name: "overflow prune keeps live entries",
			soft: 4, hard: 16,
			// Three stale entries and two live ones: past soft, not past hard.
			preload: []time.Duration{80 * time.Second, 85 * time.Second, 90 * time.Second, 95 * time.Second, 99 * time.Second},
			steps: []step{
				{key: 1, at: 100 * time.Second, want: true},
				// The live preloaded keys still suppress.
				{key: 1003, at: 101 * time.Second, want: false},
				{key: 1004, at: 101 * time.Second, want: false},
				// The evicted ones are admitted, as they would have been.
				{key: 1000, at: 101 * time.Second, want: true},
			},
			wantLive: map[int]bool{1: true, 1000: true, 1001: false, 1002: false, 1003: true, 1004: true},
			wantLen:  4,
		},
		{
			name: "hard cap forgets a table of live entries",
			soft: 2, hard: 4,
			preload: []time.Duration{96 * time.Second, 97 * time.Second, 98 * time.Second, 99 * time.Second, 99 * time.Second},
			steps: []step{
				{key: 1, at: 100 * time.Second, want: true},
				// Forgotten with the rest: the under-attack fallback trades
				// suppression for bounded memory.
				{key: 1004, at: 100 * time.Second, want: true},
			},
			wantLive: map[int]bool{1: true, 1004: true, 1000: false},
			wantLen:  2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := newRateLimiter[int](window, tc.soft, tc.hard)
			for i, at := range tc.preload {
				l.last[1000+i] = at
			}
			for i, s := range tc.steps {
				if got := l.allow(s.key, s.at); got != s.want {
					t.Fatalf("step %d: allow(%d, %v) = %v, want %v", i, s.key, s.at, got, s.want)
				}
			}
			for k, want := range tc.wantLive {
				if _, ok := l.last[k]; ok != want {
					t.Errorf("key %d held = %v, want %v", k, ok, want)
				}
			}
			if len(l.last) != tc.wantLen {
				t.Errorf("table holds %d entries, want %d", len(l.last), tc.wantLen)
			}
		})
	}
}
