package core

import "time"

// rateLimiter admits at most one event per key per window. The engine keeps
// one instance per reply it rate-limits (freshness replies, catch-up
// re-shares): the instances share logic, never state — a reply suppressed
// as "already shared" by one must not silence the other.
//
// Memory is bounded in two steps. Past soft entries, entries older than the
// window are evicted; they would be admitted anyway, so eviction never
// changes a decision. Recreating the table instead would forget rate-limit
// state written moments ago and re-open the reply-storm window the limiter
// exists to close. A flood of forged keys can keep every entry inside the
// window, so past hard entries the table is forgotten wholesale — the
// under-attack fallback.
type rateLimiter[K comparable] struct {
	window     time.Duration
	soft, hard int
	last       map[K]time.Duration
}

func newRateLimiter[K comparable](window time.Duration, soft, hard int) *rateLimiter[K] {
	return &rateLimiter[K]{window: window, soft: soft, hard: hard, last: make(map[K]time.Duration)}
}

// allow reports whether k's last admitted event is at least a window old
// (or there was none), and if so records now as its new last event.
func (l *rateLimiter[K]) allow(k K, now time.Duration) bool {
	if at, ok := l.last[k]; ok && now-at < l.window {
		return false
	}
	if len(l.last) > l.soft {
		pruneStale(l.last, now, l.window)
		if len(l.last) > l.hard {
			l.last = make(map[K]time.Duration)
		}
	}
	l.last[k] = now
	return true
}

// pruneStale evicts entries whose timestamp fell outside the window; live
// entries survive.
func pruneStale[K comparable](m map[K]time.Duration, now, window time.Duration) {
	for k, at := range m {
		if now-at >= window {
			delete(m, k)
		}
	}
}
