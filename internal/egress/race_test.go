//go:build race

package egress

// raceEnabled: the race detector makes sync.Pool drop items at random, so the
// pooled frame encoders behind group's framing allocate again.
const raceEnabled = true
