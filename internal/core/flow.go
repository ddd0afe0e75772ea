package core

// The flow-controlled send surface: typed send errors, SendRawWith's option
// (a priority class), and the two reads an application paces itself by — a
// destination's pressure level and the node's Stats.
// The egress scheduler (internal/egress) bounds and paces node-addressed
// queues; this file is the engine-level API over that machinery — see
// docs/API.md for the application-facing contract.

import (
	"errors"

	"atum/internal/egress"
	"atum/internal/ids"
)

// Flow-control errors of the send surface.
var (
	// ErrNotRunning is returned by SendRaw/SendRawWith when the node is not
	// attached to a running runtime (before Start, or after Stop). Sends in
	// that state used to be silent no-ops.
	ErrNotRunning = errors.New("core: node is not attached to a running runtime")
	// ErrEgressOverflow is returned when the destination's bounded egress
	// queue is full and held no lower-priority item to evict: the message
	// was dropped at the sender. Back off, shed, or retry once
	// Node.EgressPressure reads Low again.
	ErrEgressOverflow = egress.ErrOverflow
	// ErrUnregisteredType is returned for SendRaw messages whose type has no
	// wire extension codec (RegisterRawMessage): the wire codec is the only
	// serializer, so such a message cannot be sent at all.
	ErrUnregisteredType = errors.New("core: raw message type not registered with RegisterRawMessage")
)

// The flow-control vocabulary is the egress scheduler's own, re-exported.
type (
	// Priority is a send's egress priority class; lower values are more
	// important. Overflow on a bounded egress queue evicts strictly
	// lower-priority queued items first and rejects equal-priority arrivals.
	Priority = egress.Class
	// PressureLevel is a destination's egress pressure level, derived from
	// the bounded queue's depth with hysteresis so it does not flap: High
	// enters at half the queue limit and exits below a quarter; Critical
	// enters at 7/8 of the limit and exits (back to High) below 5/8.
	PressureLevel = egress.Level
	// EgressDestStats is one node-addressed destination's flow-control
	// snapshot.
	EgressDestStats = egress.DestStats
	// EgressStats is a snapshot of the node's egress scheduler.
	EgressStats = egress.Stats
)

// Priority classes.
const (
	// PriorityControl is protocol-critical traffic (the default): request/
	// reply handshakes, metadata. Never evicted in favor of data.
	PriorityControl = egress.ClassControl
	// PriorityData is ordinary application payload traffic.
	PriorityData = egress.ClassData
	// PriorityBulk is best-effort bulk traffic (streaming floods,
	// speculative forwards): first to be shed under pressure.
	PriorityBulk = egress.ClassBulk
)

// Pressure levels.
const (
	PressureLow      = egress.LevelLow
	PressureHigh     = egress.LevelHigh
	PressureCritical = egress.LevelCritical
)

// SendOpts shapes one SendRawWith call.
type SendOpts struct {
	// Priority is the egress priority class (default PriorityControl).
	Priority Priority
}

// BroadcastOpts is BroadcastWith's option set, and it is empty: a broadcast
// is the paper's broadcast(m). The origin-only TTL it held shaped one
// member's share of the first gossip hop and no caller set it. The type stays
// so BroadcastWith keeps its signature; every caller passes BroadcastOpts{}.
type BroadcastOpts struct{}

// Stats is a snapshot of a node's metrics (Node.Stats). The first six
// counters count what this node applied since it was created, as a member of
// the vgroup that took the step; the three after them count its own repairs of
// relayed gossip, and the next two what its gossip left out.
type Stats struct {
	Splits    uint64 // its vgroup split
	Merges    uint64 // its vgroup absorbed a shrunken one
	Evictions uint64 // its vgroup evicted a silent member
	// ExchangesCompleted and ExchangesSuppressed count its vgroup's shuffle
	// exchanges by outcome; an exchange is suppressed when the partner was
	// busy, the walk timed out or a member raced away (Fig. 13).
	ExchangesCompleted  uint64
	ExchangesSuppressed uint64
	ShufflesDone        uint64 // its vgroup finished a whole-group shuffle
	// PullsSent counts the gossip payloads it asked a peer for, PullsServed
	// those it sent a peer that asked, and CaughtUp the broadcasts it
	// delivered on its own vgroup's word (internal/core/pull.go).
	PullsSent   uint64
	PullsServed uint64
	CaughtUp    uint64
	// GossipWithdrawn counts the gossip votes toward a neighbour vgroup it
	// dropped as their batch left, because f+1 members of that vgroup had
	// voted the broadcast since the vote was queued; PayloadsWithheld the
	// relayed payloads it sent a destination member as the digest alone,
	// because that member, or any member of its vgroup under the composition
	// the copy was addressed to, had voted the broadcast by the time the copy
	// left (internal/core/gossip.go, the holders record).
	GossipWithdrawn  uint64
	PayloadsWithheld uint64
	// Egress is the egress scheduler's snapshot: aggregate counters and one
	// entry per tracked node-addressed destination.
	Egress EgressStats
}

// Stats returns a snapshot of the node's counters and egress scheduler. Like
// every Node accessor it must run in the node's actor context (in
// simulation, harness code between Run calls is also safe).
func (n *Node) Stats() Stats {
	st := n.counts
	st.PayloadsWithheld = n.egress.Withheld()
	st.Egress = n.egress.Snapshot()
	return st
}

// EgressPressure returns the pressure level of the node-addressed egress
// queue toward dest (Low when nothing is queued for it), in O(1): read it
// before a send to pace a flood. Like Stats, it runs in the actor context.
func (n *Node) EgressPressure(dest ids.NodeID) PressureLevel { return n.egress.Level(dest) }
