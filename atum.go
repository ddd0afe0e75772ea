// Package atum is a group communication middleware for large, dynamic, and
// hostile environments — a from-scratch Go implementation of "Atum: Scalable
// Group Communication Using Volatile Groups" (Guerraoui, Kermarrec, Pavlovic,
// Seredinschi — Middleware 2016).
//
// At its heart are volatile groups (vgroups): small, dynamic clusters of
// nodes, each running Byzantine fault-tolerant state machine replication,
// organized in an H-graph overlay. Faulty nodes are scattered evenly among
// vgroups by random-walk shuffling and masked inside their vgroup; vgroup
// sizes track the logarithm of the system size through splits and merges;
// messages are disseminated by gossiping group messages across the overlay.
//
// The public API mirrors the paper's §3.3:
//
//	node := atum.NewNode(cfg)            // create a node
//	node.Bootstrap()                     // first node: create the instance
//	node.Join(contact)                   // everyone else: join via a contact
//	node.BroadcastWith([]byte("hello"),
//		atum.BroadcastOpts{})            // disseminate to every node
//	node.Leave()                         // leave the system
//
// Applications receive messages through Callbacks.Deliver, shape the gossip
// phase through Callbacks.Forward, and receive node-addressed raw messages
// through Callbacks.OnRawMessage: a service plugs into a node by its
// Callbacks alone. Three applications built on this API ship with the
// repository: asub (publish/subscribe), ashare (file sharing), and astream
// (data streaming).
//
// # Egress scheduling
//
// Every outbound send — gossip payloads (§3.3.4's dissemination phase),
// random-walk hops, neighbor and composition updates during churn, and
// registered application raw messages — feeds a unified per-destination
// egress scheduler (internal/egress): everything bound for the same
// destination within its flush window leaves as a single batch carrier,
// cutting per-link message counts and framing bytes by roughly the number
// of concurrent sends. Receivers unpack carriers and process every inner
// message individually, so Deliver, Forward, and OnRawMessage semantics do
// not depend on how sends were coalesced. The flush window is adaptive,
// derived per destination from the observed arrival rate: zero when idle (a
// lone broadcast on a quiet system pays no batching latency), widening under
// bursts up to a cap. Two Config knobs shape the batches:
//
//   - GossipMaxBatch: items coalesced per destination (default 64; a
//     carrier is also cut at 256 KiB of pending payload)
//   - EgressMaxFlushWindow: the adaptive window's cap (default 5 ms;
//     ModeSync group sends flush at every lockstep round tick instead)
//
// # Flow control
//
// The send surface is flow-controlled (docs/API.md): SendRawWith returns
// typed errors instead of silently dropping and accepts a priority class,
// node-addressed egress queues are bounded (NodeQueueLimit items, 8 MiB),
// shed by priority alone and drained at a paced rate, and
// applications read a destination's pressure level
// (Node.EgressPressure: Low/High/Critical, with hysteresis) before they send,
// and the queue depths and drop counters in Node.Stats. Nothing is pushed
// at them. AStream and AShare pace their floods off these reads instead of
// flooding blindly; `atum-bench -exp backpressure` measures the effect under
// a slow consumer, against a flood that bypasses the API.
//
// # Wire codec
//
// Payloads and engine messages are framed by a deterministic, tagged,
// versioned wire codec (docs/WIRE.md): canonical bytes for signatures and
// cross-member digest matching, no per-message type dictionary. It is the
// module's only serializer. Applications register their SendRaw message
// types in the codec's extension-tag range (RegisterRawMessage), each with
// its field walk, a Wire(WireCodec) method; that makes them wire-codable and
// batchable. A type without a registered codec cannot be sent
// (ErrUnregisteredType).
//
// Nodes are actors: they run on a runtime that delivers messages and timers.
// Two runtimes are provided — the deterministic discrete-event simulator
// (atum.NewSimCluster, internal/simnet) used by the evaluation harness, and
// a real-time goroutine runtime (atum.NewRealtimeRuntime) for deployment.
package atum

import (
	"fmt"
	"time"

	"atum/internal/core"
	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/simnet"
	"atum/internal/smr"
	"atum/internal/wire"
)

// Re-exported types: stable public aliases of the engine's configuration,
// callback, identity, option and statistics types.
type (
	// Config configures one Atum node; see the field docs in internal/core.
	Config = core.Config
	// Params are the Table 1 overlay parameters (hc, rwl, gmin, gmax).
	Params = core.Params
	// Callbacks connect the application to the engine.
	Callbacks = core.Callbacks
	// Delivery is one delivered broadcast message.
	Delivery = core.Delivery
	// ForwardLink identifies an overlay link offered to the Forward callback.
	ForwardLink = core.ForwardLink
	// Behavior selects a node's (possibly Byzantine) behaviour; inject one
	// with Node.Inner().SetBehavior.
	Behavior = core.Behavior
	// NodeID identifies a node.
	NodeID = ids.NodeID
	// GroupID identifies a vgroup.
	GroupID = ids.GroupID
	// Identity is a node's public identity.
	Identity = ids.Identity
	// GroupComposition is a vgroup's membership at one epoch (the value
	// handed to Callbacks.OnJoined).
	GroupComposition = group.Composition
	// BroadcastOpts is BroadcastWith's option set; it has no fields.
	BroadcastOpts = core.BroadcastOpts
	// SendOpts is SendRawWith's option set: the priority class.
	SendOpts = core.SendOpts
	// Priority is a send's egress priority class (lower = more important).
	Priority = core.Priority
	// PressureLevel is a destination's egress pressure level.
	PressureLevel = core.PressureLevel
	// Stats is a snapshot of a node's counters and egress scheduler.
	Stats = core.Stats
	// EgressStats is the egress scheduler's part of Stats.
	EgressStats = core.EgressStats
	// EgressDestStats is one destination's entry in EgressStats.
	EgressDestStats = core.EgressDestStats
)

// Typed send errors (see docs/API.md for the full error taxonomy).
var (
	// ErrNotMember: the sender is not currently a vgroup member.
	ErrNotMember = core.ErrNotMember
	// ErrBroadcastTooLarge: the payload exceeds MaxBroadcastBytes.
	ErrBroadcastTooLarge = core.ErrBroadcastTooLarge
	// ErrNotRunning: the node is not attached to a running runtime.
	ErrNotRunning = core.ErrNotRunning
	// ErrEgressOverflow: the destination's bounded egress queue dropped the
	// message at the sender (flow control).
	ErrEgressOverflow = core.ErrEgressOverflow
	// ErrUnregisteredType: the raw message type has no wire codec
	// (RegisterRawMessage).
	ErrUnregisteredType = core.ErrUnregisteredType
)

// Send priority classes.
const (
	// PriorityControl is protocol-critical traffic (the default).
	PriorityControl = core.PriorityControl
	// PriorityData is ordinary application payload traffic.
	PriorityData = core.PriorityData
	// PriorityBulk is best-effort bulk traffic: first to be shed.
	PriorityBulk = core.PriorityBulk
)

// Egress pressure levels (Node.EgressPressure). Levels carry
// hysteresis — distinct enter and exit thresholds — so they signal sustained
// load changes, not noise (docs/API.md, "Pressure levels").
const (
	PressureLow      = core.PressureLow
	PressureHigh     = core.PressureHigh
	PressureCritical = core.PressureCritical
)

// Re-exported constants.
const (
	// ModeSync selects the synchronous Dolev-Strong SMR engine.
	ModeSync = smr.ModeSync
	// ModeAsync selects the asynchronous PBFT SMR engine.
	ModeAsync = smr.ModeAsync
	// BehaviorCorrect follows the protocol.
	BehaviorCorrect = core.BehaviorCorrect
	// BehaviorSilent joins, then goes completely quiet — heartbeats
	// included, so its vgroup evicts it after EvictAfter.
	BehaviorSilent = core.BehaviorSilent
	// BehaviorHeartbeatOnly heartbeats and proposes spurious evictions.
	BehaviorHeartbeatOnly = core.BehaviorHeartbeatOnly
	// NodeQueueLimit bounds each node-addressed egress queue in items; the
	// pressure levels are fractions of it (docs/API.md).
	NodeQueueLimit = core.NodeQueueLimit
)

// DefaultParams returns sensible Table 1 parameters for a medium system.
func DefaultParams() Params { return core.DefaultParams() }

// WireCodec is one direction of a field walk, re-exported for application
// raw-message types: a type's Wire(WireCodec) method visits its fields in
// wire order, and the one method both encodes and decodes it
// (RegisterRawMessage).
type WireCodec = wire.Codec

// RawMessageTagMin is the first wire-envelope kind tag of the application
// extension range (docs/WIRE.md): tags RawMessageTagMin..0xFF identify
// application raw-message types registered with RegisterRawMessage.
const RawMessageTagMin = core.RawTagMin

// RegisterRawMessage registers application raw-message type T under a wire
// extension tag: RegisterRawMessage[T](tag), where *T has a Wire(WireCodec)
// method that walks T's fields in wire order. Registered types become
// wire-codable: SendRaw coalesces them per destination on the egress
// scheduler (batch carriers instead of one message per send), and byte-level
// transports frame them through the deterministic wire codec. Unregistered types cannot be sent. Tags are
// process-wide, append-only wire contracts — see docs/WIRE.md for the
// assignments in use. Registration panics on tag or type conflicts;
// re-registering the same pair is a no-op.
func RegisterRawMessage[T any, P interface {
	*T
	Wire(WireCodec)
}](tag byte) {
	core.RegisterRawMessage[T, P](tag)
}

// Node is one Atum participant.
type Node struct {
	inner *core.Node
}

// NewNode creates a node from its configuration. Hand the node to a runtime
// (SimCluster or RealtimeRuntime) before calling Bootstrap or Join.
func NewNode(cfg Config) *Node { return &Node{inner: core.New(cfg)} }

// Bootstrap creates a new Atum instance with this node as the only member.
func (n *Node) Bootstrap() error { return n.inner.Bootstrap() }

// Join joins an existing instance through a trusted contact node.
func (n *Node) Join(contact Identity) error { return n.inner.Join(contact) }

// Leave requests removal from the system.
func (n *Node) Leave() error { return n.inner.Leave() }

// BroadcastWith disseminates data to every node in the system: the paper's
// broadcast(m). BroadcastOpts is empty, so every caller passes
// BroadcastOpts{}; its broadcast TTL is gone (docs/API.md). The former
// Broadcast(data) wrapper was removed in the scheduled API-breaking
// release ("Migration from the zero-option signatures" in docs/API.md).
func (n *Node) BroadcastWith(data []byte, opts BroadcastOpts) error {
	return n.inner.BroadcastWith(data, opts)
}

// Identity returns this node's identity (with public key).
func (n *Node) Identity() Identity { return n.inner.Identity() }

// IsMember reports whether the node currently belongs to a vgroup.
func (n *Node) IsMember() bool { return n.inner.IsMember() }

// GroupSize returns the node's current vgroup size (0 if not a member).
func (n *Node) GroupSize() int { return n.inner.Comp().N() }

// GroupMembers returns a copy of the node's current vgroup member
// identities: callers may keep or mutate the slice freely without touching
// engine state.
func (n *Node) GroupMembers() []Identity { return n.inner.Comp().Members }

// SendRawWith sends an application-level message to another node
// (delivered to its Callbacks.OnRawMessage hook), with its flow-control
// option, a priority class; SendOpts{} means the default class.
// It reports failures instead of silently dropping — ErrNotRunning,
// ErrEgressOverflow, ErrUnregisteredType (see docs/API.md). The former
// SendRaw(to, msg) wrapper was removed in the scheduled API-breaking
// release ("Migration from the zero-option signatures" in docs/API.md).
func (n *Node) SendRawWith(to NodeID, msg any, opts SendOpts) error {
	return n.inner.SendRawWith(to, msg, opts)
}

// Stats returns a snapshot of the node's counters (splits, merges,
// evictions, shuffle exchanges and shuffles its vgroup applied) and of its
// egress scheduler (per-destination queue depth, pressure level and drop
// counters). Call from the node's actor context: in simulation, harness code
// between Run calls is also safe; under RealtimeRuntime, read it inside
// RT.Invoke.
func (n *Node) Stats() Stats { return n.inner.Stats() }

// EgressPressure returns the pressure level of the node's egress queue toward
// dest — Low when nothing is queued for it — in O(1). Read it before sending
// to pace a flood; like Stats, from the node's actor context.
func (n *Node) EgressPressure(dest NodeID) PressureLevel { return n.inner.EgressPressure(dest) }

// Now returns the node's clock (virtual under simulation).
func (n *Node) Now() time.Duration { return n.inner.Now() }

// Inner exposes the engine node for advanced integrations (applications in
// this module and the experiment harness).
func (n *Node) Inner() *core.Node { return n.inner }

// --- simulated cluster runtime ---

// SimCluster runs Atum nodes on the deterministic discrete-event simulator:
// the default way to experiment with Atum on one machine and the substrate
// of the evaluation harness.
type SimCluster struct {
	Net    *simnet.Network
	nextID uint64
	mode   smr.Mode
}

// SimOptions configures a SimCluster.
type SimOptions struct {
	// Seed makes runs reproducible.
	Seed int64
	// Mode selects the SMR engine (default ModeSync).
	Mode smr.Mode
	// NetConfig overrides the simulated network configuration.
	NetConfig *simnet.Config
}

// NewSimCluster creates an empty simulated cluster.
func NewSimCluster(opts SimOptions) *SimCluster {
	if opts.Mode == 0 {
		opts.Mode = smr.ModeSync
	}
	nc := simnet.Config{Seed: opts.Seed, Latency: simnet.LANLatency()}
	if opts.NetConfig != nil {
		nc = *opts.NetConfig
	}
	return &SimCluster{Net: simnet.New(nc), mode: opts.Mode}
}

// AddNode creates a node with test-friendly fast timers, registers it with
// the simulated network, and returns it.
func (c *SimCluster) AddNode(cb Callbacks) *Node { return c.AddNodeWith(cb, nil) }

// AddNodeWith is AddNode with a per-node config mutation, for a Config field
// the defaults do not suit (the experiment harness turns shuffling off with
// it). Applications need no mutation: their hooks are all in Callbacks.
func (c *SimCluster) AddNodeWith(cb Callbacks, mut func(*Config)) *Node {
	c.nextID++
	id := ids.NodeID(c.nextID)
	cfg := Config{
		Identity:       Identity{ID: id, Addr: fmt.Sprintf("sim:%d", id)},
		SignerSeed:     []byte(fmt.Sprintf("sim-node-%d", id)),
		Scheme:         crypto.SimScheme{},
		Mode:           c.mode,
		Params:         Params{HC: 3, RWL: 4, GMax: 8, GMin: 4},
		RoundDuration:  100 * time.Millisecond,
		HeartbeatEvery: time.Second,
		EvictAfter:     6 * time.Second,
		WalkTimeout:    5 * time.Second,
		JoinTimeout:    10 * time.Second,
		RequestTimeout: time.Second,
		Callbacks:      cb,
	}
	if mut != nil {
		mut(&cfg)
	}
	n := NewNode(cfg)
	c.Net.Add(id, n.inner)
	return n
}

// Run advances virtual time by d.
func (c *SimCluster) Run(d time.Duration) { c.Net.Run(c.Net.Now() + d) }

// RunUntil advances virtual time in small steps until cond holds or the
// deadline passes; it reports whether cond held. If cond already holds it
// returns true without advancing time, and it never advances past
// Now()+max — the final step is clamped to the deadline exactly, so events
// scheduled at the deadline still count.
func (c *SimCluster) RunUntil(cond func() bool, max time.Duration) bool {
	deadline := c.Net.Now() + max
	for !cond() && c.Net.Now() < deadline {
		step := c.Net.Now() + 50*time.Millisecond
		if step > deadline {
			step = deadline
		}
		c.Net.Run(step)
	}
	return cond()
}

// Now returns the cluster's virtual time.
func (c *SimCluster) Now() time.Duration { return c.Net.Now() }
