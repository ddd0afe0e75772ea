// Package core implements the Atum engine: the protocol state machine each
// node runs, tying together the group layer (vgroups + SMR), the overlay
// layer (H-graph, gossip, random walks, shuffling, logarithmic grouping) and
// the API operations (bootstrap, join, leave, broadcast) of paper §3.
//
// # Determinism architecture
//
// Every decision a vgroup takes — admitting a join, evicting a silent
// member, forwarding a random walk, splitting — is driven by an operation
// committed through the vgroup's SMR engine and applied by a deterministic
// transition function, so all correct members act as one entity. Events that
// enter a vgroup from outside (group messages) are injected as *vote
// operations*: each member that observed the event proposes it, and the
// transition fires once f+1 distinct members endorsed it — at least one of
// them correct. Randomness the whole vgroup must agree on is derived from a
// PRF seeded by the committed operation's digest, which is the same
// pre-commitment idea as the paper's bulk RNG (§5.1).
//
// Membership changes are epoch barriers (SMART-style): the reconfiguration
// op is the last op applied in its epoch; every member then restarts the SMR
// engine with the new configuration, and unapplied proposals are re-issued.
package core

import (
	"time"

	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/smr"
)

// Params are the system parameters of Table 1.
type Params struct {
	// HC is the number of H-graph cycles (typical 2..12).
	HC int
	// RWL is the random-walk length (typical 4..15).
	RWL int
	// GMax is the maximum vgroup size before a split (8, 14, 20, ...).
	GMax int
	// GMin is the minimum vgroup size before a merge (typically GMax/2).
	GMin int
}

// DefaultParams returns the parameters used for a small-to-medium system
// (≈100 vgroups): hc=6, rwl=9 per the Fig. 4 guideline, gmax=8.
func DefaultParams() Params {
	return Params{HC: 6, RWL: 9, GMax: 8, GMin: 4}
}

// withDefaults fills unset fields.
func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.HC <= 0 {
		p.HC = d.HC
	}
	if p.RWL <= 0 {
		p.RWL = d.RWL
	}
	if p.GMax <= 0 {
		p.GMax = d.GMax
	}
	if p.GMin <= 0 {
		p.GMin = p.GMax / 2
	}
	return p
}

// Behavior selects the fault behaviour of a node, for experiments (§6.1.3):
// see Node.SetBehavior.
type Behavior int

// Node behaviours.
const (
	// BehaviorCorrect follows the protocol.
	BehaviorCorrect Behavior = iota + 1
	// BehaviorSilent is the Async-experiment Byzantine node: it joins, then
	// stays completely quiet (sends nothing, ignores everything).
	BehaviorSilent
	// BehaviorHeartbeatOnly is the Sync-experiment Byzantine node: it
	// participates in no protocol except (1) sending heartbeats to avoid
	// eviction and (2) proposing to evict every other member of its vgroup,
	// votes that reach agreement and, from at most f members, evict nobody.
	BehaviorHeartbeatOnly
)

// String implements fmt.Stringer.
func (b Behavior) String() string {
	switch b {
	case BehaviorSilent:
		return "silent"
	case BehaviorHeartbeatOnly:
		return "heartbeat-only"
	default:
		return "correct"
	}
}

// Callbacks connects the engine to the application (§3.3). Metrics and egress
// pressure are not pushed through it: the application reads them when it
// decides, with Node.Stats and Node.EgressPressure.
type Callbacks struct {
	// Deliver is invoked exactly once per broadcast message delivered at
	// this node (required).
	Deliver func(d Delivery)
	// Forward decides, per neighbor link, whether to forward a broadcast
	// (nil = forward on every link, flooding all cycles). It is called once
	// per distinct neighbor composition for every broadcast this node
	// delivers — also for a link on which, the answer being yes, nothing is
	// then sent because the neighbor is known to hold the broadcast
	// (forwardGossip).
	Forward func(d Delivery, link ForwardLink) bool
	// OnJoined fires when this node becomes a member of a vgroup: at
	// Bootstrap, when a join completes, and when a move by an exchange or a
	// merge completes at the destination vgroup's snapshot. A split moves
	// half the members into a new vgroup without firing it.
	OnJoined func(comp group.Composition)
	// OnLeft fires when this node stops being a member, or gives up
	// becoming one, with no vgroup to go to. The reason is "leave",
	// "evict", "join-failed" (Join ran out of attempts) or "orphaned" (a
	// move whose destination's snapshot never came, with no vgroup known to
	// rejoin through). A move by an exchange or a merge does not fire it:
	// the node waits for the destination's snapshot, and OnJoined fires
	// again when it is installed.
	OnLeft func(reason string)
	// OnApply, when set, observes every state transition the node applies:
	// (group, epoch, op content digest, op type). Intended for divergence
	// detectors in tests; all correct members of a vgroup must report the
	// same sequence per epoch.
	OnApply func(gid uint64, epoch uint64, digest [32]byte, kind string)
	// OnRawMessage, when set, receives the decoded application raw messages
	// peers sent with SendRawWith — the extension point applications (AShare
	// chunk transfer, AStream tier-2 multicast) build their own protocols on.
	OnRawMessage func(from ids.NodeID, msg any)
}

// Delivery is one delivered broadcast.
type Delivery struct {
	BcastID crypto.Digest
	Origin  ids.NodeID
	// Data is the node's own copy of the payload.
	Data []byte
}

// ForwardLink describes one outgoing overlay link offered to Forward.
type ForwardLink struct {
	Cycle    int
	Succ     bool // true: successor direction, false: predecessor
	Neighbor ids.GroupID
}

// Config configures one Atum node.
type Config struct {
	// Identity is this node's public identity. Required.
	Identity ids.Identity
	// SignerSeed deterministically derives the node's key pair. Required.
	SignerSeed []byte
	// Scheme is the signature scheme (crypto.Ed25519Scheme or
	// crypto.SimScheme). Required.
	Scheme crypto.Scheme
	// Mode selects the SMR engine: smr.ModeSync (Dolev-Strong, rounds) or
	// smr.ModeAsync (PBFT). Required. It also fixes how walk results travel
	// back to the originating vgroup (§5.1): the synchronous engine relays
	// them backward through the visited vgroups (no signature verification
	// on the critical path); the asynchronous one has the target reply
	// directly to the origin with a certificate chain appended (chain size
	// is linear in rwl).
	Mode smr.Mode
	// Params are the Table 1 overlay parameters.
	Params Params
	// RoundDuration is the lockstep round length for ModeSync (and the
	// housekeeping tick for ModeAsync). Paper: 1–1.5 s.
	RoundDuration time.Duration
	// HeartbeatEvery is the heartbeat period (§5.1: coarse, e.g. one per
	// minute in production; shorter in experiments).
	HeartbeatEvery time.Duration
	// EvictAfter is the silence duration after which members vote to evict.
	EvictAfter time.Duration
	// WalkTimeout bounds how long a vgroup waits for a walk reply.
	WalkTimeout time.Duration
	// JoinTimeout bounds each stage of the joiner-side protocol.
	JoinTimeout time.Duration
	// RequestTimeout is the PBFT progress timeout (ModeAsync).
	RequestTimeout time.Duration
	// GossipMaxBatch caps how many logical messages bound for the same
	// destination are coalesced into one egress batch carrier (§3.3.4's
	// dissemination phase is the hot path under concurrent broadcasts; churn
	// updates, walk traffic and raw-message floods share the same
	// per-destination queues — see internal/egress). 0 selects the default
	// (64). A carrier is also cut at 256 KiB of pending payload.
	GossipMaxBatch int
	// EgressMaxFlushWindow caps the egress scheduler's adaptive flush
	// window. The window is derived per destination from the observed
	// arrival rate: zero when the destination is idle (a lone send pays no
	// batching latency), widening toward this cap under bursts so batches
	// fill. In ModeSync, group-addressed sends are round-quantized and flush
	// at the lockstep round tick instead; the window still paces raw
	// (node-addressed) traffic. 0 selects the default (5 ms, a few LAN round
	// trips).
	EgressMaxFlushWindow time.Duration
	// DisableShuffle turns off post-reconfiguration shuffling (ablation).
	DisableShuffle bool
	// Callbacks connect the application.
	Callbacks Callbacks
}

func (c Config) withDefaults() Config {
	c.Params = c.Params.withDefaults()
	if c.RoundDuration <= 0 {
		c.RoundDuration = time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 10 * time.Second
	}
	if c.EvictAfter <= 0 {
		c.EvictAfter = 6 * c.HeartbeatEvery
	}
	if c.WalkTimeout <= 0 {
		c.WalkTimeout = 30 * time.Second
	}
	if c.JoinTimeout <= 0 {
		c.JoinTimeout = 30 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Second
	}
	if c.GossipMaxBatch <= 0 {
		c.GossipMaxBatch = 64
	}
	if c.GossipMaxBatch > group.MaxBatchItems {
		// Receivers reject frames above the group-layer item limit outright;
		// an over-configured sender would lose every full batch it emits.
		c.GossipMaxBatch = group.MaxBatchItems
	}
	if c.EgressMaxFlushWindow <= 0 {
		c.EgressMaxFlushWindow = 5 * time.Millisecond
	}
	return c
}
