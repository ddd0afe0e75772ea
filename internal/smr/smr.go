// Package smr defines the state-machine-replication abstraction every
// volatile group runs internally (paper §3.1).
//
// Atum is deliberately agnostic to the SMR engine: the synchronous
// implementation (internal/smr/dolev, Dolev-Strong agreement, tolerates
// f = ⌊(g−1)/2⌋ faults) and the asynchronous one (internal/smr/pbft,
// PBFT-style, f = ⌊(g−1)/3⌋) implement the same Replica interface. A Replica
// is bound to one fixed configuration — a (group, epoch, member list) triple;
// membership changes retire the replica and start a fresh one for the next
// epoch (SMART-style reconfiguration).
package smr

import (
	"time"

	"atum/internal/actor"
	"atum/internal/crypto"
	"atum/internal/ids"
	"atum/internal/wire"
)

// Operation is a unit of agreement: an opaque payload attributed to the
// member named Proposer. (Proposer, OpID) identifies the operation for
// deduplication across epoch restarts and re-proposals.
//
// The engines check Proposer only as far as their messages carry a sender:
// Dolev-Strong commits a slot's ops only when each names the slot's signing
// sender, and PBFT drops a Request whose op names a member other than the
// one it came from. A PBFT primary orders batches that backups check against
// their digest only, so a faulty primary can still commit an op under any
// member's name.
type Operation struct {
	Proposer ids.NodeID
	OpID     uint64
	Data     []byte
}

// Wire walks an Operation's fields in wire order (byte-level transport
// framing); a list of them is wire.List(c, &ops, (*Operation).Wire).
func (op *Operation) Wire(c wire.Codec) {
	wire.U64(c, &op.Proposer)
	c.Uint64(&op.OpID)
	c.VarBytes(&op.Data)
}

// CommitFn receives operations in the total order decided by the replica
// group. Every correct member observes the same sequence of calls.
type CommitFn func(op Operation)

// Replica is one member's participation in one epoch of a vgroup's SMR.
//
// Replicas are passive state machines: the host engine feeds them messages
// and timer expirations and calls Tick at synchronous round boundaries.
type Replica interface {
	// Propose submits an operation for total ordering. The replica
	// guarantees at-least-once commitment while the epoch lives and a
	// majority/quorum of members is correct; the host deduplicates by
	// (Proposer, OpID).
	Propose(op Operation)
	// Receive handles a protocol message from another member.
	Receive(from ids.NodeID, msg actor.Message)
	// HandleTimer handles expiry of a timer the replica set via
	// Config.SetTimer (asynchronous engines only).
	HandleTimer(data any)
	// Tick notifies the replica of a synchronous round boundary
	// (synchronous engines only; round numbers increase by one).
	Tick(round uint64)
	// Stop retires the replica; it must not send messages afterwards.
	Stop()
}

// Config binds a replica to its configuration and host environment. The host
// supplies closures rather than an actor.Env so replicas can be unit-tested
// in isolation and so the host can wrap messages in routing envelopes.
type Config struct {
	GroupID ids.GroupID
	Epoch   uint64
	// Members is the canonical (NodeID-sorted) composition of the group
	// for this epoch.
	Members []ids.Identity
	Self    ids.NodeID
	Scheme  crypto.Scheme
	Signer  crypto.Signer
	// Send transmits a protocol message to one member.
	Send func(to ids.NodeID, msg actor.Message)
	// SetTimer schedules HandleTimer(data) after d.
	SetTimer func(d time.Duration, data any)
	// Commit delivers the next committed operation.
	Commit CommitFn
	// Logf, when non-nil, receives debug logs.
	Logf func(format string, args ...any)
}

// N returns the group size.
func (c *Config) N() int { return len(c.Members) }

// Logln logs through Logf when configured.
func (c *Config) Logln(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// SyncF is the synchronous fault bound f = ⌊(g−1)/2⌋ (Dolev-Strong [32]).
func SyncF(g int) int { return (g - 1) / 2 }

// AsyncF is the asynchronous fault bound f = ⌊(g−1)/3⌋ (PBFT [20]).
func AsyncF(g int) int { return (g - 1) / 3 }

// Mode selects which SMR engine a vgroup runs.
type Mode int

// Engine modes. Per the style guide, enums start at 1 so the zero value is
// detectably unset.
const (
	// ModeSync is the synchronous Dolev-Strong engine (f = ⌊(g−1)/2⌋).
	ModeSync Mode = iota + 1
	// ModeAsync is the PBFT-style eventually-synchronous engine
	// (f = ⌊(g−1)/3⌋).
	ModeAsync
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeSync:
		return "sync"
	case ModeAsync:
		return "async"
	default:
		return "unknown"
	}
}

// F returns the per-group fault tolerance of the mode for group size g.
func (m Mode) F(g int) int {
	if m == ModeAsync {
		return AsyncF(g)
	}
	return SyncF(g)
}

// OpsDigest computes a canonical digest over a batch of operations; SMR
// engines bind signatures to it.
func OpsDigest(groupID ids.GroupID, epoch uint64, tag uint64, sender ids.NodeID, ops []Operation) crypto.Digest {
	return crypto.Hash(wire.Frame(func(e *wire.Encoder) {
		for _, v := range [...]uint64{uint64(groupID), epoch, tag, uint64(sender), uint64(len(ops))} {
			e.Uint64(v)
		}
		for _, op := range ops {
			e.Uint64(uint64(op.Proposer))
			e.Uint64(op.OpID)
			e.Bytes32(crypto.Hash(op.Data))
		}
	}))
}
