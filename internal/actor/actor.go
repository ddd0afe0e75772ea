// Package actor defines the event-driven node model every Atum protocol is
// written against.
//
// A node is a deterministic state machine driven by three inputs: a start
// signal, incoming messages, and timer expirations. All side effects go
// through an Env (send a message, set a timer, draw randomness). The same
// protocol code therefore runs unchanged on the discrete-event simulator
// (internal/simnet, virtual time) and on the real runtime (internal/tcpnet,
// one goroutine + mailbox per node, wall-clock time).
//
// Within one node, callbacks are never concurrent: the runtime serializes
// Start/Receive/Timer/Stop. Protocol state needs no locks.
package actor

import (
	"math/rand"
	"time"

	"atum/internal/ids"
)

// Message is any protocol message. Concrete message types are plain structs;
// the TCP runtime additionally requires them to be wire-codable. It is an
// alias, not a defined type, so external Env and Transport implementations
// may spell it "any" in their method signatures.
type Message = any

// TimerID identifies a pending timer for cancellation.
type TimerID uint64

// Env is the interface through which a node acts on the world.
// Implementations: simnet's per-node environment, and the real-time runtime.
type Env interface {
	// Self returns this node's ID.
	Self() ids.NodeID
	// Now returns the current time as an offset from runtime start
	// (virtual in simulation, monotonic wall clock otherwise).
	Now() time.Duration
	// Send delivers msg to the node identified by to, asynchronously and
	// with network delay. Sends to unknown or crashed nodes are dropped.
	Send(to ids.NodeID, msg Message)
	// SetTimer schedules a Timer callback after d with the given payload
	// and returns an ID usable with CancelTimer.
	SetTimer(d time.Duration, data any) TimerID
	// CancelTimer cancels a pending timer. Cancelling an already-fired or
	// unknown timer is a no-op.
	CancelTimer(id TimerID)
	// Rand returns this node's deterministic random source.
	Rand() *rand.Rand
	// Logf emits a debug log line attributed to this node.
	Logf(format string, args ...any)
}

// Node is the behaviour a protocol implements.
type Node interface {
	// Start is called exactly once, before any other callback.
	Start(env Env)
	// Receive handles one incoming message. The from field is the
	// authenticated link-level sender (point-to-point channels are
	// MAC-authenticated in the paper's model, so Byzantine nodes cannot
	// spoof it; they can send arbitrary message *contents*).
	Receive(from ids.NodeID, msg Message)
	// Timer handles an expired timer previously set through Env.SetTimer.
	Timer(id TimerID, data any)
	// Stop is called when the node leaves the runtime gracefully.
	Stop()
}

// AddrBook is optionally implemented by environments whose transport routes
// by network address (the TCP runtime): protocols report every (node ID,
// network address) pair they learn — from compositions, join requests, and
// contact handshakes — so the transport knows where to dial. Runtimes that
// route by ID alone (the simulator, the in-process real-time runtime) simply
// do not implement it.
type AddrBook interface {
	LearnAddr(id ids.NodeID, addr string)
}

// LearnIdentity records id.Addr for id.ID if env — an Env, or the part of one
// a protocol keeps — belongs to a runtime that keeps an address book; it is a
// no-op otherwise, and for blank or incomplete identities.
func LearnIdentity(env any, id ids.Identity) {
	if env == nil || id.ID == 0 || id.Addr == "" {
		return
	}
	if ab, ok := env.(AddrBook); ok {
		ab.LearnAddr(id.ID, id.Addr)
	}
}

// Sizer is implemented by messages that know their wire size. The
// simulator's bandwidth model consults it; messages that do not implement it
// (the engine's join messages) are assumed to be DefaultMessageSize bytes.
// Group messages, heartbeats and the payload pulls and pushes report the
// exact length of their wire frame; the SMR envelope and the SMR messages
// inside it report estimates.
type Sizer interface {
	WireSize() int
}

// DefaultMessageSize is the assumed wire size of messages that do not
// implement Sizer: a small protocol message with headers and a few fields.
const DefaultMessageSize = 256

// SizeOf returns the wire size used for bandwidth accounting.
func SizeOf(msg Message) int {
	if s, ok := msg.(Sizer); ok {
		return s.WireSize()
	}
	return DefaultMessageSize
}
