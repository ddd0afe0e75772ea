package atum

import (
	"fmt"
	"sync"
	"time"

	"atum/internal/core"
	"atum/internal/crypto"
	"atum/internal/ids"
	"atum/internal/rtnet"
	"atum/internal/smr"
	"atum/internal/tcpnet"
)

// RealtimeOptions configures a real-time runtime (NewRealtimeRuntime).
type RealtimeOptions struct {
	// Seed makes node-local randomness reproducible (timers and the wall
	// clock still make real-time runs nondeterministic).
	Seed int64
	// Mode selects the SMR engine (default ModeAsync: wall-clock networks
	// rarely justify the synchronous model's lockstep rounds).
	Mode smr.Mode
	// Transport, when set, carries traffic to nodes hosted elsewhere
	// (tcpnet.New provides wire frames over TCP). When nil the runtime is
	// loopback-only: all nodes must live in this process.
	Transport rtnet.Transport
	// Logf, when set, receives runtime debug logs.
	Logf func(format string, args ...any)
}

// RealtimeRuntime hosts Atum nodes on wall-clock time: one goroutine and one
// mailbox per node. With a Transport it spans processes and hosts; without
// one it is an in-process real-time cluster.
//
// All Atum API calls on nodes hosted here must go through the runtime's
// wrappers (Bootstrap, Join, Leave, BroadcastWith, SendRawWith): they inject
// the call into the node's serialized event loop, which is what makes the
// engine safe without locks.
type RealtimeRuntime struct {
	RT *rtnet.Runtime

	opts   RealtimeOptions
	mu     sync.Mutex
	nextID uint64
}

// NewRealtimeRuntime creates a real-time runtime.
func NewRealtimeRuntime(opts RealtimeOptions) *RealtimeRuntime {
	if opts.Mode == 0 {
		opts.Mode = smr.ModeAsync
	}
	rt := rtnet.New(rtnet.Options{Transport: opts.Transport, Seed: opts.Seed, Logf: opts.Logf})
	return &RealtimeRuntime{RT: rt, opts: opts}
}

// AddNode creates a node with deployment-oriented defaults (real ed25519
// signatures, second-scale timeouts), registers it, and returns it. The
// identity's address is synthetic ("local:<id>"); for TCP deployments use
// AddNodeWith and set Config.Identity.Addr to the node's listen address.
func (r *RealtimeRuntime) AddNode(cb Callbacks) (*Node, error) {
	return r.AddNodeWith(cb, nil)
}

// AddNodeWith is AddNode with a per-node config mutation applied before the
// node is created.
func (r *RealtimeRuntime) AddNodeWith(cb Callbacks, mut func(*Config)) (*Node, error) {
	r.mu.Lock()
	r.nextID++
	id := ids.NodeID(r.nextID)
	r.mu.Unlock()
	cfg := Config{
		Identity:       Identity{ID: id, Addr: fmt.Sprintf("local:%d", id)},
		SignerSeed:     []byte(fmt.Sprintf("rt-node-%d-%d", r.opts.Seed, id)),
		Scheme:         crypto.Ed25519Scheme{},
		Mode:           r.opts.Mode,
		Params:         Params{HC: 3, RWL: 4, GMax: 8, GMin: 4},
		RoundDuration:  100 * time.Millisecond,
		HeartbeatEvery: time.Second,
		EvictAfter:     10 * time.Second,
		WalkTimeout:    5 * time.Second,
		JoinTimeout:    10 * time.Second,
		RequestTimeout: time.Second,
		Callbacks:      cb,
	}
	if mut != nil {
		mut(&cfg)
	}
	return r.Host(NewNode(cfg))
}

// Host registers an externally-configured node with the runtime.
func (r *RealtimeRuntime) Host(n *Node) (*Node, error) {
	if err := r.RT.Add(n.Identity().ID, n.inner); err != nil {
		return nil, err
	}
	return n, nil
}

// Bootstrap creates a new Atum instance with n as the only member.
func (r *RealtimeRuntime) Bootstrap(n *Node) error { return r.invoke(n, n.inner.Bootstrap) }

// Join joins n to an existing instance through a trusted contact.
func (r *RealtimeRuntime) Join(n *Node, contact Identity) error {
	return r.invoke(n, func() error { return n.inner.Join(contact) })
}

// Leave requests n's removal from the system.
func (r *RealtimeRuntime) Leave(n *Node) error { return r.invoke(n, n.inner.Leave) }

// BroadcastWith disseminates data from n to every node in the system.
// BroadcastOpts is empty: pass BroadcastOpts{} (docs/API.md).
func (r *RealtimeRuntime) BroadcastWith(n *Node, data []byte, opts BroadcastOpts) error {
	return r.invoke(n, func() error { return n.inner.BroadcastWith(data, opts) })
}

// SendRawWith sends an application raw message from n, inside its event
// loop, with flow-control options (SendOpts{} means defaults), and returns
// the typed send result (ErrNotRunning, ErrEgressOverflow,
// ErrUnregisteredType).
func (r *RealtimeRuntime) SendRawWith(n *Node, to NodeID, msg any, opts SendOpts) error {
	return r.invoke(n, func() error { return n.inner.SendRawWith(to, msg, opts) })
}

// IsMember reports n's membership, read inside its loop.
func (r *RealtimeRuntime) IsMember(n *Node) bool {
	var m bool
	if err := r.RT.Invoke(n.Identity().ID, func() { m = n.inner.IsMember() }); err != nil {
		return false
	}
	return m
}

// GroupSize returns n's current vgroup size, read inside its loop.
func (r *RealtimeRuntime) GroupSize(n *Node) int {
	var g int
	if err := r.RT.Invoke(n.Identity().ID, func() { g = n.inner.Comp().N() }); err != nil {
		return 0
	}
	return g
}

// Remove gracefully stops hosting the node (its engine Stop runs; no leave
// protocol — use Leave first for a graceful departure).
func (r *RealtimeRuntime) Remove(n *Node) { r.RT.Remove(n.Identity().ID) }

// Crash fail-stops the node without notice.
func (r *RealtimeRuntime) Crash(n *Node) { r.RT.Crash(n.Identity().ID) }

// Close stops all hosted nodes and the transport.
func (r *RealtimeRuntime) Close() error { return r.RT.Close() }

func (r *RealtimeRuntime) invoke(n *Node, fn func() error) error {
	var err error
	if ierr := r.RT.Invoke(n.Identity().ID, func() { err = fn() }); ierr != nil {
		return ierr
	}
	return err
}

// WireMessageCodec returns the engine's deterministic wire-envelope codec
// for byte-level transports: pass it as tcpnet.Options.Codec (required),
// which frames engine messages and application raw messages registered
// with RegisterRawMessage (docs/WIRE.md).
func WireMessageCodec() tcpnet.Codec { return core.MessageCodec{} }
