package egress

// The Port is the one place that knows how a message leaves a node. The engine
// hands it the node's actor.Env at Start and keeps none itself, so nothing
// else can reach the transport. Handlers call one of its methods and the
// destination and the engine's Rules decide the rest:
//
//   - Group: a group message to every member of a vgroup. A kind a carrier may
//     deliver is queued on the Scheduler, whose batches come back through frame
//     as ordinary group messages (one item) or carriers; any other kind (merge
//     negotiation) leaves alone. In the synchronous engine both wait for the
//     round tick: FlushDeferred frames the round.
//   - ToNode: a group message to one node (snapshots, the backward-mode join
//     redirect), never queued or held.
//   - Node: a node-level message (NodeMsg), never queued or held.
//   - GroupAttach, Chained and ChainedTo: the certificate-mode walk hop, walk
//     reply and join redirect, which carry this member's chain as a
//     sender-specific attachment that a carrier frame has no slot for.
//     Certificate mode is asynchronous, so they leave at once.
//
// Application raw messages (Scheduler.EnqueueNodeWith) enter the Scheduler's
// node-addressed queues directly. Below all of it sit the two bottom paths:
// sendGroup, toward a vgroup's members, and sendDirect, to a single node.
//
// Correctness needs no cross-member coordination: the receiver votes each
// inner item into its inbox under the item's own MsgID, so members whose
// flush windows cut differently still converge (internal/group/batch.go).
// Batches always leave stamped with the source composition captured at
// enqueue time — the Scheduler closes a destination whose source changes, and
// the engine calls FlushAll before every replicated-state replacement
// (reconfigure, split install, merge dissolve, epoch catch-up).

import (
	"atum/internal/actor"
	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
)

// Rules is what the engine decides about its own traffic and this package,
// below the engine, cannot import.
type Rules struct {
	// Self is the node's ID: a member's index in the source composition
	// decides whether its copies carry payloads.
	Self ids.NodeID
	// Sync holds every group message for the round tick (FlushDeferred): the
	// synchronous engine moves one overlay hop per round, like the paper's
	// round-based Sync implementation.
	Sync bool
	// Carrier is the group kind of a batch carrier; CarrierOK says which kinds
	// one may deliver (the receiver reads the same column).
	Carrier   group.Kind
	CarrierOK func(group.Kind) bool
	// MuteGroup and MuteDirect are read at every send on the two bottom
	// paths — toward a vgroup's members, and to a single node — and drop it
	// when they report true: the engine's Byzantine behaviours.
	MuteGroup, MuteDirect func() bool
}

// NodeMsg is a node-level message: a handshake with a node that shares no
// vgroup with this one, a failure detector's beacon or consensus itself. Its
// types opt in with the NodeAddressed marker, which group.GroupMsg lacks: a
// group message leaves through the Port's group-message methods, built there,
// never hand-built by a caller.
type NodeMsg interface{ NodeAddressed() }

// Port is a node's way out: the Scheduler plus the transport handle it frames
// onto. Create with NewPort; Start attaches the runtime.
type Port struct {
	*Scheduler
	env   actor.Env
	rules Rules
}

// NewPort builds a node's port over a Scheduler configured by cfg; its Flush
// is the port's own framing.
func NewPort(cfg Config, r Rules) *Port {
	p := &Port{rules: r}
	cfg.Flush = p.frame
	p.Scheduler = New(cfg)
	return p
}

// Start hands the port the node's runtime: from then on the port alone sends,
// and alone draws from the node's random stream (destination orders).
func (p *Port) Start(env actor.Env) { p.env = env }

// Group sends one logical group message to every member of dst. src is the
// composition the message's MsgID was derived under.
func (p *Port) Group(src, dst group.Composition, it group.BatchItem) {
	if !p.rules.CarrierOK(it.Kind) {
		p.EnqueueAlone(src, dst, it, p.rules.Sync)
		return
	}
	p.EnqueueGroup(src, dst, it, p.rules.Sync)
}

// GroupAttach is Group for a message that carries this member's attachment:
// the receiver votes it like any group message, so only the majority members
// send the payload, but it leaves at once.
func (p *Port) GroupAttach(src, dst group.Composition, it group.BatchItem, attach []byte) {
	group.Send(p.sendGroup, p.env.Rand(), src, p.rules.Self, dst, it, attach)
}

// ToNode sends one logical group message from src to a single node. As
// toward a vgroup, only a majority member of src sends the payload.
func (p *Port) ToNode(src group.Composition, to ids.NodeID, kind group.Kind, msgID crypto.Digest, payload []byte) {
	msg := message(src, 0, kind, msgID, payload, nil)
	if idx := src.Index(p.rules.Self); idx < 0 || idx >= src.Majority() {
		msg.Payload = nil
	}
	p.sendDirect(to, msg)
}

// Chained sends this member's copy of a certificate-mode message, with its
// chain attached, to every member of dst. The receiver judges each copy alone,
// by its chain, and votes nothing: every member sends the payload, and the
// copy names no destination epoch.
func (p *Port) Chained(src, dst group.Composition, kind group.Kind, msgID crypto.Digest, payload, attach []byte) {
	msg := message(src, dst.GroupID, kind, msgID, payload, attach)
	for _, i := range p.env.Rand().Perm(dst.N()) {
		p.sendGroup(dst.Members[i].ID, msg)
	}
}

// ChainedTo is Chained to a single node.
func (p *Port) ChainedTo(src group.Composition, to ids.NodeID, kind group.Kind, msgID crypto.Digest, payload, attach []byte) {
	p.sendDirect(to, message(src, 0, kind, msgID, payload, attach))
}

// message is this member's copy of one logical group message, payload and
// attachment included; the destination epoch is left out.
func message(src group.Composition, dst ids.GroupID, kind group.Kind, msgID crypto.Digest, payload, attach []byte) group.GroupMsg {
	return group.GroupMsg{SrcGroup: src.GroupID, SrcEpoch: src.Epoch, DstGroup: dst, Kind: kind, MsgID: msgID,
		PayloadDigest: crypto.Hash(payload), Payload: payload, Attach: attach}
}

// Node sends one node-level message.
func (p *Port) Node(to ids.NodeID, msg NodeMsg) { p.sendDirect(to, msg) }

// sendGroup is the bottom path toward a vgroup's members.
func (p *Port) sendGroup(to ids.NodeID, msg actor.Message) {
	if !p.rules.MuteGroup() {
		p.env.Send(to, msg)
	}
}

// sendDirect is the bottom path to a single node.
func (p *Port) sendDirect(to ids.NodeID, msg actor.Message) {
	if !p.rules.MuteDirect() {
		p.env.Send(to, msg)
	}
}

// frame is the Scheduler's Flush: it frames one destination's batch onto the
// wire. It reads nothing of the engine's state — the captured src/dst keep a
// flush correct even when it runs after the group state it was enqueued under
// is gone (merge dissolve, departure).
//
// A node-addressed batch (raw traffic) is link-authenticated and carries full
// payloads, and is never held for a round: tier-2 data must not wait for
// round boundaries. A single item leaves as a plain message — a carrier frame
// would only add overhead. A carrier's MsgID is zero, like its PayloadDigest:
// the receiver votes the inner items under their own MsgIDs and reads neither.
func (p *Port) frame(src, dst group.Composition, node ids.NodeID, items []group.BatchItem) {
	switch it := items[0]; {
	case node != 0 && len(items) == 1:
		// The engine sets a raw item's MsgID to its payload hash, so the
		// digest is already computed (the idle fast path is per-chunk hot).
		p.sendDirect(node, group.GroupMsg{SrcGroup: src.GroupID, SrcEpoch: src.Epoch,
			Kind: it.Kind, MsgID: it.MsgID, PayloadDigest: it.MsgID, Payload: it.Payload})
	case node != 0:
		group.SendBatchToNode(p.sendDirect, src, p.rules.Self, node, p.rules.Carrier, crypto.Digest{}, items)
	case len(items) == 1:
		group.Send(p.sendGroup, p.env.Rand(), src, p.rules.Self, dst, it, nil)
	default:
		group.SendBatch(p.sendGroup, p.env.Rand(), src, p.rules.Self, dst, p.rules.Carrier, crypto.Digest{}, items)
	}
}
