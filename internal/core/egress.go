package core

// This file is the one place that knows how a message leaves the node.
// Handlers call one of three helpers and the destination and the wire table
// decide the rest:
//
//   - sendGroup (sendGroupItem for gossip, which builds its own item): a group
//     message to every member of a vgroup. A kind whose wireRows row says
//     carrierOK is queued on the egress scheduler (internal/egress), which
//     hands batches back through egressFlush to be framed as ordinary group
//     messages (single item) or kindBatch carriers; any other kind (merge
//     negotiation) is fanned out at once, round-quantized like a flush. The
//     receiver's handleBatch reads the same column.
//   - sendToNode: a group message to one node (snapshots, the backward-mode
//     join redirect), never queued or quantized.
//   - sendNodeMsg: a classNodeMsg value (join handshake, heartbeat, SMR
//     envelope), never queued or quantized.
//
// Application raw messages (SendRawWith) enter the scheduler's node-addressed
// queues directly. Below the helpers sit the two bottom SendFns, sendNow and
// sendGroupQuantized, and the round drain; the egressonly analyzer keeps every
// other file off them.
//
// Correctness needs no cross-member coordination: the receiver votes each
// inner item into its inbox under the item's own MsgID, so members whose
// flush windows cut differently still converge (internal/group/batch.go).
// Batches always leave stamped with the source composition captured at
// enqueue time — the scheduler flushes a destination whose source changes,
// and the engine calls FlushAll before every replicated-state replacement
// (reconfigure, split install, merge dissolve, epoch catch-up).

import (
	"time"

	"atum/internal/actor"
	"atum/internal/crypto"
	"atum/internal/egress"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/smr"
)

// egressFlushTimer drives the adaptive flush windows.
type egressFlushTimer struct{}

// maxCarrierBytes caps the pending payload bytes of one batch carrier; a
// destination that reaches it is flushed without waiting for its window.
const maxCarrierBytes = 256 << 10

// newEgress builds the node's scheduler. The callbacks close over n: they
// run inside the node's event loop, after Start has set n.env.
func (n *Node) newEgress() *egress.Scheduler {
	return egress.New(egress.Config{
		MaxBatch:   n.cfg.GossipMaxBatch,
		MaxBytes:   maxCarrierBytes,
		MaxWindow:  n.cfg.EgressMaxFlushWindow,
		Limit:      n.cfg.EgressQueueLimit,
		LimitBytes: n.cfg.EgressQueueBytes,
		Now: func() time.Duration {
			if n.env == nil {
				return 0
			}
			return n.env.Now()
		},
		Arm: func(d time.Duration) {
			if n.env != nil {
				n.env.SetTimer(d, egressFlushTimer{})
			}
		},
		Flush: n.egressFlush,
	})
}

// sendGroup sends one logical group message to every member of dst. src is
// the composition the message's MsgID was derived under (usually the current
// one; the pre-bump composition during reconfiguration notices).
func (n *Node) sendGroup(src, dst group.Composition, kind group.Kind, msgID crypto.Digest, payload []byte) {
	n.sendGroupItem(src, dst, group.BatchItem{Kind: kind, MsgID: msgID, Payload: payload}, 0)
}

// sendGroupItem is sendGroup for a caller that built the item itself —
// gossip, which hashes a broadcast's payload once and sets Digest for all its
// links — with an absolute expiry (0 = never): the origin of a BroadcastWith
// stamps its first-hop gossip items with the caller's TTL. The item's row in
// the wire table routes it: a carrier-deliverable kind is queued (in
// synchronous mode group sends are round-quantized anyway, so batches defer to
// the round tick's FlushDeferred instead of arming window timers); a kind the
// table keeps off carriers leaves now, with no queue to expire in.
func (n *Node) sendGroupItem(src, dst group.Composition, it group.BatchItem, expires time.Duration) {
	if !rowByKind[it.Kind].carrierOK {
		group.Send(n.sendGroupQuantized, n.env.Rand(), src, n.cfg.Identity.ID, dst, it)
		return
	}
	n.egress.EnqueueGroupWith(src, dst, it, n.cfg.Mode == smr.ModeSync, expires)
}

// sendToNode sends one logical group message from src to a single node.
func (n *Node) sendToNode(src group.Composition, to ids.NodeID, kind group.Kind, msgID crypto.Digest, payload []byte) {
	group.SendToNode(n.sendNow, src, n.cfg.Identity.ID, to, kind, msgID, payload)
}

// sendNodeMsg sends one node-level message (a classNodeMsg row of the wire
// table): such traffic is a handshake with a node that shares no vgroup with
// this one, a failure detector's beacon or consensus itself, and waits for
// neither a queue nor a round boundary.
func (n *Node) sendNodeMsg(to ids.NodeID, msg actor.Message) {
	n.sendNow(to, msg)
}

// queuedSend is one round-quantized send waiting in outQ for the tick.
type queuedSend struct {
	to  ids.NodeID
	msg actor.Message
}

// sendGroupQuantized is the SendFn for inter-group traffic: in synchronous
// mode sends are deferred to the next round boundary (one overlay hop per
// round, like the paper's round-based Sync implementation).
func (n *Node) sendGroupQuantized(to ids.NodeID, msg actor.Message) {
	if n.byzActive() {
		return
	}
	if n.cfg.Mode == smr.ModeSync {
		n.outQ = append(n.outQ, queuedSend{to: to, msg: msg})
		return
	}
	n.env.Send(to, msg)
}

// sendNow is the SendFn that bypasses round quantization.
func (n *Node) sendNow(to ids.NodeID, msg actor.Message) {
	if n.byzActive() && n.behavior == BehaviorSilent {
		return
	}
	n.env.Send(to, msg)
}

// flushRound runs at every round tick. The lockstep round is the ModeSync
// batching window: deferred egress batches are framed first so that they
// depart with this round's quantized sends. Windowed and paced queues
// (node-addressed raw traffic) keep their own timers — draining them here
// would bypass the flow-control pacing.
func (n *Node) flushRound() {
	if n.cfg.Mode == smr.ModeSync {
		n.egress.FlushDeferred()
	}
	out := n.outQ
	n.outQ = nil
	for _, q := range out {
		n.env.Send(q.to, q.msg)
	}
}

// egressFlush is the scheduler's transmit callback: it frames one
// destination's batch onto the wire. It deliberately reads no node state
// beyond identity and randomness — the captured src/dst keep a flush correct
// even when it runs after the group state it was enqueued under is gone
// (merge dissolve, departure).
func (n *Node) egressFlush(src, dst group.Composition, node ids.NodeID, items []group.BatchItem) {
	if node != 0 {
		// Node-addressed raw batch: link-authenticated, full payloads, not
		// round-quantized (tier-2 data must not wait for round boundaries).
		if len(items) == 1 {
			it := items[0]
			n.sendNow(node, group.GroupMsg{
				SrcGroup: src.GroupID,
				SrcEpoch: src.Epoch,
				Kind:     it.Kind,
				MsgID:    it.MsgID,
				// SendRaw sets a kindRaw item's MsgID to its payload hash,
				// so the digest is already computed (the idle fast path is
				// per-chunk hot).
				PayloadDigest: it.MsgID,
				Payload:       it.Payload,
			})
			return
		}
		n.egressSeq++
		group.SendBatchToNode(n.sendNow, src, n.cfg.Identity.ID, node,
			kindBatch, batchMsgID(src, 0, n.cfg.Identity.ID, n.egressSeq), items)
		return
	}
	if len(items) == 1 {
		// A single pending item flushes as a plain group message: the batch
		// frame would only add overhead.
		group.Send(n.sendGroupQuantized, n.env.Rand(), src, n.cfg.Identity.ID, dst, items[0])
		return
	}
	n.egressSeq++
	group.SendBatch(n.sendGroupQuantized, n.env.Rand(), src, n.cfg.Identity.ID, dst,
		kindBatch, batchMsgID(src, dst.GroupID, n.cfg.Identity.ID, n.egressSeq), items)
}

// batchMsgID identifies one batch carrier. It is unique per sender, not
// matched across members: inner MsgIDs carry the logical identities.
func batchMsgID(src group.Composition, dst ids.GroupID, self ids.NodeID, seq uint64) crypto.Digest {
	d := crypto.Hash([]byte("atum-gbatch"))
	d = crypto.HashUint64(d, uint64(src.GroupID))
	d = crypto.HashUint64(d, src.Epoch)
	d = crypto.HashUint64(d, uint64(dst))
	d = crypto.HashUint64(d, uint64(self))
	d = crypto.HashUint64(d, seq)
	return d
}

// handleBatch unpacks a batch carrier and processes every inner item as if
// it had arrived as a separate message from the same link-authenticated
// sender. Votable kinds go through the inbox — dedup, delivery, and
// re-forwarding then follow the ordinary per-message path, so Forward-
// callback and agreement semantics hold per inner item, not per batch. Raw
// items go straight to the application hook, exactly like a direct SendRaw.
func (n *Node) handleBatch(from ids.NodeID, m group.GroupMsg) {
	inner, err := group.UnpackBatch(m)
	if err != nil {
		n.logf("egress batch from %v: %v", from, err)
		return
	}
	for _, im := range inner {
		r := rowByKind[im.Kind]
		switch {
		case im.Kind == kindRaw:
			if im.Payload != nil {
				n.handleRawItem(from, im.Payload)
			}
		case r == nil:
			// No such kind (never assigned, retired, or a nested carrier):
			// dropped silently.
		case !r.carrierOK:
			// A known kind the table keeps off carriers is a sender bug (or a
			// hostile frame trying to smuggle node-addressed traffic past its
			// handler's assumptions) and is worth a log line.
			n.logf("egress batch from %v: kind %d is not batchable, dropped", from, im.Kind)
		default:
			n.observeCopy(from, im)
		}
	}
}

// handleRawItem decodes one extension-framed application raw message and
// hands it to the OnRawMessage hook. Only extension-tag frames are
// accepted: a hostile peer must not be able to push engine-internal
// payload types (snapshots, nested SMR envelopes) into an application
// hook — or buy decode work on them — through the raw path.
func (n *Node) handleRawItem(from ids.NodeID, payload []byte) {
	if n.cfg.OnRawMessage == nil {
		return
	}
	v, err := decodeWire(payload, classExt)
	if err != nil {
		n.logf("raw item from %v: %v", from, err)
		return
	}
	n.cfg.OnRawMessage(from, v)
}
