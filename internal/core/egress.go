package core

// The engine's side of the way out. Every send goes through the node's
// egress.Port (internal/egress), which holds the node's transport handle:
// the engine keeps no actor.Env, so it cannot send any other way. This file
// tells the port the engine's rules — which kinds ride carriers, the carrier
// kind, the round, the Byzantine drop rules — and reads carriers on the way in.

import (
	"time"

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

// newEgress builds the node's port. The callbacks close over n: they run
// inside the node's event loop. A group message is muted on its way out for
// any active Byzantine behaviour; a node-addressed one only when the node is
// silent.
func (n *Node) newEgress() *egress.Port {
	return egress.NewPort(egress.Config{
		MaxBatch: n.cfg.GossipMaxBatch, MaxBytes: maxCarrierBytes, MaxWindow: n.cfg.EgressMaxFlushWindow,
		Limit: n.cfg.EgressQueueLimit, LimitBytes: n.cfg.EgressQueueBytes,
		Now: n.Now,
		Arm: func(d time.Duration) { n.env.SetTimer(d, egressFlushTimer{}) }, // nothing is sent before Start
	}, egress.Rules{
		Self: n.cfg.Identity.ID, Sync: n.cfg.Mode == smr.ModeSync, Carrier: kindBatch,
		CarrierOK:  func(k group.Kind) bool { return rowByKind[k] != nil && rowByKind[k].carrierOK },
		MuteGroup:  n.byzActive,
		MuteDirect: func() bool { return n.byzActive() && n.behavior == BehaviorSilent },
	})
}

// sendGroup sends one logical group message to every member of dst. src is
// the composition the message's MsgID was derived under (usually the current
// one; the pre-bump composition during reconfiguration notices).
func (n *Node) sendGroup(src, dst group.Composition, kind group.Kind, msgID crypto.Digest, payload []byte) {
	n.egress.Group(src, dst, group.BatchItem{Kind: kind, MsgID: msgID, Payload: payload})
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
