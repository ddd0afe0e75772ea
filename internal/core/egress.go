package core

// The engine's side of the way out. Every send goes through the node's
// egress.Port (internal/egress), which holds the node's transport handle:
// the engine keeps no actor.Env, so it cannot send any other way. This file
// tells the port the engine's rules — the carrier kind, the round, the
// withholding rules — and reads carriers on the way in, where the wire table
// says which kinds a carrier may deliver.

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

// NodeQueueLimit bounds each node-addressed egress queue (application raw
// traffic) in items, and nodeQueueBytes in payload bytes, per-item framing
// included. The limit scales the queue's flow control: the drain is paced (at
// most one carrier per adaptive window per destination), queue depth drives
// the Node.EgressPressure levels, and overflow drops at the sender
// (lower-priority victims first; SendRawWith returns ErrEgressOverflow when
// its own message is the drop). Group-addressed (protocol) queues are never
// bounded.
const (
	NodeQueueLimit = 1024
	nodeQueueBytes = 8 << 20
)

// newEgress builds the node's port. The callbacks close over n: they run
// inside the node's event loop.
func (n *Node) newEgress() *egress.Port {
	return egress.NewPort(egress.Config{
		MaxBatch: n.cfg.GossipMaxBatch, MaxBytes: maxCarrierBytes, MaxWindow: n.cfg.EgressMaxFlushWindow,
		Limit: NodeQueueLimit, LimitBytes: nodeQueueBytes,
		Now: n.Now,
		Arm: func(d time.Duration) { n.env.SetTimer(d, egressFlushTimer{}) }, // nothing is sent before Start
	}, egress.Rules{
		Self: n.cfg.Identity.ID, Sync: n.cfg.Mode == smr.ModeSync, Carrier: kindBatch,
		Withdraw: n.withdrawGossip,
		Holds:    n.holdsGossip,
		RelayLag: n.cfg.RoundDuration / relayLagPerRound,
		Left:     n.gossipLeft,
	})
}

// relayLagPerRound is how many relay lags make a round (egress.Rules.RelayLag):
// a relayed copy toward a member this member is the RelaySender of waits for a
// vote from the member's vgroup (holdsGossip). Outside a synchronous round it
// parks for one lag, which must exceed one link delay, so that a vote the
// member's vgroup sent at the same moment — a crossing — arrives first. In a
// synchronous round the two ends of a relayed link take turns by GroupID
// (internal/egress, the package comment), and each lag has its own job:
//
//   - one lag covers one link delay: the second speaker's batch waits one
//     lag, so the first speaker's votes, sent at the tick, reach it before it
//     leaves, and the link rule (withdrawGossip) withdraws what they made
//     redundant;
//   - two lags cover one lag plus one link delay: the first speaker's served
//     copies park for two, so the digest-only vote the second speaker sends
//     each of its members one lag after the tick reaches them first, and the
//     vgroup rule strips their bytes.
//
// No node measures its link delays, so the divisor is tuned for the
// simulator's 100 ms round over simnet.LANLatency (0.5–2 ms), where the lag is
// 3.1 ms. A sweep of the divisor with one lag and no turns, atumbench seed 1,
// wire bytes per broadcast and deliver_p50_ms against no lag:
//
//	divisor (lag)      128 (0.8 ms)  64 (1.6 ms)  32 (3.1 ms)  16 (6.3 ms)  8 (12.5 ms)
//	sync_steady bytes  −6.7 %        −10.5 %      −10.6 %      −10.6 %      −10.6 %
//	sync_churn bytes   −10.5 %       −17.2 %      −17.2 %      −17.2 %      −17.2 %
//	async_wan bytes    −2.1 %        −4.1 %       −6.8 %       −9.2 %       −12.2 %
//	sync_steady p50    +0.1 %        +0.2 %       +0.5 %       +0.9 %       +1.8 %
//	async_wan p50      +0.3 %        +0.4 %       +0.3 %       +1.2 %       +2.9 %
//
// 32 is the shortest lag that keeps all of the ModeSync saving (64 gives up
// 0.06 points of it); a longer one only catches more WAN votes that are not
// crossings, at a latency cost. The turns take a further 12.2 % of
// sync_steady's bytes at 32 (6.6 % of sync_churn's) for +0.2 to +0.3 % p50. At
// the Config default round of 1 s the lag is 31 ms, ten times what a LAN
// crossing needs; no workload measures that case.
const relayLagPerRound = 32

// sendGroup sends one logical group message to every member of dst. src is
// the composition the message's MsgID was derived under (usually the current
// one; the pre-bump composition during reconfiguration notices).
func (n *Node) sendGroup(src, dst group.Composition, kind group.Kind, msgID crypto.Digest, payload []byte) {
	n.egress.Group(src, dst, group.BatchItem{Kind: kind, MsgID: msgID, Payload: payload})
}

// handleBatch visits the items of a batch carrier in place and processes each
// as if it had arrived as a separate message from the same link-authenticated
// sender; a frame the walk refuses is dropped whole, no item processed.
// Votable kinds go through the inbox — dedup, delivery, and re-forwarding then
// follow the ordinary per-message path, so Forward-callback and agreement
// semantics hold per inner item, not per batch. Raw items go straight to the
// application hook, exactly like a direct SendRaw.
func (n *Node) handleBatch(from ids.NodeID, m group.GroupMsg) {
	err := group.EachInBatch(m, func(im group.GroupMsg) {
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
	})
	if err != nil {
		n.logf("egress batch from %v: %v", from, err)
	}
}

// handleRawItem decodes one extension-framed application raw message and
// hands it to the OnRawMessage hook. Only extension-tag frames are
// accepted: a hostile peer must not be able to push engine-internal
// payload types (snapshots, nested SMR envelopes) into an application
// hook — or buy decode work on them — through the raw path.
func (n *Node) handleRawItem(from ids.NodeID, payload []byte) {
	if n.cfg.Callbacks.OnRawMessage == nil {
		return
	}
	v, err := decodeWire(payload, classExt)
	if err != nil {
		n.logf("raw item from %v: %v", from, err)
		return
	}
	n.cfg.Callbacks.OnRawMessage(from, v)
}
