package core

import (
	"fmt"

	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/overlay"
	"atum/internal/wire"
)

// --- node-level messages (direct node-to-node) ---

// SMREnvelope routes an SMR protocol message to the receiver's replica for
// the given vgroup epoch.
type SMREnvelope struct {
	GroupID ids.GroupID
	Epoch   uint64
	Inner   any
}

// WireSize implements actor.Sizer by delegating to the inner message.
func (m SMREnvelope) WireSize() int {
	if s, ok := m.Inner.(interface{ WireSize() int }); ok {
		return 24 + s.WireSize()
	}
	return 24 + 256
}

// Heartbeat is the periodic liveness beacon between vgroup peers (§5.1).
type Heartbeat struct {
	GroupID ids.GroupID
	Epoch   uint64
	// Delivered lists the gossip digests the sender delivered since its
	// previous heartbeat, at most maxHeartbeatDigests: the vgroup catch-up
	// (pull.go).
	Delivered []crypto.Digest
}

// WireSize implements actor.Sizer: the length of m's envelope frame (3
// header bytes, GroupID, Epoch and the list count before the digests).
func (m Heartbeat) WireSize() int { return 23 + crypto.DigestSize*len(m.Delivered) }

// JoinContact is the joiner's first message to its (trusted) contact node.
type JoinContact struct {
	Joiner ids.Identity
}

// ContactInfo is the contact's reply: the composition of its own vgroup.
type ContactInfo struct {
	Comp group.Composition
}

// Renounce is sent by a node that was admitted to a vgroup but never
// completed the move (its state snapshot was lost): it disowns the phantom
// membership so the vgroup can remove it without an eviction quorum — the
// signature makes it self-authorized, like a leave.
type Renounce struct {
	Node   ids.Identity
	Target ids.GroupID
	Nonce  uint64
	Sig    []byte
}

// renounceBytes returns the canonical bytes covered by the signature.
func renounceBytes(node ids.Identity, target ids.GroupID, nonce uint64) []byte {
	var e wire.Encoder
	e.String("atum-renounce")
	e.Uint64(uint64(node.ID))
	e.VarBytes(node.PubKey)
	e.Uint64(uint64(target))
	e.Uint64(nonce)
	return e.Bytes()
}

// JoinRequest is sent by the joiner to every member of a target vgroup.
// The signature covers (joiner identity, target group, nonce) so a
// Byzantine member can neither replay the request into another vgroup nor
// replay an old attempt.
type JoinRequest struct {
	Joiner ids.Identity
	Target ids.GroupID
	Nonce  uint64
	Sig    []byte
}

// joinRequestBytes returns the canonical bytes covered by the signature.
func joinRequestBytes(joiner ids.Identity, target ids.GroupID, nonce uint64) []byte {
	var e wire.Encoder
	e.Uint64(uint64(joiner.ID))
	e.String(joiner.Addr)
	e.VarBytes(joiner.PubKey)
	e.Uint64(uint64(target))
	e.Uint64(nonce)
	return e.Bytes()
}

// NodeAddressed marks the node-level message types as egress.NodeMsg: the one
// kind of message the engine hands its port whole. PayloadPull and
// PayloadPush (pull.go) are the other two.
func (SMREnvelope) NodeAddressed() {}
func (Heartbeat) NodeAddressed()   {}
func (JoinContact) NodeAddressed() {}
func (ContactInfo) NodeAddressed() {}
func (JoinRequest) NodeAddressed() {}
func (Renounce) NodeAddressed()    {}

// --- group message kinds ---

// Group-message kinds (group.Kind) used by the engine. The payload type each
// kind carries, and whether a batch carrier may deliver it, are declared once,
// in the wireRows table (wirecodec.go).
const (
	kindGossip group.Kind = iota + 1
	kindWalk
	kindWalkBackward
	kindWalkResult
	kindNeighborUpdate
	kindSetNeighbor
	kindCycleAssign
	kindExchangeConfirm
	kindExchangeCancel
	kindMergeRequest
	kindMergeAccept
	kindMergeReject
	kindSnapshot
	kindJoinRedirect
	// kindBatch is the egress batch carrier: several logical messages bound
	// for the same destination, folded into one group-layer batch frame. The
	// receiver unpacks it and processes each inner item individually —
	// votable kinds through its inbox, raw items through the OnRawMessage
	// hook (see internal/egress and egress.go). Formerly kindGossipBatch;
	// the tag value is unchanged, the carrier now admits every batchable
	// kind.
	kindBatch
	// kindRaw carries one wire-extension-framed application raw message
	// (RegisterRawMessage), either standalone or inside a kindBatch carrier.
	// Raw items are link-authenticated only: they bypass the inbox and go
	// straight to OnRawMessage, exactly like a direct SendRaw.
	kindRaw
	// Values 17–19 are retired (the dissemination tree's kindIHave,
	// kindGraft and kindPrune, removed with it) and stay reserved: the
	// blanks keep iota past them, so the next kind added is 20.
	// routeGroupMsg and handleBatch drop them like any kind without a row in
	// wireRows (wirecodec.go).
	_
	_
	_
)

// --- group message payloads (wire-envelope encoded — see wirecodec.go and
// docs/WIRE.md) ---

// gossipPayload carries one broadcast between vgroups. It holds nothing that
// depends on the path travelled: the members of a vgroup forward the bytes
// they accepted, and the next vgroup matches those bytes by digest.
type gossipPayload struct {
	BcastID crypto.Digest
	Origin  ids.NodeID
	Data    []byte
}

// WalkPurpose distinguishes what a random walk selects a vgroup for.
type WalkPurpose uint8

// Walk purposes.
const (
	// PurposeJoin selects the vgroup that will accommodate a joiner.
	PurposeJoin WalkPurpose = iota + 1
	// PurposeShuffle selects an exchange partner for one member.
	PurposeShuffle
	// PurposeSplitInsert selects the insertion point of a freshly split
	// vgroup on one H-graph cycle.
	PurposeSplitInsert
	// PurposeMerge is not a real walk: it reuses the walk bookkeeping to
	// time out a pending merge negotiation.
	PurposeMerge
)

// walkPayload is the forwarded random-walk message (§3.2, §5.1). Rands
// carries the bulk-generated random numbers fixed at the first step.
type walkPayload struct {
	WalkID     crypto.Digest
	Purpose    WalkPurpose
	StepsLeft  int
	Rands      []uint64
	Origin     group.Composition // composition of the originating vgroup
	Path       []group.Key       // visited hops (backward mode routing)
	Cycle      int               // PurposeSplitInsert: which cycle to insert on
	NewGroup   group.Composition // PurposeSplitInsert: the group to insert
	Joiner     ids.Identity      // PurposeJoin
	JoinerSig  []byte            // PurposeJoin: joiner's original request signature
	Member     ids.Identity      // PurposeShuffle: the member to exchange
	ShuffleSeq int               // PurposeShuffle: position in the shuffle
}

// walkAttachment rides outside the majority-matched payload: each sender's
// view of the certificate chain plus its own endorsement of the current
// step (certificate mode, §5.1).
type walkAttachment struct {
	Chain   []overlay.StepCert // assembled chain for steps 0..k-1
	StepSig overlay.CertSig    // this sender's endorsement of step k
}

// backwardPayload relays a walk result toward the origin along the reverse
// path (backward mode, §5.1).
type backwardPayload struct {
	WalkID crypto.Digest
	// Path holds the hops still to visit, origin first: the next one is its
	// last element, which each relay pops before sending.
	Path   []group.Key
	Result walkResult
}

// walkResult is what a walk delivers back to its origin.
type walkResult struct {
	WalkID  crypto.Digest
	Purpose WalkPurpose
	// Target is the selected vgroup's composition (as of walk arrival).
	Target group.Composition
	// Accept reports the target's decision (shuffle exchanges can be
	// rejected when the partner is busy; joins can be redirected).
	Accept bool
	// Partner is the member the target offers in a shuffle exchange.
	Partner ids.Identity
	// Member echoes walkPayload.Member.
	Member ids.Identity
	// ShuffleSeq echoes walkPayload.ShuffleSeq.
	ShuffleSeq int
}

// neighborUpdatePayload announces a reconfigured composition to neighbors.
type neighborUpdatePayload struct {
	NewComp group.Composition
}

// setNeighborPayload re-points one link of the receiving vgroup.
type setNeighborPayload struct {
	Cycle int
	Dir   overlay.Direction
	Comp  group.Composition
}

// cycleAssignPayload gives a freshly inserted vgroup its neighbors on one
// cycle (split relocation).
type cycleAssignPayload struct {
	Cycle int
	Pred  group.Composition
	Succ  group.Composition
}

// exchangeConfirmPayload commits the exchange on the origin side and tells
// the partner group to perform its half.
type exchangeConfirmPayload struct {
	WalkID  crypto.Digest
	Partner ids.Identity
	Member  ids.Identity
	// OriginOld is the origin's pre-exchange composition: the partner's
	// outgoing member validates the origin's snapshot against it.
	OriginOld group.Composition
}

// exchangeCancelPayload aborts an accepted exchange (origin timed out).
type exchangeCancelPayload struct {
	WalkID crypto.Digest
}

// mergeRequestPayload asks a neighbor vgroup to absorb the (shrunken)
// sending vgroup.
type mergeRequestPayload struct {
	From group.Composition
}

// mergeAcceptPayload notifies the dissolving vgroup that the partner
// absorbed its members; the dissolving members validate the partner's
// snapshots against Absorber.
type mergeAcceptPayload struct {
	Absorber group.Composition // the absorber's pre-merge composition
}

// mergeRejectPayload declines a merge (absorber busy).
type mergeRejectPayload struct {
	Busy bool
}

// snapshotPayload transfers the replicated vgroup state to a node that just
// became a member (join, exchange, merge). Stamped with the pre-change
// epoch: the configuration that admitted the node attests the new one.
type snapshotPayload struct {
	State stateSnapshot
}

// joinRedirectPayload tells the joiner which vgroup will accommodate it.
type joinRedirectPayload struct {
	WalkID crypto.Digest
	Target group.Composition
	// Chain proves Target's identity to the joiner (certificate mode; in
	// backward mode the redirect arrives from the contact vgroup itself).
	Chain []overlay.StepCert
}

// --- SMR operation payloads ---

// bcastOp starts a broadcast: SMR inside the origin vgroup is phase one of
// the paper's broadcast (§3.3.4).
type bcastOp struct {
	BcastID crypto.Digest
	Origin  ids.NodeID
	Data    []byte
}

// joinOp admits a joiner (its request signature is re-verified at apply).
type joinOp struct {
	Joiner ids.Identity
	Nonce  uint64
	Sig    []byte
}

// renounceOp removes a phantom member on its own signed authority.
type renounceOp struct {
	Node   ids.Identity
	Target ids.GroupID
	Nonce  uint64
	Sig    []byte
}

// leaveOp removes the proposer from the vgroup.
type leaveOp struct {
	GroupID ids.GroupID
	Node    ids.NodeID
}

// evictVoteOp is one member's vote to evict a silent peer; it takes f+1
// distinct proposers to fire, so Byzantine members alone can never evict a
// correct node (§5.1).
type evictVoteOp struct {
	GroupID ids.GroupID
	Target  ids.NodeID
	Epoch   uint64
}

// inputVoteOp endorses an externally received group message; the transition
// fires at f+1 distinct proposers (at least one correct member really
// received it).
type inputVoteOp struct {
	Kind    group.Kind
	MsgID   crypto.Digest
	Src     group.Key
	Payload []byte
}

// splitOp triggers logarithmic-grouping division; applied only while the
// vgroup exceeds GMax, so spurious proposals are harmless.
//
// Note: every group-contextual op carries its GroupID. Op identity is the
// content digest, and split halves inherit the parent's dedup window — two
// groups must never mint colliding op contents.
type splitOp struct {
	GroupID ids.GroupID
	Epoch   uint64
}

// walkStartOp launches a random walk; the walk's bulk randomness is derived
// from this op's content digest.
type walkStartOp struct {
	GroupID    ids.GroupID
	Purpose    WalkPurpose
	Joiner     ids.Identity
	JoinerSig  []byte
	Member     ids.Identity
	ShuffleSeq int
	Cycle      int
	NewGroup   group.Composition
	Nonce      uint64 // distinguishes otherwise-identical walks
}

// shuffleStartOp begins a whole-group shuffle after a membership change.
type shuffleStartOp struct {
	GroupID ids.GroupID
	Epoch   uint64
}

// walkTimeoutOp abandons a pending walk/exchange (voted: f+1 proposers).
type walkTimeoutOp struct {
	WalkID crypto.Digest
}

// mergeStartOp initiates a merge attempt with the chosen neighbor; Attempt
// distinguishes retries.
type mergeStartOp struct {
	GroupID ids.GroupID
	Epoch   uint64
	Attempt int
}

// --- codec ---

// encodePayload encodes a payload struct through the deterministic wire
// envelope (see wirecodec.go): all members of a vgroup produce byte-identical
// payloads for the same logical value, which is what the group-message digest
// matching and op content-dedup rely on.
func encodePayload(v any) []byte {
	b, ok := encodeWire(v, classAny)
	if !ok {
		// Only engine-defined types reach here; failure is a bug.
		panic(fmt.Sprintf("core: encode %T: not a wire-codable payload", v))
	}
	return b
}

// opDigest content-addresses an operation payload: vote tallies and the
// applied-set dedup key on it.
func opDigest(b []byte) crypto.Digest { return crypto.Hash(b) }
