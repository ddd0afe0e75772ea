package core

// The engine's wire envelope: the deterministic, tagged, versioned framing
// for every payload and node-level message the engine puts on the wire. It
// replaces the reflection-based encoding/gob envelope on the hot path — the
// per-message gob type dictionary dominated small-message bytes once gossip
// batching landed — and gives every payload kind an explicit byte-level
// schema, so signatures and cross-member digest agreement cannot drift with
// encoder internals.
//
// Frame layout (full spec: docs/WIRE.md):
//
//	byte 0: 0x00           envelope magic — a gob stream never starts with
//	                       0x00 (its first byte is a nonzero message length),
//	                       so a legacy gob envelope is rejected, not misread
//	byte 1: kind tag       one byte per payload/message type (wk* below)
//	byte 2: format version currently wireEnvV1; decoders reject others
//	byte 3…: body          the type's canonical field encoding
//
// Kind tags are append-only: never reorder or reuse them. A format change to
// any type's body bumps the version byte. Tags 0x80–0xFF are the application
// extension range: per-type codecs registered through RegisterRawMessage
// (rawext.go), so app raw messages are wire-codable without the engine
// knowing their schemas.

import (
	"fmt"

	"atum/internal/actor"
	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/overlay"
	"atum/internal/smr/dolev"
	"atum/internal/smr/pbft"
	"atum/internal/wire"
)

// wireEnvMagic marks a wire-envelope frame; see the package comment above
// for why 0x00 is collision-free against gob streams.
const wireEnvMagic = 0x00

// wireEnvV1 is the current envelope format version.
const wireEnvV1 = 1

// Wire envelope kind tags. Append-only; never reorder or reuse.
const (
	// Group-message payloads.
	wkGossip byte = iota + 1
	wkWalk
	wkWalkAttachment
	wkBackward
	wkWalkResult
	wkNeighborUpdate
	wkSetNeighbor
	wkCycleAssign
	wkExchangeConfirm
	wkExchangeCancel
	wkMergeRequest
	wkMergeAccept
	wkMergeReject
	wkSnapshot
	wkJoinRedirect
	// SMR operation payloads.
	wkBcastOp
	wkJoinOp
	wkLeaveOp
	wkRenounceOp
	wkEvictVoteOp
	wkInputVoteOp
	wkSplitOp
	wkWalkStartOp
	wkShuffleStartOp
	wkWalkTimeoutOp
	wkMergeStartOp
	// Node-level messages (byte-level transport framing).
	wkSMREnvelope
	wkHeartbeat
	wkJoinContact
	wkContactInfo
	wkJoinRequest
	wkRenounce
	wkGroupMsg
	// SMR engine messages (ride inside SMREnvelope).
	wkSlotMsg
	wkPBFTRequest
	wkPBFTPrePrepare
	wkPBFTPrepare
	wkPBFTCommit
	wkPBFTCheckpoint
	wkPBFTViewChange
	wkPBFTNewView
	// Tags 42–44 are retired (the dissemination tree's iHavePayload,
	// graftPayload and prunePayload, removed with it) and stay reserved: the
	// blanks keep iota past them, so the next tag added is 45. decodeWire
	// rejects them like any unknown tag.
	_
	_
	_
)

// encodeWire returns the tagged, versioned wire frame for v, or false when
// the type is not wire-codable. Frames build in pooled scratch and detach as
// one exact-size allocation — envelope encoding is the per-payload hot path,
// and throwaway encoders paid append-growth garbage on every message.
func encodeWire(v any) ([]byte, bool) {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	hdr := func(kind byte) *wire.Encoder {
		e.Byte(wireEnvMagic)
		e.Byte(kind)
		e.Byte(wireEnvV1)
		return e
	}
	switch p := v.(type) {
	case gossipPayload:
		p.MarshalWire(hdr(wkGossip))
	case walkPayload:
		p.MarshalWire(hdr(wkWalk))
	case walkAttachment:
		p.MarshalWire(hdr(wkWalkAttachment))
	case backwardPayload:
		p.MarshalWire(hdr(wkBackward))
	case walkResult:
		p.MarshalWire(hdr(wkWalkResult))
	case neighborUpdatePayload:
		p.MarshalWire(hdr(wkNeighborUpdate))
	case setNeighborPayload:
		p.MarshalWire(hdr(wkSetNeighbor))
	case cycleAssignPayload:
		p.MarshalWire(hdr(wkCycleAssign))
	case exchangeConfirmPayload:
		p.MarshalWire(hdr(wkExchangeConfirm))
	case exchangeCancelPayload:
		p.MarshalWire(hdr(wkExchangeCancel))
	case mergeRequestPayload:
		p.MarshalWire(hdr(wkMergeRequest))
	case mergeAcceptPayload:
		p.MarshalWire(hdr(wkMergeAccept))
	case mergeRejectPayload:
		p.MarshalWire(hdr(wkMergeReject))
	case snapshotPayload:
		p.MarshalWire(hdr(wkSnapshot))
	case joinRedirectPayload:
		p.MarshalWire(hdr(wkJoinRedirect))
	case bcastOp:
		p.MarshalWire(hdr(wkBcastOp))
	case joinOp:
		p.MarshalWire(hdr(wkJoinOp))
	case leaveOp:
		p.MarshalWire(hdr(wkLeaveOp))
	case renounceOp:
		p.MarshalWire(hdr(wkRenounceOp))
	case evictVoteOp:
		p.MarshalWire(hdr(wkEvictVoteOp))
	case inputVoteOp:
		p.MarshalWire(hdr(wkInputVoteOp))
	case splitOp:
		p.MarshalWire(hdr(wkSplitOp))
	case walkStartOp:
		p.MarshalWire(hdr(wkWalkStartOp))
	case shuffleStartOp:
		p.MarshalWire(hdr(wkShuffleStartOp))
	case walkTimeoutOp:
		p.MarshalWire(hdr(wkWalkTimeoutOp))
	case mergeStartOp:
		p.MarshalWire(hdr(wkMergeStartOp))
	case SMREnvelope:
		inner, ok := encodeWire(p.Inner)
		if !ok {
			return nil, false
		}
		w := hdr(wkSMREnvelope)
		w.Uint64(uint64(p.GroupID))
		w.Uint64(p.Epoch)
		w.VarBytes(inner)
	case Heartbeat:
		w := hdr(wkHeartbeat)
		w.Uint64(uint64(p.GroupID))
		w.Uint64(p.Epoch)
	case JoinContact:
		p.Joiner.MarshalWire(hdr(wkJoinContact))
	case ContactInfo:
		p.Comp.MarshalWire(hdr(wkContactInfo))
	case JoinRequest:
		w := hdr(wkJoinRequest)
		p.Joiner.MarshalWire(w)
		w.Uint64(uint64(p.Target))
		w.Uint64(p.Nonce)
		w.VarBytes(p.Sig)
	case Renounce:
		w := hdr(wkRenounce)
		p.Node.MarshalWire(w)
		w.Uint64(uint64(p.Target))
		w.Uint64(p.Nonce)
		w.VarBytes(p.Sig)
	case group.GroupMsg:
		p.MarshalWire(hdr(wkGroupMsg))
	case dolev.SlotMsg:
		p.MarshalWire(hdr(wkSlotMsg))
	case pbft.Request:
		p.MarshalWire(hdr(wkPBFTRequest))
	case pbft.PrePrepare:
		p.MarshalWire(hdr(wkPBFTPrePrepare))
	case pbft.Prepare:
		p.MarshalWire(hdr(wkPBFTPrepare))
	case pbft.Commit:
		p.MarshalWire(hdr(wkPBFTCommit))
	case pbft.Checkpoint:
		p.MarshalWire(hdr(wkPBFTCheckpoint))
	case pbft.ViewChange:
		p.MarshalWire(hdr(wkPBFTViewChange))
	case pbft.NewView:
		p.MarshalWire(hdr(wkPBFTNewView))
	default:
		// Application raw-message types registered in the extension-tag
		// range (rawext.go) are wire-codable too.
		return encodeRawWire(v)
	}
	return e.Detach(), true
}

// maxSMRNesting bounds SMREnvelope nesting (the engine nests exactly once;
// hostile frames must not recurse decoders arbitrarily).
const maxSMRNesting = 2

// decodeWire reverses encodeWire and encodePayload. Hostile frames (unknown
// tags, unsupported versions, truncation, trailing bytes, and the legacy gob
// envelope, whose first byte is never the 0x00 magic) return an error, never
// panic.
func decodeWire(b []byte) (any, error) { return decodeWireDepth(b, 0) }

func decodeWireDepth(b []byte, depth int) (any, error) {
	if len(b) < 3 {
		return nil, fmt.Errorf("core: wire envelope too short (%d bytes)", len(b))
	}
	if b[0] != wireEnvMagic {
		return nil, fmt.Errorf("core: not a wire envelope (first byte %#x)", b[0])
	}
	kind, version := b[1], b[2]
	if version != wireEnvV1 {
		return nil, fmt.Errorf("core: wire envelope kind %d: unsupported version %d", kind, version)
	}
	d := wire.NewDecoder(b[3:])
	var v any
	switch kind {
	case wkGossip:
		var p gossipPayload
		p.UnmarshalWire(d)
		v = p
	case wkWalk:
		var p walkPayload
		p.UnmarshalWire(d)
		v = p
	case wkWalkAttachment:
		var p walkAttachment
		p.UnmarshalWire(d)
		v = p
	case wkBackward:
		var p backwardPayload
		p.UnmarshalWire(d)
		v = p
	case wkWalkResult:
		var p walkResult
		p.UnmarshalWire(d)
		v = p
	case wkNeighborUpdate:
		var p neighborUpdatePayload
		p.UnmarshalWire(d)
		v = p
	case wkSetNeighbor:
		var p setNeighborPayload
		p.UnmarshalWire(d)
		v = p
	case wkCycleAssign:
		var p cycleAssignPayload
		p.UnmarshalWire(d)
		v = p
	case wkExchangeConfirm:
		var p exchangeConfirmPayload
		p.UnmarshalWire(d)
		v = p
	case wkExchangeCancel:
		var p exchangeCancelPayload
		p.UnmarshalWire(d)
		v = p
	case wkMergeRequest:
		var p mergeRequestPayload
		p.UnmarshalWire(d)
		v = p
	case wkMergeAccept:
		var p mergeAcceptPayload
		p.UnmarshalWire(d)
		v = p
	case wkMergeReject:
		var p mergeRejectPayload
		p.UnmarshalWire(d)
		v = p
	case wkSnapshot:
		var p snapshotPayload
		p.UnmarshalWire(d)
		v = p
	case wkJoinRedirect:
		var p joinRedirectPayload
		p.UnmarshalWire(d)
		v = p
	case wkBcastOp:
		var p bcastOp
		p.UnmarshalWire(d)
		v = p
	case wkJoinOp:
		var p joinOp
		p.UnmarshalWire(d)
		v = p
	case wkLeaveOp:
		var p leaveOp
		p.UnmarshalWire(d)
		v = p
	case wkRenounceOp:
		var p renounceOp
		p.UnmarshalWire(d)
		v = p
	case wkEvictVoteOp:
		var p evictVoteOp
		p.UnmarshalWire(d)
		v = p
	case wkInputVoteOp:
		var p inputVoteOp
		p.UnmarshalWire(d)
		v = p
	case wkSplitOp:
		var p splitOp
		p.UnmarshalWire(d)
		v = p
	case wkWalkStartOp:
		var p walkStartOp
		p.UnmarshalWire(d)
		v = p
	case wkShuffleStartOp:
		var p shuffleStartOp
		p.UnmarshalWire(d)
		v = p
	case wkWalkTimeoutOp:
		var p walkTimeoutOp
		p.UnmarshalWire(d)
		v = p
	case wkMergeStartOp:
		var p mergeStartOp
		p.UnmarshalWire(d)
		v = p
	case wkSMREnvelope:
		if depth+1 >= maxSMRNesting {
			return nil, fmt.Errorf("core: wire envelope nested too deep")
		}
		var p SMREnvelope
		p.GroupID = ids.GroupID(d.Uint64())
		p.Epoch = d.Uint64()
		inner := d.VarBytes()
		if err := d.Finish(); err != nil {
			return nil, fmt.Errorf("core: decode wire envelope kind %d: %w", kind, err)
		}
		iv, err := decodeWireDepth(inner, depth+1)
		if err != nil {
			return nil, fmt.Errorf("core: SMR envelope inner: %w", err)
		}
		p.Inner = iv
		return p, nil
	case wkHeartbeat:
		var p Heartbeat
		p.GroupID = ids.GroupID(d.Uint64())
		p.Epoch = d.Uint64()
		v = p
	case wkJoinContact:
		var p JoinContact
		p.Joiner.UnmarshalWire(d)
		v = p
	case wkContactInfo:
		var p ContactInfo
		p.Comp.UnmarshalWire(d)
		v = p
	case wkJoinRequest:
		var p JoinRequest
		p.Joiner.UnmarshalWire(d)
		p.Target = ids.GroupID(d.Uint64())
		p.Nonce = d.Uint64()
		p.Sig = d.VarBytes()
		v = p
	case wkRenounce:
		var p Renounce
		p.Node.UnmarshalWire(d)
		p.Target = ids.GroupID(d.Uint64())
		p.Nonce = d.Uint64()
		p.Sig = d.VarBytes()
		v = p
	case wkGroupMsg:
		var p group.GroupMsg
		p.UnmarshalWire(d)
		v = p
	case wkSlotMsg:
		var p dolev.SlotMsg
		p.UnmarshalWire(d)
		v = p
	case wkPBFTRequest:
		var p pbft.Request
		p.UnmarshalWire(d)
		v = p
	case wkPBFTPrePrepare:
		var p pbft.PrePrepare
		p.UnmarshalWire(d)
		v = p
	case wkPBFTPrepare:
		var p pbft.Prepare
		p.UnmarshalWire(d)
		v = p
	case wkPBFTCommit:
		var p pbft.Commit
		p.UnmarshalWire(d)
		v = p
	case wkPBFTCheckpoint:
		var p pbft.Checkpoint
		p.UnmarshalWire(d)
		v = p
	case wkPBFTViewChange:
		var p pbft.ViewChange
		p.UnmarshalWire(d)
		v = p
	case wkPBFTNewView:
		var p pbft.NewView
		p.UnmarshalWire(d)
		v = p
	default:
		if kind >= RawTagMin {
			return decodeRawWire(kind, d)
		}
		return nil, fmt.Errorf("core: unknown wire envelope kind %d", kind)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("core: decode wire envelope kind %d: %w", kind, err)
	}
	return v, nil
}

// MessageCodec adapts the engine's wire envelope to byte-level transports
// (it implements tcpnet.Options.Codec). EncodeMessage covers the engine's
// message set plus every application raw-message type registered in the
// extension-tag range; it reports false for any other type, which the
// transport then drops and counts (tcpnet.Stats.DroppedCodec).
type MessageCodec struct{}

// EncodeMessage encodes one engine message as a wire-envelope frame.
func (MessageCodec) EncodeMessage(msg actor.Message) ([]byte, bool) { return encodeWire(msg) }

// DecodeMessage reverses EncodeMessage.
func (MessageCodec) DecodeMessage(b []byte) (actor.Message, error) { return decodeWire(b) }

// --- canonical field encodings, one per payload kind ---

func marshalKey(e *wire.Encoder, k group.Key) {
	e.Uint64(uint64(k.GroupID))
	e.Uint64(k.Epoch)
}

func unmarshalKey(d *wire.Decoder) group.Key {
	return group.Key{GroupID: ids.GroupID(d.Uint64()), Epoch: d.Uint64()}
}

// MarshalWire implements wire.Marshaler.
func (p gossipPayload) MarshalWire(e *wire.Encoder) {
	e.Bytes32(p.BcastID)
	e.Uint64(uint64(p.Origin))
	e.VarBytes(p.Data)
	e.Int64(int64(p.Hops))
}

// UnmarshalWire decodes a gossipPayload.
func (p *gossipPayload) UnmarshalWire(d *wire.Decoder) {
	p.BcastID = d.Bytes32()
	p.Origin = ids.NodeID(d.Uint64())
	p.Data = d.VarBytes()
	p.Hops = int(d.Int64())
}

// MarshalWire implements wire.Marshaler.
func (p walkPayload) MarshalWire(e *wire.Encoder) {
	e.Bytes32(p.WalkID)
	e.Byte(byte(p.Purpose))
	e.Int64(int64(p.StepsLeft))
	e.ListLen(len(p.Rands))
	for _, r := range p.Rands {
		e.Uint64(r)
	}
	p.Origin.MarshalWire(e)
	e.ListLen(len(p.Path))
	for _, k := range p.Path {
		marshalKey(e, k)
	}
	e.Int64(int64(p.Cycle))
	p.NewGroup.MarshalWire(e)
	p.Joiner.MarshalWire(e)
	e.VarBytes(p.JoinerSig)
	p.Member.MarshalWire(e)
	e.Int64(int64(p.ShuffleSeq))
}

// UnmarshalWire decodes a walkPayload.
func (p *walkPayload) UnmarshalWire(d *wire.Decoder) {
	p.WalkID = d.Bytes32()
	p.Purpose = WalkPurpose(d.Byte())
	p.StepsLeft = int(d.Int64())
	n := d.ListLen()
	p.Rands = nil
	for i := 0; i < n && d.Err() == nil; i++ {
		p.Rands = append(p.Rands, d.Uint64())
	}
	p.Origin.UnmarshalWire(d)
	n = d.ListLen()
	p.Path = nil
	for i := 0; i < n && d.Err() == nil; i++ {
		p.Path = append(p.Path, unmarshalKey(d))
	}
	p.Cycle = int(d.Int64())
	p.NewGroup.UnmarshalWire(d)
	p.Joiner.UnmarshalWire(d)
	p.JoinerSig = d.VarBytes()
	p.Member.UnmarshalWire(d)
	p.ShuffleSeq = int(d.Int64())
}

// MarshalWire implements wire.Marshaler.
func (p walkAttachment) MarshalWire(e *wire.Encoder) {
	e.ListLen(len(p.Chain))
	for _, c := range p.Chain {
		c.MarshalWire(e)
	}
	p.StepSig.MarshalWire(e)
}

// UnmarshalWire decodes a walkAttachment.
func (p *walkAttachment) UnmarshalWire(d *wire.Decoder) {
	n := d.ListLen()
	p.Chain = nil
	for i := 0; i < n && d.Err() == nil; i++ {
		var c overlay.StepCert
		c.UnmarshalWire(d)
		p.Chain = append(p.Chain, c)
	}
	p.StepSig.UnmarshalWire(d)
}

// MarshalWire implements wire.Marshaler.
func (p backwardPayload) MarshalWire(e *wire.Encoder) {
	e.Bytes32(p.WalkID)
	e.ListLen(len(p.Path))
	for _, k := range p.Path {
		marshalKey(e, k)
	}
	p.Result.MarshalWire(e)
}

// UnmarshalWire decodes a backwardPayload.
func (p *backwardPayload) UnmarshalWire(d *wire.Decoder) {
	p.WalkID = d.Bytes32()
	n := d.ListLen()
	p.Path = nil
	for i := 0; i < n && d.Err() == nil; i++ {
		p.Path = append(p.Path, unmarshalKey(d))
	}
	p.Result.UnmarshalWire(d)
}

// MarshalWire implements wire.Marshaler.
func (p walkResult) MarshalWire(e *wire.Encoder) {
	e.Bytes32(p.WalkID)
	e.Byte(byte(p.Purpose))
	p.Target.MarshalWire(e)
	e.Bool(p.Accept)
	p.Partner.MarshalWire(e)
	p.Member.MarshalWire(e)
	e.Int64(int64(p.ShuffleSeq))
}

// UnmarshalWire decodes a walkResult.
func (p *walkResult) UnmarshalWire(d *wire.Decoder) {
	p.WalkID = d.Bytes32()
	p.Purpose = WalkPurpose(d.Byte())
	p.Target.UnmarshalWire(d)
	p.Accept = d.Bool()
	p.Partner.UnmarshalWire(d)
	p.Member.UnmarshalWire(d)
	p.ShuffleSeq = int(d.Int64())
}

// MarshalWire implements wire.Marshaler.
func (p neighborUpdatePayload) MarshalWire(e *wire.Encoder) {
	p.NewComp.MarshalWire(e)
}

// UnmarshalWire decodes a neighborUpdatePayload.
func (p *neighborUpdatePayload) UnmarshalWire(d *wire.Decoder) {
	p.NewComp.UnmarshalWire(d)
}

// MarshalWire implements wire.Marshaler.
func (p setNeighborPayload) MarshalWire(e *wire.Encoder) {
	e.Int64(int64(p.Cycle))
	e.Byte(byte(p.Dir))
	p.Comp.MarshalWire(e)
}

// UnmarshalWire decodes a setNeighborPayload.
func (p *setNeighborPayload) UnmarshalWire(d *wire.Decoder) {
	p.Cycle = int(d.Int64())
	p.Dir = overlay.Direction(d.Byte())
	p.Comp.UnmarshalWire(d)
}

// MarshalWire implements wire.Marshaler.
func (p cycleAssignPayload) MarshalWire(e *wire.Encoder) {
	e.Int64(int64(p.Cycle))
	p.Pred.MarshalWire(e)
	p.Succ.MarshalWire(e)
}

// UnmarshalWire decodes a cycleAssignPayload.
func (p *cycleAssignPayload) UnmarshalWire(d *wire.Decoder) {
	p.Cycle = int(d.Int64())
	p.Pred.UnmarshalWire(d)
	p.Succ.UnmarshalWire(d)
}

// MarshalWire implements wire.Marshaler.
func (p exchangeConfirmPayload) MarshalWire(e *wire.Encoder) {
	e.Bytes32(p.WalkID)
	p.Partner.MarshalWire(e)
	p.Member.MarshalWire(e)
	p.OriginOld.MarshalWire(e)
}

// UnmarshalWire decodes an exchangeConfirmPayload.
func (p *exchangeConfirmPayload) UnmarshalWire(d *wire.Decoder) {
	p.WalkID = d.Bytes32()
	p.Partner.UnmarshalWire(d)
	p.Member.UnmarshalWire(d)
	p.OriginOld.UnmarshalWire(d)
}

// MarshalWire implements wire.Marshaler.
func (p exchangeCancelPayload) MarshalWire(e *wire.Encoder) {
	e.Bytes32(p.WalkID)
}

// UnmarshalWire decodes an exchangeCancelPayload.
func (p *exchangeCancelPayload) UnmarshalWire(d *wire.Decoder) {
	p.WalkID = d.Bytes32()
}

// MarshalWire implements wire.Marshaler.
func (p mergeRequestPayload) MarshalWire(e *wire.Encoder) {
	p.From.MarshalWire(e)
}

// UnmarshalWire decodes a mergeRequestPayload.
func (p *mergeRequestPayload) UnmarshalWire(d *wire.Decoder) {
	p.From.UnmarshalWire(d)
}

// MarshalWire implements wire.Marshaler.
func (p mergeAcceptPayload) MarshalWire(e *wire.Encoder) {
	p.Absorber.MarshalWire(e)
}

// UnmarshalWire decodes a mergeAcceptPayload.
func (p *mergeAcceptPayload) UnmarshalWire(d *wire.Decoder) {
	p.Absorber.UnmarshalWire(d)
}

// MarshalWire implements wire.Marshaler.
func (p mergeRejectPayload) MarshalWire(e *wire.Encoder) {
	e.Bool(p.Busy)
}

// UnmarshalWire decodes a mergeRejectPayload.
func (p *mergeRejectPayload) UnmarshalWire(d *wire.Decoder) {
	p.Busy = d.Bool()
}

// MarshalWire implements wire.Marshaler.
func (p snapshotPayload) MarshalWire(e *wire.Encoder) {
	p.State.MarshalWire(e)
}

// UnmarshalWire decodes a snapshotPayload.
func (p *snapshotPayload) UnmarshalWire(d *wire.Decoder) {
	p.State.UnmarshalWire(d)
}

// MarshalWire implements wire.Marshaler.
func (p joinRedirectPayload) MarshalWire(e *wire.Encoder) {
	e.Bytes32(p.WalkID)
	p.Target.MarshalWire(e)
	e.ListLen(len(p.Chain))
	for _, c := range p.Chain {
		c.MarshalWire(e)
	}
}

// UnmarshalWire decodes a joinRedirectPayload.
func (p *joinRedirectPayload) UnmarshalWire(d *wire.Decoder) {
	p.WalkID = d.Bytes32()
	p.Target.UnmarshalWire(d)
	n := d.ListLen()
	p.Chain = nil
	for i := 0; i < n && d.Err() == nil; i++ {
		var c overlay.StepCert
		c.UnmarshalWire(d)
		p.Chain = append(p.Chain, c)
	}
}

// --- SMR operation payloads ---

// MarshalWire implements wire.Marshaler.
func (p bcastOp) MarshalWire(e *wire.Encoder) {
	e.Bytes32(p.BcastID)
	e.Uint64(uint64(p.Origin))
	e.VarBytes(p.Data)
}

// UnmarshalWire decodes a bcastOp.
func (p *bcastOp) UnmarshalWire(d *wire.Decoder) {
	p.BcastID = d.Bytes32()
	p.Origin = ids.NodeID(d.Uint64())
	p.Data = d.VarBytes()
}

// MarshalWire implements wire.Marshaler.
func (p joinOp) MarshalWire(e *wire.Encoder) {
	p.Joiner.MarshalWire(e)
	e.Uint64(p.Nonce)
	e.VarBytes(p.Sig)
}

// UnmarshalWire decodes a joinOp.
func (p *joinOp) UnmarshalWire(d *wire.Decoder) {
	p.Joiner.UnmarshalWire(d)
	p.Nonce = d.Uint64()
	p.Sig = d.VarBytes()
}

// MarshalWire implements wire.Marshaler.
func (p renounceOp) MarshalWire(e *wire.Encoder) {
	p.Node.MarshalWire(e)
	e.Uint64(uint64(p.Target))
	e.Uint64(p.Nonce)
	e.VarBytes(p.Sig)
}

// UnmarshalWire decodes a renounceOp.
func (p *renounceOp) UnmarshalWire(d *wire.Decoder) {
	p.Node.UnmarshalWire(d)
	p.Target = ids.GroupID(d.Uint64())
	p.Nonce = d.Uint64()
	p.Sig = d.VarBytes()
}

// MarshalWire implements wire.Marshaler.
func (p leaveOp) MarshalWire(e *wire.Encoder) {
	e.Uint64(uint64(p.GroupID))
	e.Uint64(uint64(p.Node))
}

// UnmarshalWire decodes a leaveOp.
func (p *leaveOp) UnmarshalWire(d *wire.Decoder) {
	p.GroupID = ids.GroupID(d.Uint64())
	p.Node = ids.NodeID(d.Uint64())
}

// MarshalWire implements wire.Marshaler.
func (p evictVoteOp) MarshalWire(e *wire.Encoder) {
	e.Uint64(uint64(p.GroupID))
	e.Uint64(uint64(p.Target))
	e.Uint64(p.Epoch)
}

// UnmarshalWire decodes an evictVoteOp.
func (p *evictVoteOp) UnmarshalWire(d *wire.Decoder) {
	p.GroupID = ids.GroupID(d.Uint64())
	p.Target = ids.NodeID(d.Uint64())
	p.Epoch = d.Uint64()
}

// MarshalWire implements wire.Marshaler.
func (p inputVoteOp) MarshalWire(e *wire.Encoder) {
	e.Byte(byte(p.Kind))
	e.Bytes32(p.MsgID)
	marshalKey(e, p.Src)
	e.VarBytes(p.Payload)
}

// UnmarshalWire decodes an inputVoteOp.
func (p *inputVoteOp) UnmarshalWire(d *wire.Decoder) {
	p.Kind = group.Kind(d.Byte())
	p.MsgID = d.Bytes32()
	p.Src = unmarshalKey(d)
	p.Payload = d.VarBytes()
}

// MarshalWire implements wire.Marshaler.
func (p splitOp) MarshalWire(e *wire.Encoder) {
	e.Uint64(uint64(p.GroupID))
	e.Uint64(p.Epoch)
}

// UnmarshalWire decodes a splitOp.
func (p *splitOp) UnmarshalWire(d *wire.Decoder) {
	p.GroupID = ids.GroupID(d.Uint64())
	p.Epoch = d.Uint64()
}

// MarshalWire implements wire.Marshaler.
func (p walkStartOp) MarshalWire(e *wire.Encoder) {
	e.Uint64(uint64(p.GroupID))
	e.Byte(byte(p.Purpose))
	p.Joiner.MarshalWire(e)
	e.VarBytes(p.JoinerSig)
	p.Member.MarshalWire(e)
	e.Int64(int64(p.ShuffleSeq))
	e.Int64(int64(p.Cycle))
	p.NewGroup.MarshalWire(e)
	e.Uint64(p.Nonce)
}

// UnmarshalWire decodes a walkStartOp.
func (p *walkStartOp) UnmarshalWire(d *wire.Decoder) {
	p.GroupID = ids.GroupID(d.Uint64())
	p.Purpose = WalkPurpose(d.Byte())
	p.Joiner.UnmarshalWire(d)
	p.JoinerSig = d.VarBytes()
	p.Member.UnmarshalWire(d)
	p.ShuffleSeq = int(d.Int64())
	p.Cycle = int(d.Int64())
	p.NewGroup.UnmarshalWire(d)
	p.Nonce = d.Uint64()
}

// MarshalWire implements wire.Marshaler.
func (p shuffleStartOp) MarshalWire(e *wire.Encoder) {
	e.Uint64(uint64(p.GroupID))
	e.Uint64(p.Epoch)
}

// UnmarshalWire decodes a shuffleStartOp.
func (p *shuffleStartOp) UnmarshalWire(d *wire.Decoder) {
	p.GroupID = ids.GroupID(d.Uint64())
	p.Epoch = d.Uint64()
}

// MarshalWire implements wire.Marshaler.
func (p walkTimeoutOp) MarshalWire(e *wire.Encoder) {
	e.Bytes32(p.WalkID)
}

// UnmarshalWire decodes a walkTimeoutOp.
func (p *walkTimeoutOp) UnmarshalWire(d *wire.Decoder) {
	p.WalkID = d.Bytes32()
}

// MarshalWire implements wire.Marshaler.
func (p mergeStartOp) MarshalWire(e *wire.Encoder) {
	e.Uint64(uint64(p.GroupID))
	e.Uint64(p.Epoch)
	e.Int64(int64(p.Attempt))
}

// UnmarshalWire decodes a mergeStartOp.
func (p *mergeStartOp) UnmarshalWire(d *wire.Decoder) {
	p.GroupID = ids.GroupID(d.Uint64())
	p.Epoch = d.Uint64()
	p.Attempt = int(d.Int64())
}

// --- replicated state snapshot ---

// MarshalWire implements wire.Marshaler. Snapshots are majority-matched
// across the admitting composition, so the encoding must be byte-identical
// at every member for the same logical state (no maps anywhere below).
func (s stateSnapshot) MarshalWire(e *wire.Encoder) {
	s.Comp.MarshalWire(e)
	e.VarBytes(s.NbrsBytes)
	e.Bool(s.Busy)
	e.ListLen(len(s.PendingJoins))
	for _, pj := range s.PendingJoins {
		pj.Joiner.MarshalWire(e)
		e.VarBytes(pj.Sig)
		e.Bool(pj.Expected)
	}
	e.ListLen(len(s.ExpectedJoiners))
	for _, ej := range s.ExpectedJoiners {
		e.Bytes32(ej.WalkID)
		ej.Joiner.MarshalWire(e)
	}
	e.ListLen(len(s.WalkOrigins))
	for _, wo := range s.WalkOrigins {
		e.Bytes32(wo.WalkID)
		e.Byte(byte(wo.Purpose))
		wo.OriginComp.MarshalWire(e)
		wo.Joiner.MarshalWire(e)
		e.VarBytes(wo.JoinerSig)
		wo.Member.MarshalWire(e)
		e.Int64(int64(wo.ShuffleSeq))
	}
	e.ListLen(len(s.PendingExch))
	for _, pe := range s.PendingExch {
		e.Bytes32(pe.WalkID)
		pe.OriginComp.MarshalWire(e)
		pe.Partner.MarshalWire(e)
		pe.Member.MarshalWire(e)
	}
	e.Bool(s.HasShuffle)
	if s.HasShuffle {
		e.Uint64(s.Shuffle.Epoch)
		e.ListLen(len(s.Shuffle.Remaining))
		for _, m := range s.Shuffle.Remaining {
			m.MarshalWire(e)
		}
		e.Bytes32(s.Shuffle.ActiveWalk)
		s.Shuffle.ActiveMember.MarshalWire(e)
		e.Int64(int64(s.Shuffle.ActiveSeq))
		e.Int64(int64(s.Shuffle.Completed))
		e.Int64(int64(s.Shuffle.Suppressed))
	}
	e.Int64(int64(s.MergeAttempt))
	e.Uint64(s.WalkSeq)
	e.ListLen(len(s.AppliedOps))
	for _, d := range s.AppliedOps {
		e.Bytes32(d)
	}
}

// UnmarshalWire decodes a stateSnapshot.
func (s *stateSnapshot) UnmarshalWire(d *wire.Decoder) {
	s.Comp.UnmarshalWire(d)
	s.NbrsBytes = d.VarBytes()
	s.Busy = d.Bool()
	n := d.ListLen()
	s.PendingJoins = nil
	for i := 0; i < n && d.Err() == nil; i++ {
		var pj pendingJoin
		pj.Joiner.UnmarshalWire(d)
		pj.Sig = d.VarBytes()
		pj.Expected = d.Bool()
		s.PendingJoins = append(s.PendingJoins, pj)
	}
	n = d.ListLen()
	s.ExpectedJoiners = nil
	for i := 0; i < n && d.Err() == nil; i++ {
		var ej expectedJoiner
		ej.WalkID = d.Bytes32()
		ej.Joiner.UnmarshalWire(d)
		s.ExpectedJoiners = append(s.ExpectedJoiners, ej)
	}
	n = d.ListLen()
	s.WalkOrigins = nil
	for i := 0; i < n && d.Err() == nil; i++ {
		var wo walkOrigin
		wo.WalkID = d.Bytes32()
		wo.Purpose = WalkPurpose(d.Byte())
		wo.OriginComp.UnmarshalWire(d)
		wo.Joiner.UnmarshalWire(d)
		wo.JoinerSig = d.VarBytes()
		wo.Member.UnmarshalWire(d)
		wo.ShuffleSeq = int(d.Int64())
		s.WalkOrigins = append(s.WalkOrigins, wo)
	}
	n = d.ListLen()
	s.PendingExch = nil
	for i := 0; i < n && d.Err() == nil; i++ {
		var pe pendingExchange
		pe.WalkID = d.Bytes32()
		pe.OriginComp.UnmarshalWire(d)
		pe.Partner.UnmarshalWire(d)
		pe.Member.UnmarshalWire(d)
		s.PendingExch = append(s.PendingExch, pe)
	}
	s.Shuffle = shuffleState{}
	s.HasShuffle = d.Bool()
	if s.HasShuffle {
		s.Shuffle.Epoch = d.Uint64()
		n = d.ListLen()
		for i := 0; i < n && d.Err() == nil; i++ {
			var m ids.Identity
			m.UnmarshalWire(d)
			s.Shuffle.Remaining = append(s.Shuffle.Remaining, m)
		}
		s.Shuffle.ActiveWalk = d.Bytes32()
		s.Shuffle.ActiveMember.UnmarshalWire(d)
		s.Shuffle.ActiveSeq = int(d.Int64())
		s.Shuffle.Completed = int(d.Int64())
		s.Shuffle.Suppressed = int(d.Int64())
	}
	s.MergeAttempt = int(d.Int64())
	s.WalkSeq = d.Uint64()
	n = d.ListLen()
	s.AppliedOps = nil
	for i := 0; i < n && d.Err() == nil; i++ {
		s.AppliedOps = append(s.AppliedOps, crypto.Digest(d.Bytes32()))
	}
}
