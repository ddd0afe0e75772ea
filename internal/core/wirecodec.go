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
	"reflect"

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
	// blanks keep iota past them, so the next tag added is 45. They have no
	// row in wireRows, so frames bearing them are rejected as unknown.
	_
	_
	_
)

// wireClass says where a wire type may appear. Every decode entry point names
// the classes (or the one kind, or the one type) it expects and refuses a
// well-formed frame of any other before running that frame's decoder.
type wireClass uint8

const (
	// classPayload is a group-message payload: GroupMsg.Payload, or
	// GroupMsg.Attach for walkAttachment, which no group kind carries.
	classPayload wireClass = 1 << iota
	// classOp is an SMR operation (smr.Operation.Data).
	classOp
	// classNodeMsg is a node-level message, framed by byte-level transports.
	classNodeMsg
	// classSMRMsg is an SMR engine message (SMREnvelope.Inner).
	classSMRMsg
	// classExt is an application raw message in the extension-tag range
	// (rawext.go); its rows live in the RegisterRawMessage registry.
	classExt

	classAny = classPayload | classOp | classNodeMsg | classSMRMsg | classExt
)

// wireRow declares one wire type. It is everything the engine knows about a
// tag: the codec, the kind registry and the batch-carrier allowlist are all
// lookups of these fields.
type wireRow struct {
	tag   byte
	proto any // a value of the Go type the tag encodes; only its type is used
	class wireClass
	// kind is the group kind whose messages carry this payload; 0 for ops,
	// messages and walkAttachment. kindBatch and kindRaw have no row: their
	// payloads are a group-layer batch frame and an extension frame.
	kind group.Kind
	// carrierOK says a kindBatch carrier may deliver the kind. It is false for
	// node-addressed handshake replies and special-cased reconfiguration
	// traffic, whose handlers assume a standalone, directly-addressed group
	// message (snapshots, certificate-mode replies, merge negotiation).
	carrierOK bool
	marshal   func(v any, e *wire.Encoder)
	decode    func(body []byte) (any, error)
}

// row builds the table row of engine type T from its MarshalWire/UnmarshalWire
// pair.
func row[T wire.Marshaler, P interface {
	*T
	UnmarshalWire(*wire.Decoder)
}](tag byte, class wireClass, kind group.Kind, carrierOK bool) wireRow {
	var zero T
	return wireRow{tag: tag, proto: zero, class: class, kind: kind, carrierOK: carrierOK,
		marshal: marshalEngineValue,
		decode: func(body []byte) (any, error) {
			// The call through P is indirect, so its arguments escape: keeping
			// the decoder and the value in one struct makes that one
			// allocation instead of two.
			var s struct {
				d wire.Decoder
				v T
			}
			s.d.Reset(body)
			P(&s.v).UnmarshalWire(&s.d)
			if err := s.d.Finish(); err != nil {
				return nil, fmt.Errorf("core: decode wire envelope kind %d: %w", tag, err)
			}
			return s.v, nil
		}}
}

// marshalEngineValue is every engine row's marshal: row's constraint on T is
// what guarantees the assertion holds.
func marshalEngineValue(v any, e *wire.Encoder) { v.(wire.Marshaler).MarshalWire(e) }

// wireRows is the engine's wire-type table: one row per type, tags 1–41
// (42–44 are retired and have no row). Adding a type is one row here, its
// MarshalWire/UnmarshalWire pair, and one line in docs/WIRE.md's tag table
// (TestWireDocTagTable compares the two).
var wireRows = []wireRow{
	row[gossipPayload](wkGossip, classPayload, kindGossip, true),
	row[walkPayload](wkWalk, classPayload, kindWalk, true),
	row[walkAttachment](wkWalkAttachment, classPayload, 0, false),
	row[backwardPayload](wkBackward, classPayload, kindWalkBackward, true),
	row[walkResult](wkWalkResult, classPayload, kindWalkResult, false),
	row[neighborUpdatePayload](wkNeighborUpdate, classPayload, kindNeighborUpdate, true),
	row[setNeighborPayload](wkSetNeighbor, classPayload, kindSetNeighbor, true),
	row[cycleAssignPayload](wkCycleAssign, classPayload, kindCycleAssign, true),
	row[exchangeConfirmPayload](wkExchangeConfirm, classPayload, kindExchangeConfirm, true),
	row[exchangeCancelPayload](wkExchangeCancel, classPayload, kindExchangeCancel, true),
	row[mergeRequestPayload](wkMergeRequest, classPayload, kindMergeRequest, false),
	row[mergeAcceptPayload](wkMergeAccept, classPayload, kindMergeAccept, false),
	row[mergeRejectPayload](wkMergeReject, classPayload, kindMergeReject, false),
	row[snapshotPayload](wkSnapshot, classPayload, kindSnapshot, false),
	row[joinRedirectPayload](wkJoinRedirect, classPayload, kindJoinRedirect, false),

	row[bcastOp](wkBcastOp, classOp, 0, false),
	row[joinOp](wkJoinOp, classOp, 0, false),
	row[leaveOp](wkLeaveOp, classOp, 0, false),
	row[renounceOp](wkRenounceOp, classOp, 0, false),
	row[evictVoteOp](wkEvictVoteOp, classOp, 0, false),
	row[inputVoteOp](wkInputVoteOp, classOp, 0, false),
	row[splitOp](wkSplitOp, classOp, 0, false),
	row[walkStartOp](wkWalkStartOp, classOp, 0, false),
	row[shuffleStartOp](wkShuffleStartOp, classOp, 0, false),
	row[walkTimeoutOp](wkWalkTimeoutOp, classOp, 0, false),
	row[mergeStartOp](wkMergeStartOp, classOp, 0, false),

	row[SMREnvelope](wkSMREnvelope, classNodeMsg, 0, false),
	row[Heartbeat](wkHeartbeat, classNodeMsg, 0, false),
	row[JoinContact](wkJoinContact, classNodeMsg, 0, false),
	row[ContactInfo](wkContactInfo, classNodeMsg, 0, false),
	row[JoinRequest](wkJoinRequest, classNodeMsg, 0, false),
	row[Renounce](wkRenounce, classNodeMsg, 0, false),
	row[group.GroupMsg](wkGroupMsg, classNodeMsg, 0, false),

	row[dolev.SlotMsg](wkSlotMsg, classSMRMsg, 0, false),
	row[pbft.Request](wkPBFTRequest, classSMRMsg, 0, false),
	row[pbft.PrePrepare](wkPBFTPrePrepare, classSMRMsg, 0, false),
	row[pbft.Prepare](wkPBFTPrepare, classSMRMsg, 0, false),
	row[pbft.Commit](wkPBFTCommit, classSMRMsg, 0, false),
	row[pbft.Checkpoint](wkPBFTCheckpoint, classSMRMsg, 0, false),
	row[pbft.ViewChange](wkPBFTViewChange, classSMRMsg, 0, false),
	row[pbft.NewView](wkPBFTNewView, classSMRMsg, 0, false),
}

// The table's indexes, built once: by envelope tag, by group kind, by Go type.
// They are read-only after package initialization, so lookups take no lock.
var rowByTag, rowByKind, rowByType = indexWireRows(wireRows)

func indexWireRows(rows []wireRow) (byTag [RawTagMin]*wireRow, byKind [1 << 8]*wireRow, byType map[reflect.Type]*wireRow) {
	byType = make(map[reflect.Type]*wireRow, len(rows))
	for i := range rows {
		r, typ := &rows[i], reflect.TypeOf(rows[i].proto)
		if r.tag == 0 || r.tag >= RawTagMin || byTag[r.tag] != nil || byType[typ] != nil ||
			(r.kind != 0 && byKind[r.kind] != nil) {
			panic(fmt.Sprintf("core: wire table row %d (%v, tag %d, kind %d) collides with an earlier row", i, typ, r.tag, r.kind))
		}
		byTag[r.tag], byType[typ] = r, r
		if r.kind != 0 {
			byKind[r.kind] = r
		}
	}
	return byTag, byKind, byType
}

// rowOfValue returns the row that encodes v's type: an engine row, else a
// registered application extension row, else nil.
func rowOfValue(v any) *wireRow {
	typ := reflect.TypeOf(v)
	if r := rowByType[typ]; r != nil {
		return r
	}
	rawReg.RLock()
	defer rawReg.RUnlock()
	return rawReg.byType[typ]
}

// rowOfTag returns the row of an envelope tag, or nil: the engine table below
// RawTagMin, the application registry from there up.
func rowOfTag(tag byte) *wireRow {
	if tag < RawTagMin {
		return rowByTag[tag]
	}
	rawReg.RLock()
	defer rawReg.RUnlock()
	return rawReg.byTag[tag]
}

// encodeWire returns the tagged, versioned wire frame for v, or false when
// v's type has no row of an accepted class. Frames build in pooled scratch
// and detach as one exact-size allocation — envelope encoding is the
// per-payload hot path, and throwaway encoders paid append-growth garbage on
// every message.
func encodeWire(v any, accept wireClass) ([]byte, bool) {
	r := rowOfValue(v)
	if r == nil || r.class&accept == 0 {
		return nil, false
	}
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.Byte(wireEnvMagic)
	e.Byte(r.tag)
	e.Byte(wireEnvV1)
	r.marshal(v, e)
	return e.Detach(), true
}

// openWire checks a frame's envelope header and returns the row of its tag
// and the body. Hostile frames (unknown and retired tags, unsupported
// versions, and the legacy gob envelope, whose first byte is never the 0x00
// magic) return an error, never panic; so do truncation and trailing bytes
// once the row's decoder runs.
func openWire(b []byte) (*wireRow, []byte, error) {
	if len(b) < 3 {
		return nil, nil, fmt.Errorf("core: wire envelope too short (%d bytes)", len(b))
	}
	if b[0] != wireEnvMagic {
		return nil, nil, fmt.Errorf("core: not a wire envelope (first byte %#x)", b[0])
	}
	tag, version := b[1], b[2]
	if version != wireEnvV1 {
		return nil, nil, fmt.Errorf("core: wire envelope kind %d: unsupported version %d", tag, version)
	}
	r := rowOfTag(tag)
	if r == nil && tag >= RawTagMin {
		return nil, nil, fmt.Errorf("core: unregistered raw message tag %#x", tag)
	}
	if r == nil {
		return nil, nil, fmt.Errorf("core: unknown wire envelope kind %d", tag)
	}
	return r, b[3:], nil
}

// decodeWire decodes a frame whose type is of an accepted class.
func decodeWire(b []byte, accept wireClass) (any, error) {
	r, body, err := openWire(b)
	if err != nil {
		return nil, err
	}
	if r.class&accept == 0 {
		return nil, fmt.Errorf("core: wire envelope kind %d is not accepted here", r.tag)
	}
	return r.decode(body)
}

// openKind opens the payload of a group message of the given kind: the frame's
// tag must be that kind's row. The carrier allowlist and the inbox are keyed
// by kind, so a payload of another type must not ride in under it.
func openKind(kind group.Kind, b []byte) (*wireRow, []byte, error) {
	r, body, err := openWire(b)
	if err != nil {
		return nil, nil, err
	}
	if r != rowByKind[kind] {
		return nil, nil, fmt.Errorf("core: wire envelope kind %d is not the payload of group kind %d", r.tag, kind)
	}
	return r, body, nil
}

// decodeKind decodes the payload of a group message of the given kind.
func decodeKind(kind group.Kind, b []byte) (any, error) {
	r, body, err := openKind(kind, b)
	if err != nil {
		return nil, err
	}
	return r.decode(body)
}

// decodeAs decodes a frame that must hold exactly a T.
func decodeAs[T any](b []byte) (T, error) {
	var zero T
	r, body, err := openWire(b)
	if err != nil {
		return zero, err
	}
	if _, ok := r.proto.(T); !ok {
		return zero, fmt.Errorf("core: wire envelope kind %d is not a %T", r.tag, zero)
	}
	v, err := r.decode(body)
	if err != nil {
		return zero, err
	}
	return v.(T), nil
}

// MessageCodec adapts the engine's wire envelope to byte-level transports
// (it implements tcpnet.Options.Codec). EncodeMessage covers the engine's
// message set plus every application raw-message type registered in the
// extension-tag range; it reports false for any other type, which the
// transport then drops and counts (tcpnet.Stats.DroppedCodec).
type MessageCodec struct{}

// EncodeMessage encodes one engine message as a wire-envelope frame.
func (MessageCodec) EncodeMessage(msg actor.Message) ([]byte, bool) {
	return encodeWire(msg, classAny)
}

// DecodeMessage reverses EncodeMessage.
func (MessageCodec) DecodeMessage(b []byte) (actor.Message, error) {
	return decodeWire(b, classAny)
}

// --- node-level messages ---

// MarshalWire implements wire.Marshaler. Inner is framed as a nested wire
// envelope and must be an SMR engine message: the replica is its only
// producer, so anything else is an engine bug.
func (m SMREnvelope) MarshalWire(e *wire.Encoder) {
	inner, ok := encodeWire(m.Inner, classSMRMsg)
	if !ok {
		panic(fmt.Sprintf("core: SMREnvelope.Inner %T is not an SMR engine message", m.Inner))
	}
	e.Uint64(uint64(m.GroupID))
	e.Uint64(m.Epoch)
	e.VarBytes(inner)
}

// UnmarshalWire decodes an SMREnvelope. Only SMR engine messages may nest, so
// an envelope cannot hold an envelope (or a snapshot, or an op).
func (m *SMREnvelope) UnmarshalWire(d *wire.Decoder) {
	m.GroupID = ids.GroupID(d.Uint64())
	m.Epoch = d.Uint64()
	inner := d.VarBytes()
	if d.Err() != nil {
		return
	}
	v, err := decodeWire(inner, classSMRMsg)
	if err != nil {
		d.Fail(fmt.Errorf("SMR envelope inner: %w", err))
	}
	m.Inner = v
}

// MarshalWire implements wire.Marshaler.
func (m Heartbeat) MarshalWire(e *wire.Encoder) {
	e.Uint64(uint64(m.GroupID))
	e.Uint64(m.Epoch)
}

// UnmarshalWire decodes a Heartbeat.
func (m *Heartbeat) UnmarshalWire(d *wire.Decoder) {
	m.GroupID = ids.GroupID(d.Uint64())
	m.Epoch = d.Uint64()
}

// MarshalWire implements wire.Marshaler.
func (m JoinContact) MarshalWire(e *wire.Encoder) {
	m.Joiner.MarshalWire(e)
}

// UnmarshalWire decodes a JoinContact.
func (m *JoinContact) UnmarshalWire(d *wire.Decoder) {
	m.Joiner.UnmarshalWire(d)
}

// MarshalWire implements wire.Marshaler.
func (m ContactInfo) MarshalWire(e *wire.Encoder) {
	m.Comp.MarshalWire(e)
}

// UnmarshalWire decodes a ContactInfo.
func (m *ContactInfo) UnmarshalWire(d *wire.Decoder) {
	m.Comp.UnmarshalWire(d)
}

// MarshalWire implements wire.Marshaler.
func (m JoinRequest) MarshalWire(e *wire.Encoder) {
	m.Joiner.MarshalWire(e)
	e.Uint64(uint64(m.Target))
	e.Uint64(m.Nonce)
	e.VarBytes(m.Sig)
}

// UnmarshalWire decodes a JoinRequest.
func (m *JoinRequest) UnmarshalWire(d *wire.Decoder) {
	m.Joiner.UnmarshalWire(d)
	m.Target = ids.GroupID(d.Uint64())
	m.Nonce = d.Uint64()
	m.Sig = d.VarBytes()
}

// MarshalWire implements wire.Marshaler.
func (m Renounce) MarshalWire(e *wire.Encoder) {
	m.Node.MarshalWire(e)
	e.Uint64(uint64(m.Target))
	e.Uint64(m.Nonce)
	e.VarBytes(m.Sig)
}

// UnmarshalWire decodes a Renounce.
func (m *Renounce) UnmarshalWire(d *wire.Decoder) {
	m.Node.UnmarshalWire(d)
	m.Target = ids.GroupID(d.Uint64())
	m.Nonce = d.Uint64()
	m.Sig = d.VarBytes()
}

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
}

// UnmarshalWire decodes a gossipPayload.
func (p *gossipPayload) UnmarshalWire(d *wire.Decoder) {
	p.BcastID = d.Bytes32()
	p.Origin = ids.NodeID(d.Uint64())
	p.Data = d.VarBytes()
}

// decodeGossipView is decodeKind(kindGossip, b) without the copy: Data
// aliases b. It serves handleGossip, which drops all but the first acceptance
// of a broadcast after reading BcastID.
func decodeGossipView(b []byte) (gossipPayload, error) {
	_, body, err := openKind(kindGossip, b)
	if err != nil {
		return gossipPayload{}, err
	}
	var d wire.Decoder
	d.Reset(body)
	var p gossipPayload
	p.BcastID = d.Bytes32()
	p.Origin = ids.NodeID(d.Uint64())
	p.Data = d.VarBytesView()
	if err := d.Finish(); err != nil {
		return gossipPayload{}, fmt.Errorf("core: decode wire envelope kind %d: %w", wkGossip, err)
	}
	return p, nil
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
