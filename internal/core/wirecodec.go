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
// extension range: per-type field walks registered through
// RegisterRawMessage (rawext.go), so app raw messages are wire-codable
// without the engine knowing their schemas.

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
	// Node-level messages of the gossip repair paths (pull.go).
	wkPayloadPull
	wkPayloadPush
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

// row builds the table row of wire type T, engine or application
// (rawext.go), from its field walk: both directions are that one method, run
// over an encoder or a decoder.
func row[T any, P interface {
	*T
	Wire(wire.Codec)
}](tag byte, class wireClass, kind group.Kind, carrierOK bool) wireRow {
	var zero T
	return wireRow{tag: tag, proto: zero, class: class, kind: kind, carrierOK: carrierOK,
		marshal: func(v any, e *wire.Encoder) {
			// A walk takes its fields' addresses and a boxed value has none:
			// the copy is the one allocation encoding pays for sharing the walk.
			t := v.(T)
			P(&t).Wire(e.Codec())
		},
		decode: func(body []byte) (any, error) {
			// The call through P is indirect, so its arguments escape: keeping
			// the decoder and the value in one struct makes that one
			// allocation instead of two.
			var s struct {
				d wire.Decoder
				v T
			}
			s.d.Reset(body)
			P(&s.v).Wire(s.d.Codec())
			if err := s.d.Finish(); err != nil {
				return nil, fmt.Errorf("core: decode wire envelope kind %d: %w", tag, err)
			}
			return s.v, nil
		}}
}

// wireRows is the engine's wire-type table: one row per type, tags 1–41 and
// 45–46 (42–44 are retired and have no row). Adding a type is one row here, its
// Wire walk, and one line in docs/WIRE.md's tag table (TestWireDocTagTable
// compares the two).
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

	row[PayloadPull](wkPayloadPull, classNodeMsg, 0, false),
	row[PayloadPush](wkPayloadPush, classNodeMsg, 0, false),
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
// v's type has no row of an accepted class. Envelope encoding is the
// per-payload hot path, so it builds through wire.Frame's pooled scratch.
func encodeWire(v any, accept wireClass) ([]byte, bool) {
	r := rowOfValue(v)
	if r == nil || r.class&accept == 0 {
		return nil, false
	}
	return wire.Frame(func(e *wire.Encoder) {
		e.Byte(wireEnvMagic)
		e.Byte(r.tag)
		e.Byte(wireEnvV1)
		r.marshal(v, e)
	}), true
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

// Wire walks an SMREnvelope in wire order. Inner is framed as a nested wire
// envelope, the one field with a representation per direction: the frame is
// built before the VarBytes primitive and opened after it. Only SMR engine
// messages may nest, so an envelope cannot hold an envelope (or a snapshot, or
// an op) — on the way out that is an engine bug, the replica being Inner's
// only producer.
func (m *SMREnvelope) Wire(c wire.Codec) {
	wire.U64(c, &m.GroupID)
	c.Uint64(&m.Epoch)
	var inner []byte
	if !c.Decoding() {
		var ok bool
		if inner, ok = encodeWire(m.Inner, classSMRMsg); !ok {
			panic(fmt.Sprintf("core: SMREnvelope.Inner %T is not an SMR engine message", m.Inner))
		}
	}
	c.VarBytes(&inner)
	if c.Decoding() && !c.Failed() {
		var err error
		if m.Inner, err = decodeWire(inner, classSMRMsg); err != nil {
			c.Fail(fmt.Errorf("SMR envelope inner: %w", err))
		}
	}
}

// Wire walks a Heartbeat in wire order.
func (m *Heartbeat) Wire(c wire.Codec) {
	wire.U64(c, &m.GroupID)
	c.Uvarint(&m.Epoch)
	c.Uint64(&m.Salt)
	haveWire(c, &m.Have)
	wire.List(c, &m.Lacks, digestWire)
	boundList(c, "heartbeat lacks", len(m.Lacks), maxListed)
}

// Wire walks a JoinContact in wire order.
func (m *JoinContact) Wire(c wire.Codec) { m.Joiner.Wire(c) }

// Wire walks a ContactInfo in wire order.
func (m *ContactInfo) Wire(c wire.Codec) { m.Comp.Wire(c) }

// Wire walks a JoinRequest in wire order.
func (m *JoinRequest) Wire(c wire.Codec) {
	m.Joiner.Wire(c)
	wire.U64(c, &m.Target)
	c.Uint64(&m.Nonce)
	c.VarBytes(&m.Sig)
}

// Wire walks a Renounce in wire order.
func (m *Renounce) Wire(c wire.Codec) {
	m.Node.Wire(c)
	wire.U64(c, &m.Target)
	c.Uint64(&m.Nonce)
	c.VarBytes(&m.Sig)
}

// --- group-message payloads ---

func (p *gossipPayload) Wire(c wire.Codec) {
	wire.Bytes32(c, &p.BcastID)
	wire.U64(c, &p.Origin)
	c.VarBytes(&p.Data)
}

// decodeGossipView is decodeKind(kindGossip, b) without the copy: Data
// aliases b. It serves handleGossip, which drops all but the first acceptance
// of a broadcast after reading BcastID; the view is safe to keep because
// nothing reuses b. It is the one reader written apart from its type's walk
// (the walk's VarBytes copies), and TestGossipViewMatchesWalk holds it to
// gossipPayload.Wire.
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

func uint64Wire(v *uint64, c wire.Codec) { c.Uint64(v) }

func (p *walkPayload) Wire(c wire.Codec) {
	wire.Bytes32(c, &p.WalkID)
	wire.B8(c, &p.Purpose)
	c.Int(&p.StepsLeft)
	wire.List(c, &p.Rands, uint64Wire)
	p.Origin.Wire(c)
	wire.List(c, &p.Path, (*group.Key).Wire)
	c.Int(&p.Cycle)
	p.NewGroup.Wire(c)
	p.Joiner.Wire(c)
	c.VarBytes(&p.JoinerSig)
	p.Member.Wire(c)
	c.Int(&p.ShuffleSeq)
}

func (p *walkAttachment) Wire(c wire.Codec) {
	wire.List(c, &p.Chain, (*overlay.StepCert).Wire)
	p.StepSig.Wire(c)
}

func (p *backwardPayload) Wire(c wire.Codec) {
	wire.Bytes32(c, &p.WalkID)
	wire.List(c, &p.Path, (*group.Key).Wire)
	p.Result.Wire(c)
}

func (p *walkResult) Wire(c wire.Codec) {
	wire.Bytes32(c, &p.WalkID)
	wire.B8(c, &p.Purpose)
	p.Target.Wire(c)
	c.Bool(&p.Accept)
	p.Partner.Wire(c)
	p.Member.Wire(c)
	c.Int(&p.ShuffleSeq)
}

func (p *neighborUpdatePayload) Wire(c wire.Codec) { p.NewComp.Wire(c) }

func (p *setNeighborPayload) Wire(c wire.Codec) {
	c.Int(&p.Cycle)
	wire.B8(c, &p.Dir)
	p.Comp.Wire(c)
}

func (p *cycleAssignPayload) Wire(c wire.Codec) {
	c.Int(&p.Cycle)
	p.Pred.Wire(c)
	p.Succ.Wire(c)
}

func (p *exchangeConfirmPayload) Wire(c wire.Codec) {
	wire.Bytes32(c, &p.WalkID)
	p.Partner.Wire(c)
	p.Member.Wire(c)
	p.OriginOld.Wire(c)
}

func (p *exchangeCancelPayload) Wire(c wire.Codec) { wire.Bytes32(c, &p.WalkID) }

func (p *mergeRequestPayload) Wire(c wire.Codec) { p.From.Wire(c) }

func (p *mergeAcceptPayload) Wire(c wire.Codec) { p.Absorber.Wire(c) }

func (p *mergeRejectPayload) Wire(c wire.Codec) { c.Bool(&p.Busy) }

func (p *snapshotPayload) Wire(c wire.Codec) { p.State.Wire(c) }

func (p *joinRedirectPayload) Wire(c wire.Codec) {
	wire.Bytes32(c, &p.WalkID)
	p.Target.Wire(c)
	wire.List(c, &p.Chain, (*overlay.StepCert).Wire)
}

// --- SMR operation payloads ---

func (p *bcastOp) Wire(c wire.Codec) {
	wire.Bytes32(c, &p.BcastID)
	wire.U64(c, &p.Origin)
	c.VarBytes(&p.Data)
}

func (p *joinOp) Wire(c wire.Codec) {
	p.Joiner.Wire(c)
	c.Uint64(&p.Nonce)
	c.VarBytes(&p.Sig)
}

func (p *renounceOp) Wire(c wire.Codec) {
	p.Node.Wire(c)
	wire.U64(c, &p.Target)
	c.Uint64(&p.Nonce)
	c.VarBytes(&p.Sig)
}

func (p *leaveOp) Wire(c wire.Codec) {
	wire.U64(c, &p.GroupID)
	wire.U64(c, &p.Node)
}

func (p *evictVoteOp) Wire(c wire.Codec) {
	wire.U64(c, &p.GroupID)
	wire.U64(c, &p.Target)
	c.Uint64(&p.Epoch)
}

func (p *inputVoteOp) Wire(c wire.Codec) {
	wire.B8(c, &p.Kind)
	wire.Bytes32(c, &p.MsgID)
	p.Src.Wire(c)
	c.VarBytes(&p.Payload)
}

func (p *splitOp) Wire(c wire.Codec) {
	wire.U64(c, &p.GroupID)
	c.Uint64(&p.Epoch)
}

func (p *walkStartOp) Wire(c wire.Codec) {
	wire.U64(c, &p.GroupID)
	wire.B8(c, &p.Purpose)
	p.Joiner.Wire(c)
	c.VarBytes(&p.JoinerSig)
	p.Member.Wire(c)
	c.Int(&p.ShuffleSeq)
	c.Int(&p.Cycle)
	p.NewGroup.Wire(c)
	c.Uint64(&p.Nonce)
}

func (p *shuffleStartOp) Wire(c wire.Codec) {
	wire.U64(c, &p.GroupID)
	c.Uint64(&p.Epoch)
}

func (p *walkTimeoutOp) Wire(c wire.Codec) { wire.Bytes32(c, &p.WalkID) }

func (p *mergeStartOp) Wire(c wire.Codec) {
	wire.U64(c, &p.GroupID)
	c.Uint64(&p.Epoch)
	c.Int(&p.Attempt)
}

// --- replicated state snapshot ---

// Wire walks a stateSnapshot in wire order. Snapshots are majority-matched
// across the admitting composition, so the encoding must be byte-identical at
// every member for the same logical state (no maps anywhere below); the
// shuffle fields are on the wire only when HasShuffle is.
func (s *stateSnapshot) Wire(c wire.Codec) {
	s.Comp.Wire(c)
	c.VarBytes(&s.NbrsBytes)
	c.Bool(&s.Busy)
	wire.List(c, &s.PendingJoins, (*pendingJoin).Wire)
	wire.List(c, &s.ExpectedJoiners, (*expectedJoiner).Wire)
	wire.List(c, &s.WalkOrigins, (*walkOrigin).Wire)
	wire.List(c, &s.PendingExch, (*pendingExchange).Wire)
	c.Bool(&s.HasShuffle)
	if s.HasShuffle {
		s.Shuffle.Wire(c)
	}
	c.Int(&s.MergeAttempt)
	c.Uint64(&s.WalkSeq)
	wire.List(c, &s.AppliedOps, func(d *crypto.Digest, c wire.Codec) { wire.Bytes32(c, d) })
}

func (pj *pendingJoin) Wire(c wire.Codec) {
	pj.Joiner.Wire(c)
	c.VarBytes(&pj.Sig)
	c.Bool(&pj.Expected)
}

func (ej *expectedJoiner) Wire(c wire.Codec) {
	wire.Bytes32(c, &ej.WalkID)
	ej.Joiner.Wire(c)
}

func (wo *walkOrigin) Wire(c wire.Codec) {
	wire.Bytes32(c, &wo.WalkID)
	wire.B8(c, &wo.Purpose)
	wo.OriginComp.Wire(c)
	wo.Joiner.Wire(c)
	c.VarBytes(&wo.JoinerSig)
	wo.Member.Wire(c)
	c.Int(&wo.ShuffleSeq)
}

func (pe *pendingExchange) Wire(c wire.Codec) {
	wire.Bytes32(c, &pe.WalkID)
	pe.OriginComp.Wire(c)
	pe.Partner.Wire(c)
	pe.Member.Wire(c)
}

func (sh *shuffleState) Wire(c wire.Codec) {
	c.Uint64(&sh.Epoch)
	wire.List(c, &sh.Remaining, (*ids.Identity).Wire)
	wire.Bytes32(c, &sh.ActiveWalk)
	sh.ActiveMember.Wire(c)
	c.Int(&sh.ActiveSeq)
}
