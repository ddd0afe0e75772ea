package core

// Coverage for the GroupMsg wire header (group.GroupMsg.Wire) beyond its
// golden frames (edgeFrames): the refusal of the layout it replaced and of
// every non-canonical header, sizes that equal encoded lengths, and fuzz.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"atum/internal/actor"
	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/smr"
	"atum/internal/smr/dolev"
	"atum/internal/wire"
)

// carrierMsg is the bare carrier the egress scheduler sends toward a node: a
// batch frame behind two zero IDs.
func carrierMsg() group.GroupMsg {
	var m group.GroupMsg
	group.SendBatchToNode(func(_ ids.NodeID, msg actor.Message) { m = msg.(group.GroupMsg) },
		group.Composition{GroupID: 3, Epoch: 5, Members: []ids.Identity{{ID: 1}}}, 1, 2, kindBatch, crypto.Digest{},
		[]group.BatchItem{{Kind: kindRaw, MsgID: crypto.Hash([]byte("raw")), Payload: []byte("raw"), DerivedID: true}})
	return m
}

// groupMsgEdgeValues returns the GroupMsgs of edgeFrames: one of each header
// form, and the nil and empty payloads and attachments.
func groupMsgEdgeValues() (msgs []group.GroupMsg) {
	for _, c := range edgeFrames {
		if m, ok := c.in.(group.GroupMsg); ok {
			msgs = append(msgs, m)
		}
	}
	return msgs
}

// oldLayoutGroupMsgFrame rebuilds golden row 33 (fullMessageValues' GroupMsg)
// in the layout before the form byte: fixed-width epochs, both IDs always,
// and a presence boolean before the payload and before the attachment.
func oldLayoutGroupMsgFrame() []byte {
	var e wire.Encoder
	e.Byte(wireEnvMagic)
	e.Byte(wkGroupMsg)
	e.Byte(wireEnvV1)
	e.Uint64(31) // SrcGroup
	e.Uint64(15) // SrcEpoch
	e.Uint64(32) // DstGroup
	e.Uint64(16) // DstEpoch
	e.Byte(byte(kindGossip))
	e.Bytes32(wcDigest(13))
	e.Bytes32(wcDigest(14))
	e.Bool(true)
	e.VarBytes([]byte{9, 9, 9})
	e.Bool(true)
	e.VarBytes([]byte{10})
	return e.Bytes()
}

// TestOldLayoutGroupMsgFrameRejected is the migration guarantee for the
// compact header: a GroupMsg frame from a peer on the old layout is refused,
// not misread. The frame is checked against the hash goldenFrames committed
// for it while that layout was current.
func TestOldLayoutGroupMsgFrameRejected(t *testing.T) {
	old := oldLayoutGroupMsgFrame()
	const oldSHA = "950a217e2c8d5e99a88d2d0bc569afab1caf15a098789089cbb13918d188c0de"
	if sum := sha256.Sum256(old); len(old) != 114 || hex.EncodeToString(sum[:]) != oldSHA {
		t.Fatalf("rebuilt frame (%d bytes, %x) is not the old golden one", len(old), sum)
	}
	if v, err := (MessageCodec{}).DecodeMessage(old); err == nil {
		t.Errorf("the decoder took an old-layout frame: %+v", v)
	}
	// The current layout of the same message passes.
	var want group.GroupMsg
	for _, v := range fullMessageValues() {
		if m, ok := v.(group.GroupMsg); ok {
			want = m
		}
	}
	cur, _ := (MessageCodec{}).EncodeMessage(want)
	if v, err := (MessageCodec{}).DecodeMessage(cur); err != nil || !reflect.DeepEqual(v, want) {
		t.Errorf("current layout decodes to %+v, %v", v, err)
	}
}

// groupMsgFrame builds a GroupMsg frame byte by byte, for headers the encoder
// never writes: the source epoch's varint bytes, the form byte, then the IDs.
func groupMsgFrame(srcEpoch []byte, form byte, idList ...crypto.Digest) []byte {
	var e wire.Encoder
	e.Byte(wireEnvMagic)
	e.Byte(wkGroupMsg)
	e.Byte(wireEnvV1)
	e.Uint64(7)
	for _, b := range srcEpoch {
		e.Byte(b)
	}
	e.Uint64(9)
	e.Uvarint(2)
	e.Byte(byte(kindGossip))
	e.Byte(form)
	for _, d := range idList {
		e.Bytes32(d)
	}
	return e.Bytes()
}

// TestGroupMsgNonCanonicalRefused: the decoder refuses every header the
// encoder would have written differently, so each message has one encoding.
func TestGroupMsgNonCanonicalRefused(t *testing.T) {
	zero := crypto.Digest{}
	if _, err := (MessageCodec{}).DecodeMessage(groupMsgFrame([]byte{1}, 0x08)); err != nil {
		t.Fatalf("the canonical bare frame is refused: %v", err)
	}
	for _, c := range []struct {
		name  string
		frame []byte
	}{
		{"an unknown form bit", groupMsgFrame([]byte{1}, 0x18)},
		{"bare together with derived", groupMsgFrame([]byte{1}, 0x0c)},
		{"derived from a zero digest", groupMsgFrame([]byte{1}, 0x04, zero)},
		{"two equal IDs spelled out", groupMsgFrame([]byte{1}, 0x00, wcDigest(5), wcDigest(5))},
		{"two zero IDs spelled out", groupMsgFrame([]byte{1}, 0x00, zero, zero)},
		{"a non-minimal epoch", groupMsgFrame([]byte{0x81, 0x00}, 0x08)},
		{"an 11-byte epoch", groupMsgFrame(append(bytes.Repeat([]byte{0xff}, 10), 0x01), 0x08)},
	} {
		if v, err := (MessageCodec{}).DecodeMessage(c.frame); err == nil {
			t.Errorf("%s: decoded to %+v", c.name, v)
		}
	}
}

// TestWireSizeIsEncodedLength: every node-level message reports the length of
// the frame the codec writes — a GroupMsg in every form, at epochs of each
// varint length, with and without payload and attachment; heartbeats of 0, 1
// and maxHaveTags tags by 0, 1 and maxListed lacks at the same epochs; pulls
// and pushes; the join messages; and an SMREnvelope around each SMR engine
// message, a Dolev-Strong slot with no signature and with a chain of two among
// them. Every node-level row and every SMR row must have a case.
func TestWireSizeIsEncodedLength(t *testing.T) {
	var msgs []actor.Message
	epochs := []uint64{0, 127, 128, ^uint64(0)}
	for _, id := range [][2]crypto.Digest{{}, {wcDigest(3), wcDigest(3)}, {wcDigest(3), wcDigest(4)}, {wcDigest(3), {}}, {{}, wcDigest(4)}} {
		for _, src := range epochs {
			for _, dst := range epochs {
				for _, p := range [][]byte{nil, {}, []byte("payload")} {
					for _, a := range [][]byte{nil, []byte("att")} {
						msgs = append(msgs, group.GroupMsg{SrcGroup: 1, SrcEpoch: src, DstGroup: 2, DstEpoch: dst,
							Kind: kindGossip, MsgID: id[0], PayloadDigest: id[1], Payload: p, Attach: a})
					}
				}
			}
		}
	}
	for _, tags := range []int{0, 1, maxHaveTags} {
		for _, lacks := range []int{0, 1, maxListed} {
			for _, epoch := range epochs {
				msgs = append(msgs, Heartbeat{GroupID: 1, Epoch: epoch, Salt: 3, Have: make([]uint32, tags), Lacks: make([]crypto.Digest, lacks)})
			}
		}
	}
	for _, n := range []int{0, 1, maxPullDigests} {
		msgs = append(msgs, PayloadPull{Digests: make([]crypto.Digest, n)})
	}
	msgs = append(msgs, PayloadPush{}, PayloadPush{Payloads: [][]byte{{}}}, PayloadPush{Payloads: [][]byte{[]byte("a"), []byte("bcd")}})
	msgs = append(msgs, JoinContact{}, JoinRequest{}, Renounce{Sig: []byte{}}, ContactInfo{})
	nested := map[reflect.Type]bool{}
	for _, v := range append(fullMessageValues(), dolev.SlotMsg{Ops: []smr.Operation{{Data: []byte("x")}}}) {
		switch rowOfValue(v).class {
		case classNodeMsg:
			msgs = append(msgs, v)
		case classSMRMsg:
			msgs = append(msgs, SMREnvelope{GroupID: 5, Epoch: 200, Inner: v})
			nested[reflect.TypeOf(v)] = true
		}
	}
	exact := map[reflect.Type]bool{}
	for _, m := range msgs {
		b, ok := (MessageCodec{}).EncodeMessage(m)
		if !ok {
			t.Fatalf("%T is not wire-codable", m)
		}
		if n := actor.SizeOf(m); n != len(b) {
			t.Errorf("%T %+v: size %d, frame %d bytes", m, m, n, len(b))
		}
		exact[reflect.TypeOf(m)] = true
	}
	for _, r := range wireRows {
		typ := reflect.TypeOf(r.proto)
		if r.class == classNodeMsg && !exact[typ] || r.class == classSMRMsg && !nested[typ] {
			t.Errorf("%v has no size case", typ)
		}
	}
}

// FuzzNodeMessageSize: any node-level frame the codec accepts re-encodes, and
// the decoded message's size is the length of its re-encoding.
func FuzzNodeMessageSize(f *testing.F) {
	for _, v := range fullMessageValues() {
		if rowOfValue(v).class == classSMRMsg {
			v = SMREnvelope{GroupID: 5, Epoch: 200, Inner: v}
		}
		b, _ := (MessageCodec{}).EncodeMessage(v)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := (MessageCodec{}).DecodeMessage(frame)
		if err != nil || rowOfValue(m).class != classNodeMsg {
			return
		}
		again, ok := (MessageCodec{}).EncodeMessage(m)
		if !ok {
			t.Fatalf("accepted %T does not re-encode", m)
		}
		if n := actor.SizeOf(m); n != len(again) {
			t.Fatalf("%T re-encodes to %d bytes, has size %d", m, len(again), n)
		}
	})
}

// FuzzGroupMsgCanonical: any GroupMsg frame the decoder accepts re-encodes to
// the same bytes, and its WireSize is its length.
func FuzzGroupMsgCanonical(f *testing.F) {
	for _, m := range groupMsgEdgeValues() {
		b, _ := (MessageCodec{}).EncodeMessage(m)
		f.Add(b[3:])
	}
	f.Add(oldLayoutGroupMsgFrame()[3:])
	f.Fuzz(func(t *testing.T, body []byte) {
		frame := append([]byte{wireEnvMagic, wkGroupMsg, wireEnvV1}, body...)
		m, err := decodeAs[group.GroupMsg](frame)
		if err != nil {
			return
		}
		again, ok := (MessageCodec{}).EncodeMessage(m)
		if !ok || !bytes.Equal(again, frame) {
			t.Fatalf("accepted frame %x re-encodes to %x", frame, again)
		}
		if n := m.WireSize(); n != len(frame) {
			t.Fatalf("accepted frame of %d bytes has WireSize %d", len(frame), n)
		}
	})
}
