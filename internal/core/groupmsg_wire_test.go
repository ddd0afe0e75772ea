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

// TestWireSizeIsEncodedLength: the node-level messages whose sizes are exact
// report the length of the frame the codec writes — a GroupMsg in every form,
// at epochs of each varint length, with and without payload and attachment;
// heartbeats of 0, 1 and 256 digests; pulls and pushes. SMREnvelope (with the
// SMR messages inside it) and the join messages keep estimates; every other
// node-level row must be in the first list.
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
	for _, n := range []int{0, 1, maxHeartbeatDigests} {
		msgs = append(msgs, Heartbeat{GroupID: 1, Epoch: 2, Delivered: make([]crypto.Digest, n)})
	}
	for _, n := range []int{0, 1, maxPullDigests} {
		msgs = append(msgs, PayloadPull{Digests: make([]crypto.Digest, n)})
	}
	msgs = append(msgs, PayloadPush{}, PayloadPush{Payloads: [][]byte{{}}}, PayloadPush{Payloads: [][]byte{[]byte("a"), []byte("bcd")}})
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
	estimated := map[reflect.Type]bool{}
	for _, v := range []any{SMREnvelope{}, JoinContact{}, ContactInfo{}, JoinRequest{}, Renounce{}} {
		estimated[reflect.TypeOf(v)] = true
	}
	for _, r := range wireRows {
		if typ := reflect.TypeOf(r.proto); r.class == classNodeMsg && !exact[typ] && !estimated[typ] {
			t.Errorf("node-level message %v is in neither list", typ)
		}
	}
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
