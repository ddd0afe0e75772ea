package core

// Coverage for the Heartbeat wire layout (Heartbeat.Wire) beyond its golden
// frame: the refusal of the layout it replaced, canonical frames, and the
// tags it carries.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"atum/internal/crypto"
	"atum/internal/wire"
)

// oldLayoutHeartbeatFrame rebuilds golden row 28 (fullMessageValues'
// Heartbeat) in the layout before tags: a fixed-width epoch and the list of
// digests delivered since the previous heartbeat.
func oldLayoutHeartbeatFrame() []byte {
	var e wire.Encoder
	e.Byte(wireEnvMagic)
	e.Byte(wkHeartbeat)
	e.Byte(wireEnvV1)
	e.Uint64(27) // GroupID
	e.Uint64(13) // Epoch
	e.ListLen(2) // Delivered
	e.Bytes32(wcDigest(16))
	e.Bytes32(wcDigest(17))
	return e.Bytes()
}

// TestOldLayoutHeartbeatFrameRejected is the migration guarantee for the
// tagged heartbeat: a frame from a peer on the old layout is refused, not
// misread. The frame is checked against the hash goldenFrames committed for it
// while that layout was current.
func TestOldLayoutHeartbeatFrameRejected(t *testing.T) {
	old := oldLayoutHeartbeatFrame()
	const oldSHA = "56e3e85d0cc8fcab2d9c07c3e6c84390419233e568639407c94c9760d38df30a"
	if sum := sha256.Sum256(old); len(old) != 87 || hex.EncodeToString(sum[:]) != oldSHA {
		t.Fatalf("rebuilt frame (%d bytes, %x) is not the old golden one", len(old), sum)
	}
	if v, err := (MessageCodec{}).DecodeMessage(old); err == nil {
		t.Errorf("the decoder took an old-layout frame: %+v", v)
	}
	var want Heartbeat
	for _, v := range fullMessageValues() {
		if m, ok := v.(Heartbeat); ok {
			want = m
		}
	}
	cur, _ := (MessageCodec{}).EncodeMessage(want)
	if v, err := (MessageCodec{}).DecodeMessage(cur); err != nil || !reflect.DeepEqual(v, want) {
		t.Errorf("current layout decodes to %+v, %v", v, err)
	}
}

// FuzzHeartbeatCanonical: any Heartbeat frame the decoder accepts re-encodes
// to the same bytes, and its WireSize is its length.
func FuzzHeartbeatCanonical(f *testing.F) {
	for _, m := range []Heartbeat{
		{},
		{GroupID: 3, Epoch: 128, Salt: 9, Have: []uint32{1, 2, 0xffffffff}},
		{GroupID: 3, Epoch: ^uint64(0), Salt: 9, Lacks: []crypto.Digest{wcDigest(1)}},
	} {
		b, _ := (MessageCodec{}).EncodeMessage(m)
		f.Add(b[3:])
	}
	f.Add(oldLayoutHeartbeatFrame()[3:])
	f.Add(haveFrame(tagBytes(1, 5, 4))[3:])
	f.Fuzz(func(t *testing.T, body []byte) {
		frame := append([]byte{wireEnvMagic, wkHeartbeat, wireEnvV1}, body...)
		m, err := decodeAs[Heartbeat](frame)
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
