package astream

// Coverage for the tier-1 broadcast payload codec: the layout is pinned byte
// for byte, and the decoder — fed by any member's broadcasts — must reject
// hostile input without panicking.

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"atum"
	"atum/internal/crypto"
)

// goldenDigestFrame is digestMsg{Seq: 7, Digest: 22…22} on the wire
// (docs/WIRE.md, "Application broadcast payloads").
const goldenDigestFrame = "01" + "0000000000000007" +
	"2222222222222222222222222222222222222222222222222222222222222222"

func goldenDigest(t testing.TB) (digestMsg, []byte) {
	t.Helper()
	frame, err := hex.DecodeString(goldenDigestFrame)
	if err != nil {
		t.Fatal(err)
	}
	m := digestMsg{Seq: 7}
	for i := range m.Digest {
		m.Digest[i] = 0x22
	}
	return m, frame
}

func TestStreamGoldenBytes(t *testing.T) {
	m, frame := goldenDigest(t)
	if got := encodeStream(m); !bytes.Equal(got, frame) {
		t.Errorf("digestMsg encodes to %x, want %x", got, frame)
	}
	if got, err := decodeStream(frame); err != nil || got != m {
		t.Errorf("golden frame decodes to %+v, %v", got, err)
	}
}

// TestDataMsgGoldenBytes pins the tier-2 push frame, dataMsg{Seq: 7, Data:
// "ab"} under extension tag 0x80 (docs/WIRE.md).
func TestDataMsgGoldenBytes(t *testing.T) {
	msg := dataMsg{Seq: 7, Data: []byte("ab")}
	want, _ := hex.DecodeString("008001" + "0000000000000007" + "00000002" + "6162")
	codec := atum.WireMessageCodec()
	if got, ok := codec.EncodeMessage(msg); !ok || !bytes.Equal(got, want) {
		t.Errorf("dataMsg encodes to %x, %v; want %x", got, ok, want)
	}
	if got, err := codec.DecodeMessage(want); err != nil || !reflect.DeepEqual(got, msg) {
		t.Errorf("golden frame decodes to %+v, %v", got, err)
	}
}

func TestDecodeStreamRejectsHostileInput(t *testing.T) {
	_, frame := goldenDigest(t)
	for n := 0; n < len(frame); n++ {
		if m, err := decodeStream(frame[:n]); err == nil {
			t.Errorf("truncated to %d bytes: accepted as %+v", n, m)
		}
	}
	if m, err := decodeStream(append(bytes.Clone(frame), 0)); err == nil {
		t.Errorf("trailing byte: accepted as %+v", m)
	}
	unknown := bytes.Clone(frame)
	unknown[0] = 0x02
	if m, err := decodeStream(unknown); err == nil {
		t.Errorf("unknown tag: accepted as %+v", m)
	}
}

func FuzzDecodeStream(f *testing.F) {
	_, frame := goldenDigest(f)
	f.Add(frame)
	f.Add(encodeStream(digestMsg{Digest: crypto.Hash(nil)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeStream(data)
		if err != nil {
			return
		}
		if got := encodeStream(m); !bytes.Equal(got, data) {
			t.Fatalf("%+v re-encodes to %x, decoded from %x", m, got, data)
		}
	})
}
