package ashare

// Coverage for the index-update broadcast codec (rawwire.go): the payload
// layout is pinned byte for byte, and the decoder — fed by any member's
// broadcasts — must reject hostile input without panicking.

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"atum"
	"atum/internal/crypto"
)

const (
	goldenKey    = "0000000000000009" + "00000001" + "78" // Owner 9, Name "x"
	goldenDigest = "1111111111111111111111111111111111111111111111111111111111111111"
)

// goldenRecords holds one frame per record type (docs/WIRE.md, "Application
// broadcast payloads").
var goldenRecords = []struct {
	rec any
	hex string
}{
	{putRecord{Meta: FileMeta{
		Key: FileKey{Owner: 9, Name: "x"}, Size: 42, ChunkSize: 16,
		ChunkDigests: []crypto.Digest{bytes32(0x11)},
	}}, "01" + goldenKey + "000000000000002a" + "0000000000000010" + "00000001" + goldenDigest},
	{replicaRecord{Key: FileKey{Owner: 9, Name: "x"}, Node: 5}, "02" + goldenKey + "0000000000000005"},
	{deleteRecord{Key: FileKey{Owner: 9, Name: "x"}}, "03" + goldenKey},
}

func bytes32(b byte) (d crypto.Digest) {
	for i := range d {
		d[i] = b
	}
	return d
}

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRecordGoldenBytes(t *testing.T) {
	for _, g := range goldenRecords {
		want := unhex(t, g.hex)
		if got := encodeRecord(g.rec); !bytes.Equal(got, want) {
			t.Errorf("%T encodes to %x, want %x", g.rec, got, want)
		}
		got, err := decodeRecord(want)
		if err != nil || !reflect.DeepEqual(got, g.rec) {
			t.Errorf("%T decodes to %+v, %v", g.rec, got, err)
		}
	}
}

// goldenRawFrames holds one wire-envelope frame per registered raw-message
// type (docs/WIRE.md, "The application extension-tag range").
var goldenRawFrames = []struct {
	msg any
	hex string
}{
	{chunkRequest{Key: FileKey{Owner: 9, Name: "x"}, Idx: 3},
		"009001" + goldenKey + "0000000000000003"},
	{chunkResponse{Key: FileKey{Owner: 9, Name: "x"}, Idx: 3, Data: []byte("ab")},
		"009101" + goldenKey + "0000000000000003" + "00000002" + "6162"},
}

func TestRawFrameGoldenBytes(t *testing.T) {
	codec := atum.WireMessageCodec()
	for _, g := range goldenRawFrames {
		want := unhex(t, g.hex)
		if got, ok := codec.EncodeMessage(g.msg); !ok || !bytes.Equal(got, want) {
			t.Errorf("%T encodes to %x, %v; want %x", g.msg, got, ok, want)
		}
		got, err := codec.DecodeMessage(want)
		if err != nil || !reflect.DeepEqual(got, g.msg) {
			t.Errorf("%T decodes to %+v, %v", g.msg, got, err)
		}
	}
}

func TestDecodeRecordRejectsHostileInput(t *testing.T) {
	reject := func(name string, in []byte) {
		t.Helper()
		if v, err := decodeRecord(in); err == nil {
			t.Errorf("%s: accepted as %+v", name, v)
		}
	}
	for _, g := range goldenRecords {
		frame := unhex(t, g.hex)
		for n := 0; n < len(frame); n++ {
			reject("truncated", frame[:n])
		}
		reject("trailing byte", append(frame, 0))
	}
	reject("unknown tag", unhex(t, "04"+goldenKey))
	reject("engine envelope", []byte{0x00, 0x01, 0x01})
	// A digest count past the codec's list bound, and one the bytes that
	// follow cannot back, both fail before any proportional allocation.
	meta := "01" + goldenKey + "000000000000002a" + "0000000000000010"
	reject("oversized ListLen", unhex(t, meta+"ffffffff"+goldenDigest))
	reject("unbacked ListLen", unhex(t, meta+"00100000"+goldenDigest))
	// A put no file has: on a chunk size below 1, replication would loop
	// forever or slice out of range, and with no digest a GET never ends.
	size := "01" + goldenKey + "000000000000002a"
	reject("zero ChunkSize", unhex(t, size+"0000000000000000"+"00000001"+goldenDigest))
	reject("negative ChunkSize", unhex(t, size+"ffffffffffffffff"+"00000001"+goldenDigest))
	reject("no chunk digests", unhex(t, meta+"00000000"))
}

// TestRetiredRingTagsRefused: extension tags 0x92–0x95 carried the ring
// index's RPCs; with the ring index gone no codec answers to them, and a
// frame bearing one is refused like any unknown tag — while ashare's two
// live tags still decode.
func TestRetiredRingTagsRefused(t *testing.T) {
	codec := atum.WireMessageCodec()
	live, ok := codec.EncodeMessage(chunkRequest{Key: FileKey{Owner: 9, Name: "x"}, Idx: 3})
	if !ok || live[1] != rawTagChunkRequest {
		t.Fatalf("chunkRequest frame = % x, %v", live, ok)
	}
	if _, err := codec.DecodeMessage(live); err != nil {
		t.Fatalf("live tag %#x refused: %v", live[1], err)
	}
	for tag := byte(0x92); tag <= 0x95; tag++ {
		frame := append([]byte(nil), live...)
		frame[1] = tag
		if v, err := codec.DecodeMessage(frame); err == nil {
			t.Errorf("retired tag %#x decoded as %+v", tag, v)
		}
	}
}

func FuzzDecodeRecord(f *testing.F) {
	for _, g := range goldenRecords {
		f.Add(unhex(f, g.hex))
	}
	f.Add([]byte(strings.Repeat("\x01", 40)))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := decodeRecord(data)
		if err != nil {
			return
		}
		// One logical record, one encoding: whatever decodes re-encodes to
		// the same bytes.
		if got := encodeRecord(v); !bytes.Equal(got, data) {
			t.Fatalf("%+v re-encodes to %x, decoded from %x", v, got, data)
		}
	})
}

// FuzzDecodeRawMessage feeds ashare's raw-message decoders through the
// transport codec: a frame bearing an extension tag either fails or
// re-encodes to the same bytes.
func FuzzDecodeRawMessage(f *testing.F) {
	for _, g := range goldenRawFrames {
		f.Add(unhex(f, g.hex))
	}
	codec := atum.WireMessageCodec()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || data[1] < atum.RawMessageTagMin {
			return // engine frames have their own fuzz targets
		}
		v, err := codec.DecodeMessage(data)
		if err != nil {
			return
		}
		if got, ok := codec.EncodeMessage(v); !ok || !bytes.Equal(got, data) {
			t.Fatalf("%+v re-encodes to %x, %v; decoded from %x", v, got, ok, data)
		}
	})
}
