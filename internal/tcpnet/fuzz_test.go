package tcpnet

// Fuzz coverage for the frame reader: a peer may write arbitrary bytes on
// the socket; the reader must reject them with an error, never panic, and
// never allocate unbounded memory (the reader's frame bound enforces it).

import (
	"bytes"
	"encoding/binary"
	"testing"

	"atum/internal/wire"
)

func FuzzFrameReaderNeverPanics(f *testing.F) {
	// Seed with a valid connection prefix ('H' then 'W'), a truncated frame,
	// hostile lengths and a pre-wire 'G' frame.
	var e wire.Encoder
	hello := bytes.Clone(helloFrame(&e, 1, "x:1"))
	f.Add(hello)
	f.Add(append(hello, testEnvelope(f, Envelope{From: 1, To: 2, Msg: testMsg{Seq: 3, Body: "b"}})...))
	f.Add([]byte{0, 0, 0, 4, 1, 2})                                     // truncated body
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})                               // absurd length
	f.Add([]byte{0, 0, 0, 0})                                           // zero length
	f.Add(append([]byte{0, 0, 0, 8}, bytes.Repeat([]byte{0xAA}, 8)...)) // garbage
	f.Add(rawFrame([]byte{'G', 0x1f, 0xff, 0x81}))                      // legacy gob frame

	f.Fuzz(func(t *testing.T, data []byte) {
		r := newFrameReader(bytes.NewReader(data), 1<<16, stubCodec{})
		if _, _, err := r.readHello(); err != nil {
			return // rejection is the expected outcome for junk
		}
		for i := 0; i < 4; i++ {
			if _, err := r.readEnvelope(); err != nil {
				return
			}
		}
	})
}

func FuzzFrameLengthBound(f *testing.F) {
	f.Add(uint32(17), []byte("payload"))
	f.Fuzz(func(t *testing.T, claimed uint32, body []byte) {
		const max = 1 << 12
		var buf bytes.Buffer
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], claimed)
		buf.Write(hdr[:])
		buf.Write(body)
		_, err := newFrameReader(&buf, max, stubCodec{}).readEnvelope()
		if int(claimed) > max && err == nil {
			t.Fatalf("frame of claimed size %d accepted past bound %d", claimed, max)
		}
	})
}
