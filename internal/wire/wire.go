// Package wire implements a small deterministic binary codec.
//
// Atum signs several kinds of payloads (Dolev-Strong slot values, random-walk
// certificates, join requests, stream digests) and majority-matches group
// messages by payload digest. Both require canonical bytes, so the types
// involved marshal themselves through this codec rather than through
// reflection-based encoders whose output may vary: each states its field
// order once, as a walk over a Codec (codec.go), and both directions are
// derived from it. Since the wire-codec migration it is also the framing of
// the engine's payload envelope and the TCP transport
// (internal/core/wirecodec.go, internal/tcpnet).
//
// The format is: fixed-width big-endian integers, and length-prefixed byte
// strings (uint32 length). It is intentionally not self-describing; both ends
// know the schema. The full byte-level specification of every frame Atum
// puts on a wire — these primitives, the tagged payload envelope, the batch
// frame, and the TCP framing — lives in docs/WIRE.md.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// ErrShortBuffer is returned by Decoder methods when the input is exhausted.
var ErrShortBuffer = errors.New("wire: short buffer")

// ErrTrailingBytes is returned by Decoder.Finish when input remains.
var ErrTrailingBytes = errors.New("wire: trailing bytes")

// maxLen bounds length prefixes to protect decoders from hostile inputs.
// The encoder enforces the same bound: emitting a length the decoder is
// guaranteed to reject would be a silent protocol failure (and lengths over
// 4 GiB would silently truncate through the uint32 prefix), so oversized
// values panic at the encode site, where the bug is.
const maxLen = 1 << 28 // 256 MiB

// maxListLen bounds list-length prefixes (element counts, not bytes).
const maxListLen = 1 << 20

// Encoder accumulates canonical bytes. The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded bytes accumulated so far.
func (e *Encoder) Bytes() []byte { return e.buf }

// Frame runs write on a pooled Encoder and returns an exact-size copy of what
// it wrote. The hot-path frames (payload envelopes in internal/core, batch
// frames in internal/group) build here: one right-sized allocation per frame
// instead of a throwaway encoder's append-doubling garbage. The pooled
// encoder never leaves this function, so no caller can hold a view of a
// buffer the pool hands out again; write must not keep e.
func Frame(write func(e *Encoder)) []byte {
	e := encoderPool.Get().(*Encoder)
	defer putEncoder(e)
	e.Reset()
	write(e)
	out := make([]byte, len(e.buf))
	copy(out, e.buf)
	return out
}

// encoderPool recycles the Encoders behind Frame, and with them their grown
// buffers.
var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// putEncoder returns e to the pool, dropping a buffer over
// maxPooledEncoderBytes so one giant snapshot does not stay pinned there.
func putEncoder(e *Encoder) {
	if cap(e.buf) > maxPooledEncoderBytes {
		e.buf = nil
	}
	encoderPool.Put(e)
}

// maxPooledEncoderBytes caps the buffer capacity a pooled encoder may retain.
const maxPooledEncoderBytes = 1 << 20

// Reset truncates the encoder for reuse, keeping the allocated capacity.
// Bytes returned before Reset are invalidated by subsequent writes.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Len returns the number of bytes accumulated so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Uint64 appends a big-endian uint64.
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// Uint32 appends a big-endian uint32.
func (e *Encoder) Uint32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// Int64 appends a big-endian int64 (two's complement).
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Byte appends a single byte.
func (e *Encoder) Byte(v byte) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// Bytes32 appends a fixed 32-byte array without a length prefix.
func (e *Encoder) Bytes32(v [32]byte) { e.buf = append(e.buf, v[:]...) }

// VarBytes appends a uint32 length prefix followed by the bytes. Values
// longer than the decoder's limit panic: see maxLen.
func (e *Encoder) VarBytes(v []byte) {
	if len(v) > maxLen {
		panic(fmt.Sprintf("wire: VarBytes length %d exceeds limit %d", len(v), maxLen))
	}
	e.Uint32(uint32(len(v)))
	e.buf = append(e.buf, v...)
}

// String appends a length-prefixed string. Values longer than the decoder's
// limit panic: see maxLen.
func (e *Encoder) String(v string) {
	if len(v) > maxLen {
		panic(fmt.Sprintf("wire: String length %d exceeds limit %d", len(v), maxLen))
	}
	e.Uint32(uint32(len(v)))
	e.buf = append(e.buf, v...)
}

// ListLen appends a list element count. Counts above maxListLen panic.
func (e *Encoder) ListLen(n int) {
	if n < 0 || n > maxListLen {
		panic(fmt.Sprintf("wire: list length %d exceeds limit %d", n, maxListLen))
	}
	e.Uint32(uint32(n))
}

// Decoder consumes canonical bytes produced by Encoder. Methods record the
// first error; callers may check Err once after a batch of reads.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a Decoder over buf. The Decoder does not copy buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Reset points the Decoder at buf and clears its position and error, so a
// Decoder embedded in a larger value needs no allocation of its own.
func (d *Decoder) Reset(buf []byte) { *d = Decoder{buf: buf} }

// Err returns the first error encountered, if any.
func (d *Decoder) Err() error { return d.err }

// Fail latches err as the decoder's error unless an earlier one is already
// set: a walk that reads well-framed bytes it must still refuse (a nested
// frame of the wrong type) reports it the way a short read does.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Finish returns an error if decoding failed or input remains.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d bytes remain", ErrTrailingBytes, len(d.buf)-d.off)
	}
	return nil
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.err = ErrShortBuffer
		return nil
	}
	out := d.buf[d.off : d.off+n]
	d.off += n
	return out
}

// Uint64 reads a big-endian uint64.
func (d *Decoder) Uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Uint32 reads a big-endian uint32.
func (d *Decoder) Uint32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// Int64 reads a big-endian int64.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte as a boolean.
func (d *Decoder) Bool() bool { return d.Byte() != 0 }

// Bytes32 reads a fixed 32-byte array.
func (d *Decoder) Bytes32() (out [32]byte) {
	b := d.take(32)
	if b != nil {
		copy(out[:], b)
	}
	return out
}

// VarBytes reads a length-prefixed byte string. The result is a copy.
func (d *Decoder) VarBytes() []byte {
	b := d.VarBytesView()
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// VarBytesView reads a length-prefixed byte string WITHOUT copying: the
// result aliases the decoder's input, must be treated as read-only, and keeps
// the whole input alive while it is held. Nothing in the module reuses a
// decode input, so a view is valid for as long as anyone holds it.
// Zero-allocation decode paths (batch frames, gossip, transport framing) use
// it.
func (d *Decoder) VarBytesView() []byte {
	n := d.Uint32()
	if d.err != nil {
		return nil
	}
	if n > maxLen {
		d.err = fmt.Errorf("wire: length %d exceeds limit", n)
		return nil
	}
	return d.take(int(n))
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	return string(d.VarBytes())
}

// ListLen reads a list element count written by Encoder.ListLen.
func (d *Decoder) ListLen() int {
	n := d.Uint32()
	if d.err != nil {
		return 0
	}
	if n > maxListLen {
		d.err = fmt.Errorf("wire: list length %d exceeds limit", n)
		return 0
	}
	return int(n)
}
