package ashare

// AShare's wire formats (docs/WIRE.md). Every SendRaw type — the chunk
// transfer pair — is registered with the engine's raw-message
// codec registry under an extension tag (ashare owns 0x90–0x9F), so the
// egress scheduler coalesces concurrent messages per destination node into
// batch carriers and TCP transports frame them through the wire codec. The
// index-update broadcasts are one record tag byte plus the record's fields.
// All tags are append-only wire contracts.

import (
	"fmt"

	"atum"
	"atum/internal/crypto"
	"atum/internal/wire"
)

// Extension tag assignments. Append-only; never reorder or reuse. Tags
// 0x92–0x95 are retired (the ring index's RPCs, deleted unused) and stay
// reserved: the next tag assigned is 0x96.
const (
	rawTagChunkRequest  = 0x90
	rawTagChunkResponse = 0x91
)

// Broadcast record tags: the first byte of every index-update broadcast
// payload. Append-only; never reorder or reuse.
const (
	recTagPut     = 0x01
	recTagReplica = 0x02
	recTagDelete  = 0x03
)

// encodeRecord serializes one index-update broadcast (putRecord,
// replicaRecord or deleteRecord): its tag byte, then its walk.
func encodeRecord(v any) []byte {
	var tag byte
	var r interface{ Wire(wire.Codec) }
	switch v := v.(type) {
	case putRecord:
		tag, r = recTagPut, &v
	case replicaRecord:
		tag, r = recTagReplica, &v
	case deleteRecord:
		tag, r = recTagDelete, &v
	default:
		panic(fmt.Sprintf("ashare: encode: %T is not a broadcast record", v))
	}
	return wire.Encode(func(c wire.Codec) {
		c.Byte(&tag)
		r.Wire(c)
	})
}

// decodeRecord reverses encodeRecord. Any member may broadcast, so the input
// is untrusted: unknown tags, truncated and trailing bytes are errors.
func decodeRecord(b []byte) (any, error) {
	d := wire.NewDecoder(b)
	c := d.Codec()
	var v any
	switch tag := d.Byte(); tag {
	case recTagPut:
		var r putRecord
		r.Wire(c)
		v = r
	case recTagReplica:
		var r replicaRecord
		r.Wire(c)
		v = r
	case recTagDelete:
		var r deleteRecord
		r.Wire(c)
		v = r
	default: // incl. empty input, which reads as tag 0
		return nil, fmt.Errorf("ashare: unknown broadcast record tag %#x", tag)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("ashare: decode record: %w", err)
	}
	return v, nil
}

func (r *putRecord) Wire(c wire.Codec) { fileMetaWire(&r.Meta, c) }

func (r *replicaRecord) Wire(c wire.Codec) {
	fileKeyWire(&r.Key, c)
	wire.U64(c, &r.Node)
}

func (r *deleteRecord) Wire(c wire.Codec) { fileKeyWire(&r.Key, c) }

func (m *chunkRequest) Wire(c wire.Codec) {
	fileKeyWire(&m.Key, c)
	c.Int(&m.Idx)
}

func (m *chunkResponse) Wire(c wire.Codec) {
	fileKeyWire(&m.Key, c)
	c.Int(&m.Idx)
	c.VarBytes(&m.Data)
}

func init() {
	atum.RegisterRawMessage[chunkRequest](rawTagChunkRequest)
	atum.RegisterRawMessage[chunkResponse](rawTagChunkResponse)
}

// fileKeyWire and fileMetaWire are walks, not methods, so that the exported
// FileKey and FileMeta gain no method.
func fileKeyWire(k *FileKey, c wire.Codec) {
	wire.U64(c, &k.Owner)
	c.String(&k.Name)
}

// fileMetaWire refuses a record no file has: a chunk size below 1, on which
// replication would loop forever or slice out of range, or no chunk digest,
// which leaves a GET nothing to fetch and so never completes.
func fileMetaWire(m *FileMeta, c wire.Codec) {
	fileKeyWire(&m.Key, c)
	c.Int(&m.Size)
	c.Int(&m.ChunkSize)
	wire.List(c, &m.ChunkDigests, func(d *crypto.Digest, c wire.Codec) { wire.Bytes32(c, d) })
	if !c.Failed() && (m.ChunkSize <= 0 || len(m.ChunkDigests) == 0) {
		c.Fail(fmt.Errorf("file meta with chunk size %d and %d chunk digests", m.ChunkSize, len(m.ChunkDigests)))
	}
}
