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
// replicaRecord or deleteRecord).
func encodeRecord(v any) []byte {
	var e wire.Encoder
	switch r := v.(type) {
	case putRecord:
		e.Byte(recTagPut)
		marshalFileMeta(&e, r.Meta)
	case replicaRecord:
		e.Byte(recTagReplica)
		marshalFileKey(&e, r.Key)
		e.Uint64(uint64(r.Node))
	case deleteRecord:
		e.Byte(recTagDelete)
		marshalFileKey(&e, r.Key)
	default:
		panic(fmt.Sprintf("ashare: encode: %T is not a broadcast record", v))
	}
	return e.Bytes()
}

// decodeRecord reverses encodeRecord. Any member may broadcast, so the input
// is untrusted: unknown tags, truncated and trailing bytes are errors.
func decodeRecord(b []byte) (any, error) {
	d := wire.NewDecoder(b)
	var v any
	switch tag := d.Byte(); tag {
	case recTagPut:
		v = putRecord{Meta: unmarshalFileMeta(d)}
	case recTagReplica:
		v = replicaRecord{Key: unmarshalFileKey(d), Node: atum.NodeID(d.Uint64())}
	case recTagDelete:
		v = deleteRecord{Key: unmarshalFileKey(d)}
	default: // incl. empty input, which reads as tag 0
		return nil, fmt.Errorf("ashare: unknown broadcast record tag %#x", tag)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("ashare: decode record: %w", err)
	}
	return v, nil
}

func marshalFileKey(e *atum.WireEncoder, k FileKey) {
	e.Uint64(uint64(k.Owner))
	e.String(k.Name)
}

func unmarshalFileKey(d *atum.WireDecoder) FileKey {
	return FileKey{Owner: atum.NodeID(d.Uint64()), Name: d.String()}
}

func marshalFileMeta(e *atum.WireEncoder, m FileMeta) {
	marshalFileKey(e, m.Key)
	e.Int64(int64(m.Size))
	e.Int64(int64(m.ChunkSize))
	e.ListLen(len(m.ChunkDigests))
	for _, dg := range m.ChunkDigests {
		e.Bytes32(dg)
	}
}

func unmarshalFileMeta(d *atum.WireDecoder) FileMeta {
	var m FileMeta
	m.Key = unmarshalFileKey(d)
	m.Size = int(d.Int64())
	m.ChunkSize = int(d.Int64())
	n := d.ListLen()
	for i := 0; i < n && d.Err() == nil; i++ {
		m.ChunkDigests = append(m.ChunkDigests, crypto.Digest(d.Bytes32()))
	}
	return m
}

func init() {
	atum.RegisterRawMessage(rawTagChunkRequest, chunkRequest{},
		func(v any, e *atum.WireEncoder) {
			m := v.(chunkRequest)
			marshalFileKey(e, m.Key)
			e.Int64(int64(m.Idx))
		},
		func(d *atum.WireDecoder) any {
			return chunkRequest{Key: unmarshalFileKey(d), Idx: int(d.Int64())}
		})
	atum.RegisterRawMessage(rawTagChunkResponse, chunkResponse{},
		func(v any, e *atum.WireEncoder) {
			m := v.(chunkResponse)
			marshalFileKey(e, m.Key)
			e.Int64(int64(m.Idx))
			e.VarBytes(m.Data)
		},
		func(d *atum.WireDecoder) any {
			return chunkResponse{Key: unmarshalFileKey(d), Idx: int(d.Int64()), Data: d.VarBytes()}
		})
}
