package ashare

import (
	"errors"

	"atum"
	"atum/internal/crypto"
	"atum/internal/wire"
)

// RingIndex is the future-work DHT-style metadata index (paper §4.2,
// footnote 5), layered on Atum's raw node messaging: each file's metadata
// record is stored at the R ring holders of its key instead of at every
// node. Reads query all holders and accept the answer a strict majority of
// them agree on, masking up to ⌊(R−1)/2⌋ Byzantine or stale holders.
//
// The prototype assumes the AShare membership model (global knowledge of
// participants, paper footnote 7): call SetMembers when membership changes.
// Like the rest of the engine it is single-goroutine: all methods must run
// in the owning node's actor context.
type RingIndex struct {
	node     *atum.Node
	ring     *Ring
	replicas int

	store   map[FileKey]FileMeta
	lookups map[uint64]*ringLookup
	seq     uint64

	// Corrupt makes this holder Byzantine: it serves forged metadata.
	Corrupt bool
}

type ringLookup struct {
	key       FileKey
	expect    int
	responses map[atum.NodeID]ringFound
	done      func(FileMeta, error)
}

// ErrNotFound reports a key with no majority-agreed record.
var ErrNotFound = errors.New("ashare: metadata not found")

// ErrNoQuorum reports holders answering without a strict majority agreeing.
var ErrNoQuorum = errors.New("ashare: no majority among index holders")

// --- wire messages (codecs in rawwire.go) ---

// ringStore installs a record at a holder.
type ringStore struct {
	Meta FileMeta
}

// ringErase removes a record from a holder.
type ringErase struct {
	Key FileKey
}

// ringGet queries a holder.
type ringGet struct {
	Seq uint64
	Key FileKey
}

// ringFound is a holder's reply.
type ringFound struct {
	Seq  uint64
	Has  bool
	Meta FileMeta
}

// NewRingIndex creates a ring index with R metadata holders per key.
// R should be 2f+1 for the number of faulty holders to mask; 3 masks one.
func NewRingIndex(replicas int) *RingIndex {
	if replicas <= 0 {
		replicas = 3
	}
	return &RingIndex{
		ring:     NewRing(nil),
		replicas: replicas,
		store:    make(map[FileKey]FileMeta),
		lookups:  make(map[uint64]*ringLookup),
	}
}

// Bind attaches the index to its node.
func (ri *RingIndex) Bind(node *atum.Node) { ri.node = node }

// SetMembers refreshes the ring membership (global knowledge model).
func (ri *RingIndex) SetMembers(members []atum.NodeID) { ri.ring.Update(members) }

// Stored returns the number of records this node holds — with n members and
// R holders per key, roughly R/n of all records (vs. all of them for the
// fully replicated Index).
func (ri *RingIndex) Stored() int { return len(ri.store) }

// Put places the record at its R holders.
func (ri *RingIndex) Put(meta FileMeta) error {
	if ri.node == nil {
		return errors.New("ashare: ring index not bound")
	}
	holders := ri.ring.Holders(meta.Key, ri.replicas)
	if len(holders) == 0 {
		return errors.New("ashare: empty ring")
	}
	for _, h := range holders {
		if h == ri.node.Identity().ID {
			ri.store[meta.Key] = meta
			continue
		}
		ri.node.SendRawWith(h, ringStore{Meta: meta}, atum.SendOpts{})
	}
	return nil
}

// Delete removes the record from its holders.
func (ri *RingIndex) Delete(key FileKey) {
	for _, h := range ri.ring.Holders(key, ri.replicas) {
		if h == ri.node.Identity().ID {
			delete(ri.store, key)
			continue
		}
		ri.node.SendRawWith(h, ringErase{Key: key}, atum.SendOpts{})
	}
}

// Lookup queries the key's holders and calls done once a strict majority of
// them agree (with the agreed record, or ErrNotFound), or with ErrNoQuorum
// after every holder answered without majority. Holders that never answer
// leave the lookup pending; use Cancel to abandon it.
func (ri *RingIndex) Lookup(key FileKey, done func(FileMeta, error)) uint64 {
	holders := ri.ring.Holders(key, ri.replicas)
	ri.seq++
	seq := ri.seq
	lk := &ringLookup{
		key:       key,
		expect:    len(holders),
		responses: make(map[atum.NodeID]ringFound),
		done:      done,
	}
	ri.lookups[seq] = lk
	if len(holders) == 0 {
		delete(ri.lookups, seq)
		done(FileMeta{}, ErrNotFound)
		return seq
	}
	for _, h := range holders {
		if h == ri.node.Identity().ID {
			meta, ok := ri.store[key]
			ri.acceptReply(seq, h, ringFound{Seq: seq, Has: ok, Meta: meta})
			continue
		}
		ri.node.SendRawWith(h, ringGet{Seq: seq, Key: key}, atum.SendOpts{})
	}
	return seq
}

// Cancel abandons a pending lookup without calling done.
func (ri *RingIndex) Cancel(seq uint64) { delete(ri.lookups, seq) }

// HandleRaw processes ring-index messages; returns false for messages that
// belong to someone else (chain it with other raw handlers).
func (ri *RingIndex) HandleRaw(from atum.NodeID, msg any) bool {
	switch m := msg.(type) {
	case ringStore:
		// Only accept placements this node actually holds; a Byzantine
		// writer cannot spray records across the whole system.
		if ri.ring.IsHolder(m.Meta.Key, ri.replicas, ri.node.Identity().ID) {
			ri.store[m.Meta.Key] = m.Meta
		}
		return true
	case ringErase:
		delete(ri.store, m.Key)
		return true
	case ringGet:
		meta, ok := ri.store[m.Key]
		if ri.Corrupt {
			// Byzantine holder: claim a forged record exists.
			meta = FileMeta{Key: m.Key, Size: 1, ChunkSize: 1,
				ChunkDigests: []crypto.Digest{crypto.Hash([]byte("forged"))}}
			ok = true
		}
		ri.node.SendRawWith(from, ringFound{Seq: m.Seq, Has: ok, Meta: meta}, atum.SendOpts{})
		return true
	case ringFound:
		ri.acceptReply(m.Seq, from, m)
		return true
	default:
		return false
	}
}

// acceptReply tallies one holder's answer and resolves the lookup when a
// strict majority of holders agree on the same answer.
func (ri *RingIndex) acceptReply(seq uint64, from atum.NodeID, m ringFound) {
	lk, ok := ri.lookups[seq]
	if !ok {
		return
	}
	if !ri.ring.IsHolder(lk.key, ri.replicas, from) {
		return // answer from a non-holder
	}
	if _, dup := lk.responses[from]; dup {
		return
	}
	lk.responses[from] = m

	majority := lk.expect/2 + 1
	counts := make(map[crypto.Digest]int)
	for _, resp := range lk.responses {
		counts[replyDigest(resp)]++
	}
	for dig, count := range counts {
		if count < majority {
			continue
		}
		delete(ri.lookups, seq)
		for _, resp := range lk.responses {
			if replyDigest(resp) == dig {
				if resp.Has {
					lk.done(resp.Meta, nil)
				} else {
					lk.done(FileMeta{}, ErrNotFound)
				}
				return
			}
		}
	}
	if len(lk.responses) == lk.expect {
		delete(ri.lookups, seq)
		lk.done(FileMeta{}, ErrNoQuorum)
	}
}

// replyDigest canonically fingerprints a holder's answer.
func replyDigest(m ringFound) crypto.Digest {
	var e wire.Encoder
	e.Bool(m.Has)
	e.Uint64(uint64(m.Meta.Key.Owner))
	e.String(m.Meta.Key.Name)
	e.Uint64(uint64(m.Meta.Size))
	e.Uint64(uint64(m.Meta.ChunkSize))
	e.Uint64(uint64(len(m.Meta.ChunkDigests)))
	for _, d := range m.Meta.ChunkDigests {
		e.Bytes32(d)
	}
	return crypto.Hash(e.Bytes())
}
