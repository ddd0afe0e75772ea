package group

import (
	"errors"
	"fmt"
	"time"

	"atum/internal/actor"
	"atum/internal/crypto"
	"atum/internal/ids"
	"atum/internal/wire"
)

// Kind tags the payload of a group message so the overlay layer can dispatch
// it without decoding. Kinds are defined by the core engine; the group layer
// treats them opaquely.
type Kind uint8

// GroupMsg is the inter-node carrier of one logical group→group (or
// group→node) message. Every sending member transmits either the full
// payload or — under the digest optimization of §5.1 — only the payload
// digest; the receiver accepts once a majority of the source composition
// delivered matching digests and at least one full payload arrived.
type GroupMsg struct {
	SrcGroup ids.GroupID
	SrcEpoch uint64
	DstGroup ids.GroupID // 0 when addressed to a single node
	// DstEpoch is the epoch of the destination composition the sender used;
	// receivers on a newer epoch reply with a freshness update so neighbor
	// views never drift far (see core).
	DstEpoch uint64
	Kind     Kind
	// MsgID distinguishes logical messages; senders derive it
	// deterministically from the SMR operation that caused the send, so
	// all members of the source group produce the same MsgID.
	MsgID crypto.Digest
	// PayloadDigest is the digest of Payload. A carrier leaves it and MsgID
	// zero, and a message whose MsgID is its payload digest (a gossip copy)
	// sets both; the wire header then sends neither, or one (see Wire).
	PayloadDigest crypto.Digest
	// Payload is nil on digest-only copies.
	Payload []byte
	// Attach carries sender-specific data excluded from the digest match
	// (e.g. each member's share of a random-walk certificate chain, §5.1).
	// The inbox hands the attachments of the accepting majority to the
	// caller.
	Attach []byte
	// hashed marks an item the batch-frame walk (EachInBatch, UnpackBatch)
	// recovered from a full run of a carrier frame: PayloadDigest was computed
	// from Payload by the walk, not claimed by the sender, so the inbox need
	// not hash the payload again. It never crosses a transport.
	hashed bool
}

// The bits of a GroupMsg's form byte, which says what the wire header spells
// out. The encoding is canonical: the encoder sets hdrDerived exactly when
// MsgID equals a nonzero PayloadDigest and hdrBare exactly when both are zero,
// and the decoder refuses any other form of the same IDs.
const (
	hdrPayload = 1 << iota // Payload is present (nil is a digest-only copy)
	hdrAttach              // Attach is present
	hdrDerived             // MsgID is PayloadDigest: only the digest is sent
	hdrBare                // MsgID and PayloadDigest are zero: neither is sent
)

// form returns m's form byte.
func (m *GroupMsg) form() byte {
	var f byte
	if m.Payload != nil {
		f |= hdrPayload
	}
	if m.Attach != nil {
		f |= hdrAttach
	}
	switch {
	case m.MsgID == m.PayloadDigest && m.MsgID == (crypto.Digest{}):
		f |= hdrBare
	case m.MsgID == m.PayloadDigest:
		f |= hdrDerived
	}
	return f
}

// envelopeBytes is the header core's wire envelope puts before a GroupMsg's
// body: magic, tag and version.
const envelopeBytes = 3

// WireSize implements actor.Sizer: the length of the envelope frame the codec
// writes for m.
func (m GroupMsg) WireSize() int {
	// The groups, the epochs, the kind and the form byte.
	n := envelopeBytes + 8 + wire.UvarintLen(m.SrcEpoch) + 8 + wire.UvarintLen(m.DstEpoch) + 2
	switch f := m.form(); {
	case f&hdrBare != 0:
	case f&hdrDerived != 0:
		n += crypto.DigestSize
	default:
		n += 2 * crypto.DigestSize
	}
	if m.Payload != nil {
		n += 4 + len(m.Payload)
	}
	if m.Attach != nil {
		n += 4 + len(m.Attach)
	}
	return n
}

// Wire walks a GroupMsg's fields in wire order (byte-level transport framing):
// the epochs are varints, and a form byte says which of the IDs, the payload
// and the attachment follow. Payload and Attach nil-ness is preserved: a nil
// payload marks a digest-only copy and a nil attach marks "no attachment" —
// both are semantically distinct from empty (see Inbox.Observe).
func (m *GroupMsg) Wire(c wire.Codec) {
	wire.U64(c, &m.SrcGroup)
	c.Uvarint(&m.SrcEpoch)
	wire.U64(c, &m.DstGroup)
	c.Uvarint(&m.DstEpoch)
	wire.B8(c, &m.Kind)
	f := m.form()
	c.Byte(&f)
	if c.Decoding() && (f&^(hdrPayload|hdrAttach|hdrDerived|hdrBare) != 0 || f&hdrDerived != 0 && f&hdrBare != 0) {
		c.Fail(fmt.Errorf("group: GroupMsg form %#x", f))
	}
	switch {
	case f&hdrBare != 0:
	case f&hdrDerived != 0:
		wire.Bytes32(c, &m.PayloadDigest)
		m.MsgID = m.PayloadDigest
		if c.Decoding() && m.PayloadDigest == (crypto.Digest{}) {
			c.Fail(errors.New("group: GroupMsg derives its MsgID from a zero digest"))
		}
	default:
		wire.Bytes32(c, &m.MsgID)
		wire.Bytes32(c, &m.PayloadDigest)
		if c.Decoding() && m.MsgID == m.PayloadDigest {
			c.Fail(errors.New("group: GroupMsg spells out two equal IDs"))
		}
	}
	if f&hdrPayload != 0 {
		c.VarBytes(&m.Payload)
	}
	if f&hdrAttach != 0 {
		c.VarBytes(&m.Attach)
	}
}

// SendFn is the node-layer send SendBatchToNode hands its copy to.
type SendFn func(to ids.NodeID, msg actor.Message)

// Holds reports whether a member of the destination composition dst is known
// to hold the payload of the given digest: the member's RelaySender then sends
// it the digest alone (core's member and vgroup rules). A nil Holds knows of
// no holder.
type Holds func(dst Key, member ids.NodeID, digest crypto.Digest) bool

// RelaySender returns the index, in src, of the one member whose copy toward
// the member of dst at index j carries a Relay item's payload: (j + r) mod N,
// N the size of src and r a rotation drawn from the link — src's GroupID, and
// dst's GroupID and epoch — so that on every link a different member serves
// each destination index. Every member of src computes the same answer; src
// has members.
func RelaySender(src, dst Composition, j int) int {
	d := crypto.Derive("atum-relay", nil, uint64(src.GroupID), uint64(dst.GroupID), dst.Epoch)
	r := int(uint64(d.Seed()) % uint64(src.N()))
	return (j + r) % src.N()
}

// Accepted is a group message that crossed the majority threshold.
type Accepted struct {
	Src     Key
	Kind    Kind
	MsgID   crypto.Digest
	Payload []byte
	// Digest is the digest of Payload: the one the majority voted.
	Digest crypto.Digest
	// Attachments maps each voting sender to its sender-specific attachment
	// (votes for the winning digest only); nil when none attached anything.
	Attachments map[ids.NodeID][]byte
	// At is the local arrival time of the vote that crossed the threshold.
	At time.Duration
}
