package group

import (
	"errors"
	"fmt"
	"math/rand"
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
	// hashed marks an item UnpackBatch recovered from a full carrier frame:
	// PayloadDigest was computed from Payload by the decoder, not claimed by
	// the sender, so the inbox need not hash the payload again. It never
	// crosses a transport.
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

// SendFn is the node-layer send the fan-out helpers below hand each copy to
// (internal/egress supplies the node's).
type SendFn func(to ids.NodeID, msg actor.Message)

// Send transmits one logical group message from self (a member of src) to
// every member of dst. Members with the lowest ⌊N/2⌋+1 indices send the full
// payload, the rest send digest-only copies (§5.1: since a majority of the
// source is correct, at least one correct member always sends the full
// payload). An item built with a nil Payload and its Digest is a digest-only
// copy from every member: the caller has a narrower rule for who sends the
// bytes and applies it before it gets here (core's gossip). A Relay item's
// payload goes only to the destination members self is the RelaySender of,
// and not to one holds names a holder; the copy toward any other of them is
// handed to park instead of sent (see Park), which must be set for a Relay
// item. Destination order is randomized to avoid incast bursts (§5.1). The
// payload is hashed only when it.Digest is not set. attach is this sender's
// own attachment (nil: none). Send returns how many payloads it withheld from
// a holder.
func Send(send SendFn, rng *rand.Rand, src Composition, self ids.NodeID, dst Composition, it BatchItem, attach []byte, holds Holds, park Park) (withheld int) {
	msg := GroupMsg{
		SrcGroup:      src.GroupID,
		SrcEpoch:      src.Epoch,
		DstGroup:      dst.GroupID,
		DstEpoch:      dst.Epoch,
		Kind:          it.Kind,
		MsgID:         it.MsgID,
		PayloadDigest: it.payloadDigest(),
		Attach:        attach,
	}
	idx := src.Index(self)
	if idx >= 0 && idx < src.Majority() && !it.Relay {
		msg.Payload = it.Payload
	}
	order := rng.Perm(len(dst.Members))
	rot := 0
	if it.Relay {
		rot = relayRotation(src, dst)
	}
	for _, i := range order {
		to := dst.Members[i].ID
		if it.Relay && it.Payload != nil && isRelaySender(idx, rot, src.N(), i) {
			if !holds.has(dst.Key(), to, msg.PayloadDigest) {
				park(to)
				continue
			}
			withheld++
		}
		send(to, msg)
	}
	return withheld
}

// SendRelayed sends self's copy of one flush toward the single member to of
// dst whose RelaySender self is — the copy Send or SendBatch handed to park:
// one item as a plain message, more as a carrier of kind (as SendBatch frames
// them). Each Relay item carries its payload unless holds, asked now, names to
// a holder of it; every other item follows the majority rule. It returns how
// many relayed payloads it withheld.
func SendRelayed(send SendFn, src Composition, self ids.NodeID, dst Composition, to ids.NodeID, kind Kind, items []BatchItem, holds Holds) (withheld int) {
	idx := src.Index(self)
	r := copyRule{full: idx >= 0 && idx < src.Majority(), relay: true, holds: holds, dst: dst.Key(), to: to}
	msg := GroupMsg{SrcGroup: src.GroupID, SrcEpoch: src.Epoch, DstGroup: dst.GroupID, DstEpoch: dst.Epoch, Kind: kind}
	if len(items) == 1 {
		it := &items[0]
		msg.Kind, msg.MsgID, msg.PayloadDigest = it.Kind, it.MsgID, it.payloadDigest()
		if r.carries(it) {
			msg.Payload = it.Payload
		} else if r.withholds(it) {
			withheld = 1
		}
	} else {
		msg.Payload, withheld = encodeBatchFrame(items, &r)
	}
	send(to, msg)
	return withheld
}

// Holds reports whether a member of the destination composition dst is known
// to hold the payload of the given digest: the member's RelaySender then sends
// it the digest alone (core's member and vgroup rules). A nil Holds knows of
// no holder.
type Holds func(dst Key, member ids.NodeID, digest crypto.Digest) bool

// has calls h; a nil h knows of no holder.
func (h Holds) has(dst Key, member ids.NodeID, digest crypto.Digest) bool {
	return h != nil && h(dst, member, digest)
}

// Park takes back from Send and SendBatch a copy toward a destination member
// whose RelaySender self is and whose relayed payloads holds does not all name
// it a holder of: the caller sends it with SendRelayed — later, when a vote
// heard meanwhile may have made the bytes redundant, or at once.
type Park func(to ids.NodeID)

// copyRule says which payloads one sender's copy toward one destination
// member carries.
type copyRule struct {
	full  bool  // self is a majority member: ordinary items' payloads
	relay bool  // self is the member's RelaySender: Relay items' payloads,
	holds Holds // except those holds names the member a holder of
	dst   Key
	to    ids.NodeID
}

// carries reports whether it's payload rides the copy.
func (r *copyRule) carries(it *BatchItem) bool {
	switch {
	case it.Payload == nil:
		return false
	case !it.Relay:
		return r.full
	}
	return r.relay && !r.holds.has(r.dst, r.to, it.payloadDigest())
}

// withholds reports whether the copy would carry it's payload but for a
// holder: a Relay item the copy does not carry although self relays to the
// member.
func (r *copyRule) withholds(it *BatchItem) bool {
	return r.relay && it.Relay && it.Payload != nil
}

// RelaySender returns the index, in src, of the one member whose copy toward
// the member of dst at index j carries a Relay item's payload: (j + r) mod N,
// N the size of src and r a rotation drawn from the link — src's GroupID, and
// dst's GroupID and epoch — so that on every link a different member serves
// each destination index. Every member of src computes the same answer; src
// has members.
func RelaySender(src, dst Composition, j int) int {
	return (j + relayRotation(src, dst)) % src.N()
}

// relayRotation is RelaySender's r, in [0, N) (0 for an empty src).
func relayRotation(src, dst Composition) int {
	if src.N() == 0 {
		return 0
	}
	d := crypto.Derive("atum-relay", nil, uint64(src.GroupID), uint64(dst.GroupID), dst.Epoch)
	return int(uint64(d.Seed()) % uint64(src.N()))
}

// isRelaySender reports whether the member at index idx of a source of n
// members, on a link of rotation rot, is the RelaySender of destination
// member j.
func isRelaySender(idx, rot, n, j int) bool {
	return idx >= 0 && (j+rot)%n == idx
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
