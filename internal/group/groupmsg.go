package group

import (
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
	// PayloadDigest is the digest of Payload; always present.
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

// WireSize implements actor.Sizer.
func (m GroupMsg) WireSize() int { return 96 + len(m.Payload) + len(m.Attach) }

// Wire walks a GroupMsg's fields in wire order (byte-level transport framing).
// Payload and Attach nil-ness is preserved: a nil payload marks a digest-only
// copy and a nil attach marks "no attachment" — both are semantically
// distinct from empty (see Inbox.Observe).
func (m *GroupMsg) Wire(c wire.Codec) {
	wire.U64(c, &m.SrcGroup)
	c.Uint64(&m.SrcEpoch)
	wire.U64(c, &m.DstGroup)
	c.Uint64(&m.DstEpoch)
	wire.B8(c, &m.Kind)
	wire.Bytes32(c, &m.MsgID)
	wire.Bytes32(c, &m.PayloadDigest)
	optBytes(c, &m.Payload)
	optBytes(c, &m.Attach)
}

// optBytes walks a presence flag and, when it is set, the byte string: nil
// stays nil and empty stays empty.
func optBytes(c wire.Codec, b *[]byte) {
	present := *b != nil
	c.Bool(&present)
	if present {
		c.VarBytes(b)
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
// payload goes only to the destination members self is the RelaySender of.
// Destination order is randomized to avoid incast bursts (§5.1). The payload
// is hashed only when it.Digest is not set. attach is this sender's own
// attachment (nil: none).
func Send(send SendFn, rng *rand.Rand, src Composition, self ids.NodeID, dst Composition, it BatchItem, attach []byte) {
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
		m := msg
		if it.Relay && isRelaySender(idx, rot, src.N(), i) {
			m.Payload = it.Payload
		}
		send(dst.Members[i].ID, m)
	}
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
