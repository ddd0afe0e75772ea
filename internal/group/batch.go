package group

import (
	"fmt"
	"math/rand"

	"atum/internal/crypto"
	"atum/internal/ids"
	"atum/internal/wire"
)

// Batching folds several logical group messages bound for the same
// destination composition into one wire message. Crucially, the batch itself
// carries no majority-matched identity: the receiver unpacks it and feeds
// every inner item into its inbox as an ordinary per-sender vote for that
// item's own MsgID. Votes therefore converge across senders even when each
// member of the source vgroup grouped the items differently (flush windows
// are member-local and may cut anywhere), which is what makes send-side
// batching safe without any cross-member batch agreement.
//
// One frame layout exists on the wire (byte-level spec: docs/WIRE.md): a
// version byte, an item count, and runs of items that share a kind and a
// form. The form says whether the run's items carry their payloads or only the
// payload digests, so one carrier holds both side by side: which of a member's
// items carry bytes is decided per item (BatchItem.Payload), not per frame.
// Nothing in a frame expands on decode — every full payload is a sub-slice
// of the frame — so the item-count limit and the wire decoder's length
// checks are the only bounds a receiver needs.

// BatchItem is one logical group message folded into a batch.
type BatchItem struct {
	Kind  Kind
	MsgID crypto.Digest
	// Payload is the message body. A nil Payload makes this sender's copy a
	// digest-only vote for Digest whatever the sender's index: the builder
	// knows the destination gets the bytes from elsewhere (core's gossip
	// rules). Send and SendBatch treat it the same way.
	Payload []byte
	// Relay replaces the majority rule for this item's payload: each member of
	// the destination gets it from exactly one member of the source, the one
	// RelaySender names, and a digest-only vote from every other (core's gossip
	// on a relayed hop).
	Relay bool
	// Digest is the digest of Payload when the builder already has it (the
	// origin of a broadcast hashes once for all its links; a forwarder takes
	// it from Accepted). The zero value means "not computed": the send
	// helpers then hash the payload themselves.
	Digest crypto.Digest
	// DerivedID marks an item whose MsgID is, by construction, the payload
	// digest (core's node-addressed raw items and its gossip votes). A run of
	// marked items omits the MsgIDs and the receiver re-derives them from the
	// payload digest it computes, or is sent, anyway. Setting it on an item whose
	// MsgID is NOT the payload digest silently rewrites the MsgID at the
	// receiver; only senders that construct the MsgID that way may set it.
	DerivedID bool
}

// payloadDigest returns the item's payload digest, hashing only when the
// builder left Digest unset.
func (it BatchItem) payloadDigest() crypto.Digest {
	if it.Digest != (crypto.Digest{}) {
		return it.Digest
	}
	return crypto.Hash(it.Payload)
}

// MaxBatchItems bounds how many inner items one batch frame may carry,
// protecting receivers from hostile amplification. Send-side batch caps must
// stay at or below it — receivers reject larger frames outright.
const MaxBatchItems = 4096

// batchFrameVersion is the frame's first byte. Any other leading byte —
// including 0x00, which opens every enveloped payload, and 0x03, the previous
// layout with its frame-wide form — is rejected as an unsupported version.
const batchFrameVersion = 0x04

// Run forms. A run whose form byte has any other bit set is rejected.
const (
	formFull    = 1 << 0 // items carry payloads (else payload digests)
	formDerived = 1 << 1 // MsgIDs omitted: each equals its payload digest
)

// form returns the form an item takes in the copy r says the payloads of.
func (it *BatchItem) form(r *copyRule) byte {
	var f byte
	if r.carries(it) {
		f |= formFull
	}
	if it.DerivedID {
		f |= formDerived
	}
	return f
}

// encodeBatchFrame serializes the items as one frame:
//
//	Byte    version (0x04)
//	ListLen item count n
//	runs until n items are consumed:
//	  Byte    kind
//	  Byte    form (bit 0 full, bit 1 derived MsgIDs)
//	  ListLen run length
//	  per item: [Bytes32 MsgID unless derived]
//	            full:        VarBytes payload
//	            digest-only: Bytes32 payload digest
//
// A run is the longest stretch of consecutive items of one kind and one form;
// item order is kept. r is the sender's share of the digest optimization toward
// the destination member the frame is for: an item that has a Payload carries
// it when r says so (copyRule.carries, asked once per item), and is digest-only
// otherwise. It also returns how many relayed payloads r withheld from a
// holder.
func encodeBatchFrame(items []BatchItem, r *copyRule) (frame []byte, withheld int) {
	frame = wire.Frame(func(e *wire.Encoder) {
		e.Byte(batchFrameVersion)
		e.ListLen(len(items))
		var form byte
		if len(items) > 0 {
			form = items[0].form(r)
		}
		for i := 0; i < len(items); {
			kind, run, next := items[i].Kind, 1, byte(0)
			for ; i+run < len(items); run++ {
				if next = items[i+run].form(r); items[i+run].Kind != kind || next != form {
					break
				}
			}
			e.Byte(byte(kind))
			e.Byte(form)
			e.ListLen(run)
			for _, it := range items[i : i+run] {
				if form&formDerived == 0 {
					e.Bytes32(it.MsgID)
				}
				if form&formFull != 0 {
					e.VarBytes(it.Payload)
				} else {
					if r.withholds(&it) {
						withheld++
					}
					e.Bytes32(it.payloadDigest())
				}
			}
			i, form = i+run, next
		}
	})
	return frame, withheld
}

// decodedBatchItem is one inner item recovered from a batch frame. Payload is
// nil on digest-only copies and aliases the frame buffer otherwise.
type decodedBatchItem struct {
	kind    Kind
	msgID   crypto.Digest
	digest  crypto.Digest
	payload []byte
}

// decodeBatchFrame reverses encodeBatchFrame. Hostile frames (another
// version byte, unknown form bits, oversized item counts, empty or
// overflowing runs, truncation, trailing bytes) return an error.
func decodeBatchFrame(b []byte) ([]decodedBatchItem, error) {
	d := wire.NewDecoder(b)
	if version := d.Byte(); d.Err() == nil && version != batchFrameVersion {
		return nil, fmt.Errorf("group: unsupported batch frame version %#x", version)
	}
	n := d.ListLen()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if n > MaxBatchItems {
		return nil, fmt.Errorf("group: batch of %d items exceeds limit %d", n, MaxBatchItems)
	}

	items := make([]decodedBatchItem, 0, n)
	for len(items) < n {
		kind := Kind(d.Byte())
		form := d.Byte()
		run := d.ListLen()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if form&^(formFull|formDerived) != 0 {
			return nil, fmt.Errorf("group: unknown batch run form %#x", form)
		}
		if run <= 0 || len(items)+run > n {
			return nil, fmt.Errorf("group: batch frame run of %d items overflows count %d", run, n)
		}
		full, derived := form&formFull != 0, form&formDerived != 0
		for r := 0; r < run; r++ {
			it := decodedBatchItem{kind: kind}
			if !derived {
				it.msgID = d.Bytes32()
			}
			if full {
				it.payload = d.VarBytesView() // non-nil on success, even when empty
				it.digest = crypto.Hash(it.payload)
			} else {
				it.digest = d.Bytes32()
			}
			if derived {
				it.msgID = it.digest
			}
			if d.Err() != nil {
				return nil, d.Err()
			}
			items = append(items, it)
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return items, nil
}

// SendBatch transmits one batch of logical group messages from self (a member
// of src) to every member of dst. As in Send, members with the lowest
// ⌊N/2⌋+1 indices transmit the payloads of the items that have one and the
// rest transmit digest-only copies; an item built with a nil Payload is
// digest-only from every member, and a Relay item carries its payload only
// toward the destination members this sender is the RelaySender of, and not
// toward one holds names a holder of it. Every copy but those carries the same
// lean frame, without relayed payloads, and so does the copy toward a member
// holds names a holder of every relayed payload. The copy toward any other
// member self relays to is handed to park (see Park), which must be set when
// an item is Relay; SendRelayed frames it item by item. Destination order is
// randomized against incast (§5.1). batchID becomes the carrier's MsgID, which
// no receiver reads: the inner MsgIDs take part in inbox majority matching,
// and the engine sends zero. For the same reason the carrier's PayloadDigest
// is sent zero: receivers vote the inner items' digests and never compare the
// frame's. SendBatch returns how many relayed payloads it withheld from a
// holder.
func SendBatch(send SendFn, rng *rand.Rand, src Composition, self ids.NodeID, dst Composition, kind Kind, batchID crypto.Digest, items []BatchItem, holds Holds, park Park) (withheld int) {
	if len(items) == 0 {
		return 0
	}
	if len(items) > MaxBatchItems {
		// Receivers reject larger frames outright; as with the wire encoder,
		// fail at the send site, where the bug is.
		panic(fmt.Sprintf("group: batch of %d items exceeds limit %d", len(items), MaxBatchItems))
	}
	idx := src.Index(self)
	full := idx >= 0 && idx < src.Majority()
	relays := 0 // items whose payload goes to the members RelaySender names
	for i := range items {
		if items[i].Relay && items[i].Payload != nil {
			relays++
		}
	}
	var lean []byte
	msg := GroupMsg{
		SrcGroup: src.GroupID,
		SrcEpoch: src.Epoch,
		DstGroup: dst.GroupID,
		DstEpoch: dst.Epoch,
		Kind:     kind,
		MsgID:    batchID,
	}
	order := rng.Perm(len(dst.Members))
	rot := 0
	if relays > 0 {
		rot = relayRotation(src, dst)
	}
	for _, i := range order {
		to := dst.Members[i].ID
		switch {
		case relays == 0 || !isRelaySender(idx, rot, src.N(), i):
		case holds.all(dst.Key(), to, items):
			withheld += relays
		default:
			park(to)
			continue
		}
		if lean == nil {
			lean, _ = encodeBatchFrame(items, &copyRule{full: full})
		}
		msg.Payload = lean
		send(to, msg)
	}
	return withheld
}

// all reports whether h names member of dst a holder of the payload of every
// Relay item that has one.
func (h Holds) all(dst Key, member ids.NodeID, items []BatchItem) bool {
	if h == nil {
		return false
	}
	for i := range items {
		if it := &items[i]; it.Relay && it.Payload != nil && !h(dst, member, it.payloadDigest()) {
			return false
		}
	}
	return true
}

// SendBatchToNode transmits one batch of logical messages from self to a
// single node, with every payload carried in full — node-addressed batches
// (application raw-message floods) are link-authenticated, not majority-
// matched, so there is no digest optimization to apply.
func SendBatchToNode(send SendFn, src Composition, self ids.NodeID, to ids.NodeID, kind Kind, batchID crypto.Digest, items []BatchItem) {
	if len(items) == 0 {
		return
	}
	if len(items) > MaxBatchItems {
		panic(fmt.Sprintf("group: batch of %d items exceeds limit %d", len(items), MaxBatchItems))
	}
	frame, _ := encodeBatchFrame(items, &copyRule{full: true})
	send(to, GroupMsg{
		SrcGroup: src.GroupID,
		SrcEpoch: src.Epoch,
		Kind:     kind,
		MsgID:    batchID,
		Payload:  frame,
	})
}

// UnpackBatch recovers the inner logical messages of a batch carrier. Each
// returned GroupMsg inherits the carrier's source and destination headers and
// is ready for Inbox.Observe under the same link-authenticated sender. A full
// item's PayloadDigest is the hash the decoder computed (the frame carries
// none for it), which the inbox takes as verified.
// Payloads may alias m.Payload (the zero-copy decode path): treat them as
// read-only, and note that retaining one retains the whole frame.
func UnpackBatch(m GroupMsg) ([]GroupMsg, error) {
	items, err := decodeBatchFrame(m.Payload)
	if err != nil {
		return nil, err
	}
	out := make([]GroupMsg, 0, len(items))
	for _, it := range items {
		out = append(out, GroupMsg{
			SrcGroup:      m.SrcGroup,
			SrcEpoch:      m.SrcEpoch,
			DstGroup:      m.DstGroup,
			DstEpoch:      m.DstEpoch,
			Kind:          it.kind,
			MsgID:         it.msgID,
			PayloadDigest: it.digest,
			Payload:       it.payload,
			hashed:        it.payload != nil,
		})
	}
	return out, nil
}

// BatchWireOverhead is the worst-case framing cost one item adds to a batch
// beyond its body — the payload bytes of a full item, the 32-byte digest of a
// digest-only one: a non-derived full item that is a frame of its own pays the
// 5-byte frame header (version, count), a 6-byte run header (kind, form,
// length), its 32-byte MsgID and a 4-byte length prefix; every further item of
// a frame, and every digest-only item, pays less. Send-side aggregators budget
// batch bytes with it, charging each item len(Payload)+BatchWireOverhead at
// enqueue time. That charge is an upper bound of what the item adds to a frame
// whenever it leaves full, derived (a derived digest-only item is its 32-byte
// digest: gossip votes), or digest-only with a payload of 28 bytes or more
// behind it (64 bytes of MsgID and digest against 47 plus the payload). Only a
// non-derived item with a shorter payload, or none, sent digest-only rides up
// to 28 bytes outside its charge; the engine enqueues no such item (its
// smallest carried payload is 35 bytes, its only payload-less one is gossip).
const BatchWireOverhead = 5 + 6 + crypto.DigestSize + 4
