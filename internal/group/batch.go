package group

import (
	"fmt"

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
//
// What a sender's copy toward one destination member carries is one rule,
// CopyRule, and one builder, Copy: one item leaves as a plain message, several
// as a carrier. Who gets which copy, and when, is the egress port's fan-out
// (internal/egress); this package draws no destination order and sends
// nothing but SendBatchToNode's carrier.

// BatchItem is one logical group message folded into a batch.
type BatchItem struct {
	Kind  Kind
	MsgID crypto.Digest
	// Payload is the message body. A nil Payload makes this sender's copy a
	// digest-only vote for Digest whatever the sender's index: the builder
	// knows the destination gets the bytes from elsewhere (core's gossip
	// rules).
	Payload []byte
	// Relay replaces the majority rule for this item's payload: each member of
	// the destination gets it from exactly one member of the source, the one
	// RelaySender names, and a digest-only vote from every other (core's gossip
	// on a relayed hop).
	Relay bool
	// Digest is the digest of Payload when the builder already has it (the
	// origin of a broadcast hashes once for all its links; a forwarder takes
	// it from Accepted). The zero value means "not computed": Copy then takes
	// the MsgID of a DerivedID item, and hashes the payload of any other.
	Digest crypto.Digest
	// DerivedID marks an item whose MsgID is, by construction, the payload
	// digest (core's node-addressed raw items and its gossip votes). A run of
	// marked items omits the MsgIDs and the receiver re-derives them from the
	// payload digest it computes, or is sent, anyway. Setting it on an item whose
	// MsgID is NOT the payload digest silently rewrites the MsgID at the
	// receiver; only senders that construct the MsgID that way may set it.
	DerivedID bool
}

// payloadDigest returns the item's payload digest: Digest when the builder set
// it, the MsgID of a DerivedID item, and otherwise the payload's hash.
func (it BatchItem) payloadDigest() crypto.Digest {
	switch {
	case it.Digest != (crypto.Digest{}):
		return it.Digest
	case it.DerivedID:
		return it.MsgID
	}
	return crypto.Hash(it.Payload)
}

// CopyRule says which payloads one sender's copy toward one destination member
// carries. An item built without a payload carries none; of the others:
//
//	item      Full  Relay  Holds names the member  payload (-: either)
//	ordinary  no    -      -                       digest only
//	ordinary  yes   -      -                       rides
//	Relay     -     no     -                       digest only
//	Relay     -     yes    no                      rides
//	Relay     -     yes    yes                     digest only, withheld
//
// Full is the §5.1 digest rule: the sender is one of the ⌊N/2⌋+1 lowest-index
// members of the source, so at least one correct member sends the bytes — or
// the copy is link-authenticated and judged alone (node-addressed traffic,
// certificate-mode sends), so every sender does. Relay is the relay rule: the
// sender is the member's RelaySender on this link (core's gossip on a relayed
// hop), which sends a Relay item's bytes unless Holds names the member To, of
// the composition Dst, a holder of them; a nil Holds knows of no holder.
type CopyRule struct {
	Full  bool
	Relay bool
	Holds Holds
	Dst   Key
	To    ids.NodeID
}

// Carries reports whether it's payload rides the copy r rules.
func (r *CopyRule) Carries(it *BatchItem) bool {
	switch {
	case it.Payload == nil:
		return false
	case !it.Relay:
		return r.Full
	}
	return r.Relay && (r.Holds == nil || !r.Holds(r.Dst, r.To, it.payloadDigest()))
}

// withholds reports whether the copy would carry it's payload but for a
// holder: a Relay item the copy does not carry although its sender relays to
// the member.
func (r *CopyRule) withholds(it *BatchItem) bool {
	return r.Relay && it.Relay && it.Payload != nil
}

// Copy builds one sender's copy of items under rule, over hdr's source,
// destination and attachment. One item becomes a plain message under its own
// kind, MsgID and payload digest. Several become a carrier of kind carrier
// whose MsgID and PayloadDigest are hdr's — the engine leaves both zero, as
// receivers vote the inner items under their own and read neither. It also
// returns how many relayed payloads rule withheld from a holder.
func Copy(hdr GroupMsg, carrier Kind, items []BatchItem, rule CopyRule) (msg GroupMsg, withheld int) {
	if len(items) == 1 {
		it := &items[0]
		hdr.Kind, hdr.MsgID, hdr.PayloadDigest = it.Kind, it.MsgID, it.payloadDigest()
		switch {
		case rule.Carries(it):
			hdr.Payload = it.Payload
		case rule.withholds(it):
			withheld = 1
		}
		return hdr, withheld
	}
	hdr.Kind = carrier
	hdr.Payload, withheld = encodeBatchFrame(items, &rule)
	return hdr, withheld
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
func (it *BatchItem) form(r *CopyRule) byte {
	var f byte
	if r.Carries(it) {
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
// item order is kept. r is the sender's copy rule toward the destination
// member the frame is for: an item that has a Payload carries it when r says so
// (CopyRule.Carries, asked once per item), and is digest-only otherwise. It
// also returns how many relayed payloads r withheld from a holder. More than
// MaxBatchItems items panic: receivers reject larger frames outright, so, as
// with the wire encoder, it fails at the send site, where the bug is.
func encodeBatchFrame(items []BatchItem, r *CopyRule) (frame []byte, withheld int) {
	if len(items) > MaxBatchItems {
		panic(fmt.Sprintf("group: batch of %d items exceeds limit %d", len(items), MaxBatchItems))
	}
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

// walkBatchFrame reads the batch frame m carries, the one decoder of
// encodeBatchFrame's layout. With a nil visit it only checks the frame — every
// header, run, length and trailing byte — and returns its item count, storing
// and hashing nothing. With a visit it also hashes each full item and hands
// visit the inner message, headed with m's source and destination. Only a
// frame that a nil-visit walk accepted is walked with a visit, so a frame is
// handed on whole or not at all. Hostile frames (another version byte, unknown form bits,
// oversized item counts, empty or overflowing runs, truncation, trailing
// bytes) return an error.
func walkBatchFrame(m GroupMsg, visit func(GroupMsg)) (int, error) {
	var d wire.Decoder
	d.Reset(m.Payload)
	if version := d.Byte(); d.Err() == nil && version != batchFrameVersion {
		return 0, fmt.Errorf("group: unsupported batch frame version %#x", version)
	}
	n := d.ListLen()
	if d.Err() != nil {
		return 0, d.Err()
	}
	if n > MaxBatchItems {
		return 0, fmt.Errorf("group: batch of %d items exceeds limit %d", n, MaxBatchItems)
	}

	im := GroupMsg{SrcGroup: m.SrcGroup, SrcEpoch: m.SrcEpoch, DstGroup: m.DstGroup, DstEpoch: m.DstEpoch}
	for seen := 0; seen < n; {
		im.Kind = Kind(d.Byte())
		form := d.Byte()
		run := d.ListLen()
		if d.Err() != nil {
			return 0, d.Err()
		}
		if form&^(formFull|formDerived) != 0 {
			return 0, fmt.Errorf("group: unknown batch run form %#x", form)
		}
		if run <= 0 || seen+run > n {
			return 0, fmt.Errorf("group: batch frame run of %d items overflows count %d", run, n)
		}
		full, derived := form&formFull != 0, form&formDerived != 0
		im.Payload, im.hashed = nil, full
		for end := seen + run; seen < end; seen++ {
			if !derived {
				im.MsgID = d.Bytes32()
			}
			if full {
				im.Payload = d.VarBytesView() // non-nil on success, even when empty
			} else {
				im.PayloadDigest = d.Bytes32()
			}
			if d.Err() != nil {
				return 0, d.Err()
			}
			if visit == nil {
				continue
			}
			if full {
				im.PayloadDigest = crypto.Hash(im.Payload)
			}
			if derived {
				im.MsgID = im.PayloadDigest
			}
			visit(im)
		}
	}
	if err := d.Finish(); err != nil {
		return 0, err
	}
	return n, nil
}

// SendBatchToNode transmits one batch of logical messages from self to a
// single node as one carrier of kind, with every payload carried in full —
// node-addressed batches (application raw-message floods) are
// link-authenticated, not majority-matched, so there is no digest optimization
// to apply.
func SendBatchToNode(send SendFn, src Composition, self ids.NodeID, to ids.NodeID, kind Kind, batchID crypto.Digest, items []BatchItem) {
	if len(items) == 0 {
		return
	}
	frame, _ := encodeBatchFrame(items, &CopyRule{Full: true})
	send(to, GroupMsg{
		SrcGroup: src.GroupID,
		SrcEpoch: src.Epoch,
		Kind:     kind,
		MsgID:    batchID,
		Payload:  frame,
	})
}

// EachInBatch hands visit the inner logical messages of a batch carrier, in
// frame order. Each inherits the carrier's source and destination headers and
// is ready for Inbox.Observe under the same link-authenticated sender. A full
// item's PayloadDigest is the hash the walk computed (the frame carries none
// for it), which the inbox takes as verified. The whole frame is checked
// before the first item is hashed or visited: a refused frame returns its
// error having visited none. Payloads alias m.Payload (the zero-copy decode
// path): treat them as read-only, and note that retaining one retains the
// whole frame. The walk itself allocates nothing.
func EachInBatch(m GroupMsg, visit func(GroupMsg)) error {
	if _, err := walkBatchFrame(m, nil); err != nil {
		return err
	}
	_, err := walkBatchFrame(m, visit)
	return err
}

// UnpackBatch collects EachInBatch's items into one slice, for callers that
// want them all at once (tests, measurement tools); the engine visits them in
// place.
func UnpackBatch(m GroupMsg) ([]GroupMsg, error) {
	n, err := walkBatchFrame(m, nil)
	if err != nil {
		return nil, err
	}
	out := make([]GroupMsg, 0, n)
	_, err = walkBatchFrame(m, func(im GroupMsg) { out = append(out, im) })
	return out, err
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
