package group

import (
	"bytes"
	"slices"
	"time"

	"atum/internal/crypto"
	"atum/internal/ids"
)

// maxEntriesPerKey bounds, per source composition, the messages still
// collecting votes — a hostile flood parks no more — and the accepted ones
// remembered against stragglers (done records), each on its own.
const maxEntriesPerKey = 1024

// maxOpenPerSender bounds, per source composition, the messages still
// collecting votes that one sender's copies opened, so that no one sender —
// a member or not — can fill the source's pending count. The contracted
// workloads peak at 132.
const maxOpenPerSender = maxEntriesPerKey / 4

// Inbox is the receive side of the group-message primitive. One Inbox per
// node accumulates per-sender votes for each logical message and reports
// acceptance when a majority of the source composition delivered matching
// content under one kind and a full payload is available.
//
// Messages may arrive before their source composition is known (e.g. a
// neighbor reconfigured and its update is still in flight); such votes are
// buffered and re-evaluated via FlushKey once the composition is learned.
//
// The inbox keeps three tables, none of them per source. A message still
// collecting votes is a pending entry holding those votes and the payloads
// seen. The entries of one MsgID, one per source composition that sent it,
// form a chain in the order they were opened, and entries maps the MsgID to
// the first. Once accepted, a message is a value in done, keyed by its source
// and MsgID — the time of its first copy, all Prune needs — so the long tail
// of a message's life (stragglers are turned away until inboxTTL) costs one
// map slot and no pointer. A shared message (below) is the exception:
// accepted or settled, it leaves no done record, because its owner remembers
// what it received by the MsgID every link shares and turns later copies away
// itself. counts holds, per source with anything in the other two, how many
// pending entries and done records it has.
//
// The two counts are bounded apart. At maxEntriesPerKey pending entries a
// source's new MsgIDs are refused: flood protection. Each pending entry is
// charged to the sender whose copy opened it, and a sender holding
// maxOpenPerSender of a source's entries opens no more of them. A source at
// maxEntriesPerKey done records forgets its older half by first-copy time,
// Prune's rule, before it records another: dedup memory never refuses fresh
// traffic, it only shortens how long a straggler of a message that is not
// shared is recognised.
//
// Verify on store: a payload is hashed only when it is about to be stored,
// that is when the entry holds no payload for the digest the copy names. A
// copy whose payload does not hash to its PayloadDigest is dropped whole,
// never stored and never delivered. A copy naming a digest whose payload is
// already held counts as a vote for that digest exactly as a digest-only copy
// does, whatever bytes it carries: a Byzantine sender gains nothing by it that
// sending digest-only would not already give.
//
// Lending. A message whose MsgID is its payload digest (core's gossip) is the
// same message on every link, so the entries different sources hold for it
// are shared and bytes move between them along the MsgID's chain; an entry
// opened by a copy whose MsgID is not its digest takes no part. A shared
// entry whose majority voted that digest takes the verified payload another
// shared entry of its chain holds (borrow); one that finds none is starved,
// and the next payload stored for that MsgID under any source, or handed in
// by the owner (Supply), completes it (lend). The bytes are the ones the
// majority voted for, so lending trusts nothing a copy of the entry's own link
// would not. The owner asks for the payload of a starved entry elsewhere
// (Starved), and once it has the message from any link releases every
// source's shared entry at once (SettleAll). Only pending entries lend, so the
// pending bounds bound what lending holds.
type Inbox struct {
	lookup  func(Key) (Composition, bool)
	entries map[crypto.Digest]*entry // MsgID → the first of its pending entries
	done    map[doneKey]time.Duration
	counts  map[Key]sourceCount
	starved int // pending entries with entry.starved set
}

// doneKey names one accepted message: its source composition and MsgID.
type doneKey struct {
	src   Key
	msgID crypto.Digest
}

// sourceCount is how much one source composition holds in the inbox.
type sourceCount struct {
	pending, done int32
}

// entry is one logical message that has not been accepted yet. Its first
// votes and its first payload live in the entry itself, so opening one is one
// allocation. votes and payloads point into the entry: an entry is only ever
// held by pointer, never copied by value.
type entry struct {
	src      Key
	next     *entry // the next source's entry of the same MsgID, opened later
	firstAt  time.Duration
	votes    []vote       // one per sender, in arrival order: the first is the opener's
	payloads []heldDigest // verified payloads, one per digest
	attached []attachment // what the few senders that attach anything attached
	shared   bool         // opened by a copy whose MsgID was its payload digest
	// starved: the entry is shared, a majority voted the payload digest that
	// is this message's MsgID, and no shared entry of its chain holds the
	// bytes.
	starved bool
	// inlineVotes is votes' array until a fifth sender votes, room for the
	// majority of a typical vgroup; inlinePayload is payloads' until a second
	// digest's payload is stored.
	inlineVotes   [4]vote
	inlinePayload [1]heldDigest
}

// vote is what one sender said of a message: its kind and the digest of its
// payload, matched together — a copy under another kind is a vote for another
// message, whoever sent the first copy.
type vote struct {
	from   ids.NodeID
	kind   Kind
	digest crypto.Digest
}

// attachment is the sender-specific data that came with from's vote.
type attachment struct {
	from ids.NodeID
	data []byte
}

type heldDigest struct {
	digest  crypto.Digest
	payload []byte
}

// NewInbox creates an inbox; lookup resolves known compositions.
func NewInbox(lookup func(Key) (Composition, bool)) *Inbox {
	return &Inbox{lookup: lookup, entries: make(map[crypto.Digest]*entry),
		done: make(map[doneKey]time.Duration), counts: make(map[Key]sourceCount)}
}

// find returns src's pending entry of msgID, nil when it has none.
func (ib *Inbox) find(src Key, msgID crypto.Digest) *entry {
	e := ib.entries[msgID]
	for e != nil && e.src != src {
		e = e.next
	}
	return e
}

// count moves src's counts by the deltas, and forgets src once both are zero.
func (ib *Inbox) count(src Key, pending, done int32) {
	c := ib.counts[src]
	c.pending += pending
	c.done += done
	if c == (sourceCount{}) {
		delete(ib.counts, src)
	} else {
		ib.counts[src] = c
	}
}

// opened counts the pending entries of src that from's copies opened. Below
// maxOpenPerSender pending entries no sender can hold that many, so the count
// is only taken for a source that holds them: a hostile one, or a burst.
func (ib *Inbox) opened(src Key, pending int32, from ids.NodeID) int {
	n := 0
	if pending >= maxOpenPerSender {
		for _, e := range ib.entries {
			for ; e != nil; e = e.next {
				if e.src == src && e.votes[0].from == from {
					n++
				}
			}
		}
	}
	return n
}

// retire ends e, the pending entry of msgID: it leaves its chain, and unless
// it is shared the message is recorded done under the time of its first copy,
// after a source at maxEntriesPerKey done records forgot its older half.
func (ib *Inbox) retire(msgID crypto.Digest, e *entry) {
	ib.unlink(msgID, e)
	if e.shared {
		return
	}
	if ib.counts[e.src].done >= maxEntriesPerKey {
		var times []time.Duration
		for k, firstAt := range ib.done {
			if k.src == e.src {
				times = append(times, firstAt)
			}
		}
		slices.Sort(times)
		cut := times[len(times)/2-1] + 1
		for k, firstAt := range ib.done {
			if k.src == e.src && firstAt < cut {
				ib.forgetDone(k)
			}
		}
	}
	ib.done[doneKey{src: e.src, msgID: msgID}] = e.firstAt
	ib.count(e.src, 0, 1)
}

// unlink takes e, a pending entry of msgID, out of its chain. e.next is left
// as it was, so a walk of the chain can go on past an entry it retired.
func (ib *Inbox) unlink(msgID crypto.Digest, e *entry) {
	if head := ib.entries[msgID]; head == e {
		if e.next == nil {
			delete(ib.entries, msgID)
		} else {
			ib.entries[msgID] = e.next
		}
	} else {
		for head.next != e {
			head = head.next
		}
		head.next = e.next
	}
	if e.starved {
		ib.starved--
	}
	ib.count(e.src, -1, 0)
}

// forgetDone drops the done record of k.
func (ib *Inbox) forgetDone(k doneKey) {
	delete(ib.done, k)
	ib.count(k.src, 0, -1)
}

// held returns the verified payload the entry holds for a digest, nil when it
// holds none: a payload that was stored is never nil (Observe).
func (e *entry) held(d crypto.Digest) []byte {
	for i := range e.payloads {
		if e.payloads[i].digest == d {
			return e.payloads[i].payload
		}
	}
	return nil
}

// tally counts the members of comp whose vote is (kind, digest).
func (e *entry) tally(comp Composition, kind Kind, digest crypto.Digest) int {
	count := 0
	for i := range e.votes {
		if v := &e.votes[i]; v.kind == kind && v.digest == digest && comp.Contains(v.from) {
			count++
		}
	}
	return count
}

// voteOf returns from's vote, nil when it has not voted.
func (e *entry) voteOf(from ids.NodeID) *vote {
	for i := range e.votes {
		if e.votes[i].from == from {
			return &e.votes[i]
		}
	}
	return nil
}

// Observe records the arrival of one GroupMsg copy from a link-authenticated
// sender. It returns the accepted logical message the first time the
// acceptance threshold is crossed. A copy of a pending message costs one map
// probe and a walk of its MsgID's chain; a copy of a message with a done
// record one more probe: no hash, no allocation.
func (ib *Inbox) Observe(now time.Duration, from ids.NodeID, msg GroupMsg) (Accepted, bool) {
	src := Key{GroupID: msg.SrcGroup, Epoch: msg.SrcEpoch}
	e := ib.find(src, msg.MsgID)
	if e == nil {
		if _, accepted := ib.done[doneKey{src: src, msgID: msg.MsgID}]; accepted {
			return Accepted{}, false
		}
	}
	store := msg.Payload != nil && (e == nil || e.held(msg.PayloadDigest) == nil)
	if store && !msg.hashed && crypto.Hash(msg.Payload) != msg.PayloadDigest {
		return Accepted{}, false // inconsistent copy; drop the vote entirely
	}
	if e == nil {
		if pending := ib.counts[src].pending; pending >= maxEntriesPerKey || ib.opened(src, pending, from) >= maxOpenPerSender {
			return Accepted{}, false
		}
		e = &entry{src: src, firstAt: now, shared: msg.MsgID == msg.PayloadDigest}
		e.votes, e.payloads = e.inlineVotes[:0], e.inlinePayload[:0]
		ib.link(msg.MsgID, e)
	}
	// First vote per sender wins: a Byzantine sender cannot flip its vote.
	if e.voteOf(from) == nil {
		e.votes = append(e.votes, vote{from: from, kind: msg.Kind, digest: msg.PayloadDigest})
		if msg.Attach != nil {
			e.attached = append(e.attached, attachment{from: from, data: msg.Attach})
		}
	}
	if store {
		e.payloads = append(e.payloads, heldDigest{digest: msg.PayloadDigest, payload: msg.Payload})
	}
	acc, ok := ib.check(now, msg.MsgID, e)
	if !ok && store && e.shared && msg.PayloadDigest == msg.MsgID {
		return ib.Supply(now, msg.MsgID, msg.Payload) // lend the new bytes
	}
	return acc, ok
}

// link appends e, a new pending entry of msgID, to the MsgID's chain.
func (ib *Inbox) link(msgID crypto.Digest, e *entry) {
	if last := ib.entries[msgID]; last == nil {
		ib.entries[msgID] = e
	} else {
		for last.next != nil {
			last = last.next
		}
		last.next = e
	}
	ib.count(e.src, 1, 0)
}

// SettleAll releases every shared pending entry of msgID: the owner has the
// message from one link and needs it from none. It frees memory and leaves no
// record; the owner turns later copies away.
func (ib *Inbox) SettleAll(msgID crypto.Digest) {
	for e := ib.entries[msgID]; e != nil; e = e.next {
		if e.shared {
			ib.retire(msgID, e) // shared: no record
		}
	}
}

// Supply hands the inbox the payload of a message whose MsgID is its digest,
// from outside any link (the owner fetched it, or Observe stored it under
// another source): the first starved entry, in the order they were opened,
// that it completes is reported accepted, and no entry keeps the bytes
// otherwise. payload must hash to digest; the caller computed the one from the
// other.
func (ib *Inbox) Supply(now time.Duration, digest crypto.Digest, payload []byte) (Accepted, bool) {
	for e := ib.entries[digest]; e != nil; e = e.next {
		if e.starved {
			e.payloads = append(e.payloads, heldDigest{digest: digest, payload: payload})
			if acc, ok := ib.check(now, digest, e); ok {
				return acc, true
			}
			e.payloads = e.payloads[:len(e.payloads)-1]
		}
	}
	return Accepted{}, false
}

// borrow returns the payload another shared entry of e's chain holds for
// msgID, which is also its digest, or nil.
func (ib *Inbox) borrow(msgID crypto.Digest, e *entry) []byte {
	for k := ib.entries[msgID]; k != nil; k = k.next {
		if k != e && k.shared {
			if p := k.held(msgID); p != nil {
				return p
			}
		}
	}
	return nil
}

// Starved calls visit once per MsgID that some shared entry is starved of, in
// ascending MsgID order, with the members that voted its digest on those
// entries: each holds the payload if it is correct. visit must not call back
// into the inbox.
func (ib *Inbox) Starved(visit func(msgID crypto.Digest, voters []ids.NodeID)) {
	if ib.starved == 0 {
		return
	}
	var msgIDs []crypto.Digest
	for msgID, e := range ib.entries {
		for ; e != nil; e = e.next {
			if e.starved {
				msgIDs = append(msgIDs, msgID)
				break
			}
		}
	}
	slices.SortFunc(msgIDs, func(a, b crypto.Digest) int { return bytes.Compare(a[:], b[:]) })
	for _, msgID := range msgIDs {
		var voters []ids.NodeID
		for e := ib.entries[msgID]; e != nil; e = e.next {
			comp, known := ib.lookup(e.src)
			if !e.starved || !known {
				continue
			}
			for _, v := range e.votes {
				if v.digest == msgID && comp.Contains(v.from) && !slices.Contains(voters, v.from) {
					voters = append(voters, v.from)
				}
			}
		}
		visit(msgID, voters)
	}
}

// check evaluates the acceptance rule for e, a pending entry of msgID, and,
// when it holds, retires the message. At most one (kind, digest) pair can
// reach a majority (one vote per sender), and one that did is the vote of one
// of the first len(votes)−majority+1 senders, so those are the candidates;
// only a digest whose payload is held — or, on a shared entry whose MsgID it
// is, can be borrowed — can be accepted.
func (ib *Inbox) check(now time.Duration, msgID crypto.Digest, e *entry) (Accepted, bool) {
	comp, known := ib.lookup(e.src)
	if !known {
		return Accepted{}, false
	}
	majority := comp.Majority()
	for i := 0; i+majority <= len(e.votes); i++ {
		kind, digest := e.votes[i].kind, e.votes[i].digest
		payload := e.held(digest)
		lendable := e.shared && digest == msgID && !e.starved
		if payload == nil && !lendable || e.tally(comp, kind, digest) < majority {
			continue // a correct majority sender will still provide its vote
		}
		if payload == nil {
			if payload = ib.borrow(msgID, e); payload == nil {
				e.starved = true // until a lend; the owner may pull (Starved)
				ib.starved++
				continue
			}
			e.payloads = append(e.payloads, heldDigest{digest: digest, payload: payload})
		}
		var attachments map[ids.NodeID][]byte
		for _, a := range e.attached {
			if v := e.voteOf(a.from); v.kind == kind && v.digest == digest && comp.Contains(a.from) {
				if attachments == nil {
					attachments = make(map[ids.NodeID][]byte)
				}
				attachments[a.from] = a.data
			}
		}
		// At most the time of the first copy outlives acceptance: it alone
		// suppresses stragglers until the message is pruned.
		ib.retire(msgID, e)
		return Accepted{Src: e.src, Kind: kind, MsgID: msgID, Digest: digest,
			Payload: payload, Attachments: attachments, At: now}, true
	}
	return Accepted{}, false
}

// Votes returns how many members of src have voted (kind, digest) on a
// message of src that is still collecting votes; zero once it is accepted or
// settled (SettleAll). src is taken as given, not looked up: the caller asks
// about the members it knows.
func (ib *Inbox) Votes(src Composition, kind Kind, msgID, digest crypto.Digest) int {
	if e := ib.find(src.Key(), msgID); e != nil {
		return e.tally(src, kind, digest)
	}
	return 0
}

// Voters calls visit once per vote that names msgID as its digest, on every
// shared pending entry of msgID, with the entry's source and the vote's sender
// and kind: the senders that say they hold the message. Entries come in the
// order they were opened, votes in the order they arrived. visit must not call
// back into the inbox.
func (ib *Inbox) Voters(msgID crypto.Digest, visit func(src Key, from ids.NodeID, kind Kind)) {
	for e := ib.entries[msgID]; e != nil; e = e.next {
		if !e.shared {
			continue
		}
		for _, v := range e.votes {
			if v.digest == msgID {
				visit(e.src, v.from, v.kind)
			}
		}
	}
}

// FlushKey re-evaluates buffered entries for a source composition that just
// became known, returning all newly accepted messages.
func (ib *Inbox) FlushKey(now time.Duration, src Key) []Accepted {
	if ib.counts[src].pending == 0 {
		return nil
	}
	var msgIDs []crypto.Digest
	for msgID := range ib.entries {
		if ib.find(src, msgID) != nil {
			msgIDs = append(msgIDs, msgID)
		}
	}
	// Sorted, not map order: callers act on the result in sequence
	// (proposals, forwards, RNG draws), and runs of one seed must replay.
	slices.SortFunc(msgIDs, func(a, b crypto.Digest) int { return bytes.Compare(a[:], b[:]) })
	var out []Accepted
	for _, msgID := range msgIDs {
		if acc, ok := ib.check(now, msgID, ib.find(src, msgID)); ok {
			out = append(out, acc)
		}
	}
	return out
}

// Prune forgets messages first observed before the deadline. Accepted
// messages with a done record are remembered until pruned, which suppresses
// duplicate deliveries from stragglers in the meantime.
func (ib *Inbox) Prune(before time.Duration) {
	for msgID, e := range ib.entries {
		for ; e != nil; e = e.next {
			if e.firstAt < before {
				ib.unlink(msgID, e)
			}
		}
	}
	for k, firstAt := range ib.done {
		if firstAt < before {
			ib.forgetDone(k)
		}
	}
}

// Pending calls visit once per message still collecting votes, in no
// particular order, with the kind its first copy named and the number of
// senders that voted (for tests and metrics).
func (ib *Inbox) Pending(visit func(src Key, kind Kind, votes int)) {
	for _, e := range ib.entries {
		for ; e != nil; e = e.next {
			visit(e.src, e.votes[0].kind, len(e.votes))
		}
	}
}

// Len returns the number of messages remembered — pending, and accepted with
// a done record (for tests and metrics).
func (ib *Inbox) Len() int {
	n := 0
	for _, c := range ib.counts {
		n += int(c.pending + c.done)
	}
	return n
}
