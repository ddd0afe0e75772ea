package group

import (
	"bytes"
	"maps"
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
// a member or not — can fill the source's pending map. The contracted
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
// Per source composition the inbox keeps two maps. A message still collecting
// votes is a pending entry holding those votes and the payloads seen. Once
// accepted it is a value in the done map — the time of its first copy, all
// Prune needs — so the long tail of a message's life (stragglers are turned
// away until inboxTTL) costs one map slot and no pointer. A message of the
// lending index (below) is the exception: accepted or settled, it leaves no
// done record, because its owner remembers what it received by the MsgID every
// link shares and turns later copies away itself.
//
// The two maps are bounded apart. At maxEntriesPerKey pending entries a
// source's new MsgIDs are refused: flood protection. Each pending entry is
// charged to the sender whose copy opened it, and a sender holding
// maxOpenPerSender of a source's entries opens no more of them. A done map at
// the same size forgets its older half by first-copy time, Prune's rule,
// before it records another: dedup memory never refuses fresh traffic, it only
// shortens how long a straggler of a message outside the lending index is
// recognised.
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
// are indexed together (shared) and bytes move between them. An entry whose
// majority voted that digest takes the verified payload another source's
// entry holds for it (borrow); one that finds none is starved, and the next
// payload stored for that MsgID under any source, or handed in by the owner
// (Supply), completes it (lend). The bytes are the ones the majority voted
// for, so lending trusts nothing a copy of the entry's own link would not. The
// owner asks for the payload of a starved entry elsewhere (Starved), and once
// it has the message from any link releases every source's entry at once
// (SettleAll). The index holds pending entries only, so the pending bounds
// bound it.
type Inbox struct {
	lookup  func(Key) (Composition, bool)
	sources map[Key]*source
	// shared lists per MsgID, in the order they were opened, the sources
	// holding a pending entry opened by a copy whose MsgID was its payload
	// digest.
	shared  map[crypto.Digest][]Key
	starved int // pending entries with entry.starved set
}

// source is what the inbox remembers of one source composition.
type source struct {
	pending map[crypto.Digest]*entry        // MsgID → votes being collected
	done    map[crypto.Digest]time.Duration // accepted MsgID → time of its first copy
}

// entry is one logical message that has not been accepted yet.
type entry struct {
	firstAt  time.Duration
	votes    []vote       // one per sender, in arrival order: the first is the opener's
	payloads []heldDigest // verified payloads, one per digest
	attached []attachment // what the few senders that attach anything attached
	shared   bool         // listed in Inbox.shared
	// starved: a majority voted the payload digest that is this message's
	// MsgID, and no source's entry holds the bytes.
	starved bool
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
	return &Inbox{lookup: lookup, sources: make(map[Key]*source), shared: make(map[crypto.Digest][]Key)}
}

// opened counts the pending entries from's copies opened. Below
// maxOpenPerSender pending entries no sender can hold that many, so the count
// is only taken at a source that holds them: a hostile one, or a burst.
func (s *source) opened(from ids.NodeID) int {
	n := 0
	if len(s.pending) >= maxOpenPerSender {
		for _, e := range s.pending {
			if e.votes[0].from == from {
				n++
			}
		}
	}
	return n
}

// retire ends msgID of src: its pending entry is released, and unless that
// entry was in the lending index the message moves to the done map under the
// time of its first copy, first forgetting the older half of a done map at
// maxEntriesPerKey.
func (ib *Inbox) retire(src Key, s *source, msgID crypto.Digest) {
	e := s.pending[msgID]
	ib.release(src, msgID, e)
	delete(s.pending, msgID)
	if e.shared {
		return
	}
	if len(s.done) >= maxEntriesPerKey {
		times := slices.Sorted(maps.Values(s.done))
		s.forget(times[len(times)/2-1] + 1)
	}
	s.done[msgID] = e.firstAt
}

// release takes a pending entry that is leaving out of the lending index.
func (ib *Inbox) release(src Key, msgID crypto.Digest, e *entry) {
	if e.starved {
		ib.starved--
	}
	if !e.shared {
		return
	}
	keys := slices.DeleteFunc(ib.shared[msgID], func(k Key) bool { return k == src })
	if len(keys) == 0 {
		delete(ib.shared, msgID)
	} else {
		ib.shared[msgID] = keys
	}
}

// forget drops the done records of messages first seen before the deadline.
func (s *source) forget(before time.Duration) {
	for msgID, firstAt := range s.done {
		if firstAt < before {
			delete(s.done, msgID)
		}
	}
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
// acceptance threshold is crossed. A copy of a message with a done record
// costs one map probe: no hash, no allocation.
func (ib *Inbox) Observe(now time.Duration, from ids.NodeID, msg GroupMsg) (Accepted, bool) {
	src := Key{GroupID: msg.SrcGroup, Epoch: msg.SrcEpoch}
	s := ib.sources[src]
	var e *entry
	if s != nil {
		if _, accepted := s.done[msg.MsgID]; accepted {
			return Accepted{}, false
		}
		e = s.pending[msg.MsgID]
	}
	store := msg.Payload != nil && (e == nil || e.held(msg.PayloadDigest) == nil)
	if store && !msg.hashed && crypto.Hash(msg.Payload) != msg.PayloadDigest {
		return Accepted{}, false // inconsistent copy; drop the vote entirely
	}
	if e == nil {
		if s == nil {
			s = &source{pending: make(map[crypto.Digest]*entry), done: make(map[crypto.Digest]time.Duration)}
			ib.sources[src] = s
		} else if len(s.pending) >= maxEntriesPerKey || s.opened(from) >= maxOpenPerSender {
			return Accepted{}, false
		}
		// Room for the majority of a typical vgroup without regrowing.
		e = &entry{firstAt: now, votes: make([]vote, 0, 4), shared: msg.MsgID == msg.PayloadDigest}
		s.pending[msg.MsgID] = e
		if e.shared {
			ib.shared[msg.MsgID] = append(ib.shared[msg.MsgID], src)
		}
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
	acc, ok := ib.check(now, src, msg.MsgID, s, e)
	if !ok && store && e.shared && msg.PayloadDigest == msg.MsgID {
		return ib.Supply(now, msg.MsgID, msg.Payload) // lend the new bytes
	}
	return acc, ok
}

// SettleAll releases the pending entry of msgID under every source that holds
// one in the lending index: the owner has the message from one link and needs
// it from none. It frees memory and leaves no record; the owner turns later
// copies away.
func (ib *Inbox) SettleAll(msgID crypto.Digest) {
	for _, src := range slices.Clone(ib.shared[msgID]) {
		ib.retire(src, ib.sources[src], msgID) // shared: no record
	}
}

// Supply hands the inbox the payload of a message whose MsgID is its digest,
// from outside any link (the owner fetched it, or Observe stored it under
// another source): the first starved entry, in the order they were opened,
// that it completes is reported accepted, and no entry keeps the bytes
// otherwise. payload must hash to digest; the caller computed the one from the
// other.
func (ib *Inbox) Supply(now time.Duration, digest crypto.Digest, payload []byte) (Accepted, bool) {
	for _, src := range ib.shared[digest] {
		s := ib.sources[src]
		if e := s.pending[digest]; e.starved {
			e.payloads = append(e.payloads, heldDigest{digest: digest, payload: payload})
			if acc, ok := ib.check(now, src, digest, s, e); ok {
				return acc, true // check changed shared[digest]: stop here
			}
			e.payloads = e.payloads[:len(e.payloads)-1]
		}
	}
	return Accepted{}, false
}

// borrow returns the payload another source's pending entry holds for msgID,
// which is also its digest, or nil.
func (ib *Inbox) borrow(src Key, msgID crypto.Digest) []byte {
	for _, k := range ib.shared[msgID] {
		if k != src {
			if p := ib.sources[k].pending[msgID].held(msgID); p != nil {
				return p
			}
		}
	}
	return nil
}

// Starved calls visit once per MsgID that some source's entry is starved of,
// in ascending MsgID order, with the members that voted its digest on those
// entries: each holds the payload if it is correct. visit must not call back
// into the inbox.
func (ib *Inbox) Starved(visit func(msgID crypto.Digest, voters []ids.NodeID)) {
	if ib.starved == 0 {
		return
	}
	var msgIDs []crypto.Digest
	for msgID, srcs := range ib.shared {
		if slices.ContainsFunc(srcs, func(k Key) bool { return ib.sources[k].pending[msgID].starved }) {
			msgIDs = append(msgIDs, msgID)
		}
	}
	slices.SortFunc(msgIDs, func(a, b crypto.Digest) int { return bytes.Compare(a[:], b[:]) })
	for _, msgID := range msgIDs {
		var voters []ids.NodeID
		for _, k := range ib.shared[msgID] {
			e := ib.sources[k].pending[msgID]
			comp, known := ib.lookup(k)
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

// check evaluates the acceptance rule for one pending entry and, when it
// holds, retires the message. At most one (kind, digest) pair can reach a
// majority (one vote per sender), and one that did is the vote of one of the
// first len(votes)−majority+1 senders, so those are the candidates; only a
// digest whose payload is held — or, on a shared entry whose MsgID it is, can
// be borrowed — can be accepted.
func (ib *Inbox) check(now time.Duration, src Key, msgID crypto.Digest, s *source, e *entry) (Accepted, bool) {
	comp, known := ib.lookup(src)
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
			if payload = ib.borrow(src, msgID); payload == nil {
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
		ib.retire(src, s, msgID)
		return Accepted{Src: src, Kind: kind, MsgID: msgID, Digest: digest,
			Payload: payload, Attachments: attachments, At: now}, true
	}
	return Accepted{}, false
}

// Votes returns how many members of src have voted (kind, digest) on a
// message of src that is still collecting votes; zero once it is accepted or
// settled (SettleAll). src is taken as given, not looked up: the caller asks
// about the members it knows.
func (ib *Inbox) Votes(src Composition, kind Kind, msgID, digest crypto.Digest) int {
	if s := ib.sources[src.Key()]; s != nil {
		if e := s.pending[msgID]; e != nil {
			return e.tally(src, kind, digest)
		}
	}
	return 0
}

// Voters calls visit once per vote that names msgID as its digest, on every
// pending entry of the lending index that holds msgID, with the entry's source
// and the vote's sender and kind: the senders that say they hold the message.
// visit must not call back into the inbox.
func (ib *Inbox) Voters(msgID crypto.Digest, visit func(src Key, from ids.NodeID, kind Kind)) {
	for _, k := range ib.shared[msgID] {
		for _, v := range ib.sources[k].pending[msgID].votes {
			if v.digest == msgID {
				visit(k, v.from, v.kind)
			}
		}
	}
}

// FlushKey re-evaluates buffered entries for a source composition that just
// became known, returning all newly accepted messages.
func (ib *Inbox) FlushKey(now time.Duration, src Key) []Accepted {
	s := ib.sources[src]
	if s == nil {
		return nil
	}
	// Sorted, not map order: callers act on the result in sequence
	// (proposals, forwards, RNG draws), and runs of one seed must replay.
	msgIDs := slices.SortedFunc(maps.Keys(s.pending), func(a, b crypto.Digest) int {
		return bytes.Compare(a[:], b[:])
	})
	var out []Accepted
	for _, msgID := range msgIDs {
		if acc, ok := ib.check(now, src, msgID, s, s.pending[msgID]); ok {
			out = append(out, acc)
		}
	}
	return out
}

// Prune forgets messages first observed before the deadline. Accepted
// messages with a done record are remembered until pruned, which suppresses
// duplicate deliveries from stragglers in the meantime.
func (ib *Inbox) Prune(before time.Duration) {
	for src, s := range ib.sources {
		for msgID, e := range s.pending {
			if e.firstAt < before {
				ib.release(src, msgID, e)
				delete(s.pending, msgID)
			}
		}
		s.forget(before)
		if len(s.pending)+len(s.done) == 0 {
			delete(ib.sources, src)
		}
	}
}

// Pending calls visit once per message still collecting votes, in no
// particular order, with the kind its first copy named and the number of
// senders that voted (for tests and metrics).
func (ib *Inbox) Pending(visit func(src Key, kind Kind, votes int)) {
	for src, s := range ib.sources {
		for _, e := range s.pending {
			visit(src, e.votes[0].kind, len(e.votes))
		}
	}
}

// Len returns the number of messages remembered — pending, and accepted with
// a done record (for tests and metrics).
func (ib *Inbox) Len() int {
	n := 0
	for _, s := range ib.sources {
		n += len(s.pending) + len(s.done)
	}
	return n
}
