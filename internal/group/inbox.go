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
// collecting votes — a hostile flood parks no more — and the accepted and
// settled ones remembered against stragglers, each on its own.
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
// away until inboxTTL) costs one map slot and no pointer. The owner can put a
// message there itself (Settle) when it knows it has no use for it: an echo
// of a broadcast it has delivered would otherwise collect votes, and — sent
// payload-less, as core sends an echo — never complete.
//
// The two maps are bounded apart. At maxEntriesPerKey pending entries a
// source's new MsgIDs are refused: flood protection. Each pending entry is
// charged to the sender whose copy opened it, and a sender holding
// maxOpenPerSender of a source's entries opens no more of them. A done map at
// the same size forgets its older half by first-copy time, Prune's rule,
// before it records another: dedup memory never refuses fresh traffic, it only
// shortens how long a straggler is recognised.
//
// Verify on store: a payload is hashed only when it is about to be stored,
// that is when the entry holds no payload for the digest the copy names. A
// copy whose payload does not hash to its PayloadDigest is dropped whole,
// never stored and never delivered. A copy naming a digest whose payload is
// already held counts as a vote for that digest exactly as a digest-only copy
// does, whatever bytes it carries: a Byzantine sender gains nothing by it that
// sending digest-only would not already give.
type Inbox struct {
	lookup  func(Key) (Composition, bool)
	sources map[Key]*source
}

// source is what the inbox remembers of one source composition.
type source struct {
	pending map[crypto.Digest]*entry        // MsgID → votes being collected
	done    map[crypto.Digest]time.Duration // accepted or settled MsgID → time of its first copy
}

// entry is one logical message that has not been accepted yet.
type entry struct {
	firstAt  time.Duration
	votes    []vote       // one per sender, in arrival order: the first is the opener's
	payloads []heldDigest // verified payloads, one per digest
	attached []attachment // what the few senders that attach anything attached
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
	return &Inbox{lookup: lookup, sources: make(map[Key]*source)}
}

func (ib *Inbox) addSource(src Key) *source {
	s := &source{pending: make(map[crypto.Digest]*entry), done: make(map[crypto.Digest]time.Duration)}
	ib.sources[src] = s
	return s
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

// remember moves msgID to the done map under the time of its first copy,
// first forgetting the older half of a done map at maxEntriesPerKey.
func (s *source) remember(msgID crypto.Digest, firstAt time.Duration) {
	if len(s.done) >= maxEntriesPerKey {
		times := slices.Sorted(maps.Values(s.done))
		s.forget(times[len(times)/2-1] + 1)
	}
	delete(s.pending, msgID)
	s.done[msgID] = firstAt
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
// acceptance threshold is crossed. A copy of a message accepted or settled
// earlier costs one map probe: no hash, no allocation.
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
			s = ib.addSource(src)
		} else if len(s.pending) >= maxEntriesPerKey || s.opened(from) >= maxOpenPerSender {
			return Accepted{}, false
		}
		// Room for the majority of a typical vgroup without regrowing.
		e = &entry{firstAt: now, votes: make([]vote, 0, 4)}
		s.pending[msg.MsgID] = e
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
	return ib.check(now, src, msg.MsgID, s, e)
}

// Settle tells the inbox that its owner needs nothing more from one logical
// message of src: whatever copies arrive, it will never be reported accepted.
// The message is remembered exactly as an accepted one is — a pending entry
// moves to the done map under the time of its first copy, releasing its votes
// and held payloads; an unseen MsgID is recorded under now — so every later
// copy is Observe's one-probe straggler. src need not be a known composition.
func (ib *Inbox) Settle(now time.Duration, src Key, msgID crypto.Digest) {
	s := ib.sources[src]
	if s == nil {
		s = ib.addSource(src)
	}
	if _, done := s.done[msgID]; done {
		return
	}
	firstAt := now
	if e := s.pending[msgID]; e != nil {
		firstAt = e.firstAt
	}
	s.remember(msgID, firstAt)
}

// check evaluates the acceptance rule for one pending entry and, when it
// holds, moves the message to the source's done map. At most one (kind,
// digest) pair can reach a majority (one vote per sender), and one that did is
// the vote of one of the first len(votes)−majority+1 senders, so those are the
// candidates; only a digest whose payload is held can be accepted.
func (ib *Inbox) check(now time.Duration, src Key, msgID crypto.Digest, s *source, e *entry) (Accepted, bool) {
	comp, known := ib.lookup(src)
	if !known {
		return Accepted{}, false
	}
	majority := comp.Majority()
	for i := 0; i+majority <= len(e.votes); i++ {
		kind, digest := e.votes[i].kind, e.votes[i].digest
		payload := e.held(digest)
		if payload == nil || e.tally(comp, kind, digest) < majority {
			continue // a correct majority sender will still provide its vote
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
		// Only the time of the first copy outlives acceptance: it alone
		// suppresses stragglers until the message is pruned.
		s.remember(msgID, e.firstAt)
		return Accepted{Src: src, Kind: kind, MsgID: msgID, Digest: digest,
			Payload: payload, Attachments: attachments, At: now}, true
	}
	return Accepted{}, false
}

// Votes returns how many members of src have voted (kind, digest) on a
// message of src that is still collecting votes; zero once it is accepted or
// settled. src is taken as given, not looked up: the caller asks about the
// members it knows.
func (ib *Inbox) Votes(src Composition, kind Kind, msgID, digest crypto.Digest) int {
	if s := ib.sources[src.Key()]; s != nil {
		if e := s.pending[msgID]; e != nil {
			return e.tally(src, kind, digest)
		}
	}
	return 0
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
// messages are remembered until pruned, which suppresses duplicate deliveries
// from stragglers in the meantime.
func (ib *Inbox) Prune(before time.Duration) {
	for src, s := range ib.sources {
		for msgID, e := range s.pending {
			if e.firstAt < before {
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

// Len returns the number of messages remembered — pending, accepted and
// settled (for tests and metrics).
func (ib *Inbox) Len() int {
	n := 0
	for _, s := range ib.sources {
		n += len(s.pending) + len(s.done)
	}
	return n
}
