package group

import (
	"bytes"
	"maps"
	"slices"
	"time"

	"atum/internal/crypto"
	"atum/internal/ids"
)

// maxEntriesPerKey bounds the number of logical messages remembered per source
// composition — pending, accepted and settled together — protecting receivers
// from hostile floods.
const maxEntriesPerKey = 1024

// Inbox is the receive side of the group-message primitive. One Inbox per
// node accumulates per-sender votes for each logical message and reports
// acceptance when a majority of the source composition delivered matching
// content and a full payload is available.
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
	kind     Kind
	firstAt  time.Duration
	votes    []vote       // one per sender, in arrival order
	payloads []heldDigest // verified payloads, one per digest
}

type vote struct {
	from   ids.NodeID
	digest crypto.Digest
	attach []byte // nil when the sender attached nothing
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

// full reports whether the source is at maxEntriesPerKey: no new MsgID is
// admitted, by Observe or by Settle.
func (s *source) full() bool { return len(s.pending)+len(s.done) >= maxEntriesPerKey }

func (e *entry) holds(d crypto.Digest) bool {
	for i := range e.payloads {
		if e.payloads[i].digest == d {
			return true
		}
	}
	return false
}

func (e *entry) voted(from ids.NodeID) bool {
	for i := range e.votes {
		if e.votes[i].from == from {
			return true
		}
	}
	return false
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
	store := msg.Payload != nil && (e == nil || !e.holds(msg.PayloadDigest))
	if store && !msg.hashed && crypto.Hash(msg.Payload) != msg.PayloadDigest {
		return Accepted{}, false // inconsistent copy; drop the vote entirely
	}
	if e == nil {
		if s == nil {
			s = ib.addSource(src)
		} else if s.full() {
			return Accepted{}, false
		}
		// Room for the majority of a typical vgroup without regrowing.
		e = &entry{kind: msg.Kind, firstAt: now, votes: make([]vote, 0, 4)}
		s.pending[msg.MsgID] = e
	}
	// First vote per sender wins: a Byzantine sender cannot flip its vote.
	if !e.voted(from) {
		e.votes = append(e.votes, vote{from: from, digest: msg.PayloadDigest, attach: msg.Attach})
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
// and held payloads; an unseen MsgID is recorded under now, unless the source
// is at maxEntriesPerKey, in which case nothing is recorded — so every later
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
		delete(s.pending, msgID)
	} else if s.full() {
		return
	}
	s.done[msgID] = firstAt
}

// check evaluates the acceptance rule for one pending entry and, when it
// holds, moves the message to the source's done map. At most one digest can
// reach a majority (one vote per sender), and only a digest whose payload is
// held can be accepted, so the held payloads are the candidates.
func (ib *Inbox) check(now time.Duration, src Key, msgID crypto.Digest, s *source, e *entry) (Accepted, bool) {
	comp, known := ib.lookup(src)
	if !known {
		return Accepted{}, false
	}
	for _, held := range e.payloads {
		count := 0
		for i := range e.votes {
			if e.votes[i].digest == held.digest && comp.Contains(e.votes[i].from) {
				count++
			}
		}
		if count < comp.Majority() {
			continue // a correct majority sender will still provide its vote
		}
		var attachments map[ids.NodeID][]byte
		for _, v := range e.votes {
			if v.attach != nil && v.digest == held.digest && comp.Contains(v.from) {
				if attachments == nil {
					attachments = make(map[ids.NodeID][]byte)
				}
				attachments[v.from] = v.attach
			}
		}
		// Only the time of the first copy outlives acceptance: it alone
		// suppresses stragglers until the message is pruned.
		delete(s.pending, msgID)
		s.done[msgID] = e.firstAt
		return Accepted{Src: src, Kind: e.kind, MsgID: msgID, Digest: held.digest,
			Payload: held.payload, Attachments: attachments, At: now}, true
	}
	return Accepted{}, false
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
		for msgID, firstAt := range s.done {
			if firstAt < before {
				delete(s.done, msgID)
			}
		}
		if len(s.pending)+len(s.done) == 0 {
			delete(ib.sources, src)
		}
	}
}

// Pending calls visit once per message still collecting votes, in no
// particular order, with the number of senders that voted (for tests and
// metrics).
func (ib *Inbox) Pending(visit func(src Key, kind Kind, votes int)) {
	for src, s := range ib.sources {
		for _, e := range s.pending {
			visit(src, e.kind, len(e.votes))
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
