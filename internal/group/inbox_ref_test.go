package group

import (
	"bytes"
	"maps"
	"slices"
	"time"

	"atum/internal/crypto"
	"atum/internal/ids"
)

// refInbox is the Inbox this package shipped before the two-level layout,
// verbatim apart from the ref prefix on its names: the reference model
// TestInboxMatchesReference drives the shipped Inbox against. It hashes every
// full copy before anything else and keeps one heap entry, three maps and a
// second index per logical message. It had no Votes and no Voters; the models
// of them are the methods at the end of this file, and for Voters each entry
// also lists its voters in the order they voted.
//
// Three things in it are changed, not added. It used to report the kind of
// whichever copy opened the entry and count votes by digest alone, so one
// member racing a copy under another kind chose the kind a message was
// accepted under: a vote is now the pair refVote, here as in Inbox. And its
// per-source cap counted accepted entries with the rest, so a source that sent
// maxEntriesPerKey messages within the prune horizon was refused every later
// one: the cap now counts the entries that are not accepted, and accepting
// past maxEntriesPerKey accepted entries first forgets the older half of them
// by first-copy time (remember) — the eviction rule. And one sender could fill
// that cap alone: an entry now records the sender whose copy opened it, and a
// sender with maxOpenPerSender of a source's entries not accepted opens no more.
//
// One thing is added: the lending rule (lend, borrow and Supply below). An
// entry opened by a copy whose MsgID is its payload digest is shared: one
// whose majority voted that digest and that holds no payload for it takes the
// one another source's shared entry of the same MsgID holds, or else is
// starved, and a payload stored or supplied later for that MsgID completes the
// first starved entry, in the order they were opened, that it lets accept. A
// shared entry, accepted or settled, leaves no done record: it is deleted, and
// the owner turns later copies away.
type refInbox struct {
	lookup  func(Key) (Composition, bool)
	entries map[refEntryKey]*refEntryState
	byKey   map[Key]map[crypto.Digest]bool // src → msgIDs with live entries
	evicted int                            // accepted entries the eviction rule forgot
	charged int                            // copies refused because their sender hit maxOpenPerSender
	opened  int                            // entries ever opened: their order
	lent    int                            // acceptances on another source's or supplied bytes
}

type refEntryKey struct {
	src   Key
	msgID crypto.Digest
}

type refEntryState struct {
	votes    map[ids.NodeID]refVote
	voters   []ids.NodeID // the keys of votes in the order they were cast
	payloads map[crypto.Digest][]byte
	attach   map[ids.NodeID][]byte
	accepted bool
	firstAt  time.Duration
	opener   ids.NodeID
	seq      int  // the order it was opened in
	shared   bool // opened by a copy whose MsgID is its payload digest
	starved  bool // its last check found its MsgID's digest voted by a majority and no bytes anywhere
}

type refVote struct {
	kind   Kind
	digest crypto.Digest
}

// newRefInbox creates an inbox; lookup resolves known compositions.
func newRefInbox(lookup func(Key) (Composition, bool)) *refInbox {
	return &refInbox{
		lookup:  lookup,
		entries: make(map[refEntryKey]*refEntryState),
		byKey:   make(map[Key]map[crypto.Digest]bool),
	}
}

// Observe records the arrival of one GroupMsg copy from a link-authenticated
// sender. It returns the accepted logical message the first time the
// acceptance threshold is crossed.
func (ib *refInbox) Observe(now time.Duration, from ids.NodeID, msg GroupMsg) (Accepted, bool) {
	if msg.Payload != nil && crypto.Hash(msg.Payload) != msg.PayloadDigest {
		return Accepted{}, false // inconsistent copy; drop the vote entirely
	}
	src := Key{GroupID: msg.SrcGroup, Epoch: msg.SrcEpoch}
	ek := refEntryKey{src: src, msgID: msg.MsgID}
	e, ok := ib.entries[ek]
	if !ok {
		if ib.pendingOf(src) >= maxEntriesPerKey {
			return Accepted{}, false
		}
		if ib.openedBy(src, from) >= maxOpenPerSender {
			ib.charged++
			return Accepted{}, false
		}
		ib.opened++
		e = &refEntryState{
			votes:    make(map[ids.NodeID]refVote),
			payloads: make(map[crypto.Digest][]byte),
			attach:   make(map[ids.NodeID][]byte),
			firstAt:  now,
			opener:   from,
			seq:      ib.opened,
			shared:   msg.MsgID == msg.PayloadDigest,
		}
		ib.entries[ek] = e
		set, ok := ib.byKey[src]
		if !ok {
			set = make(map[crypto.Digest]bool)
			ib.byKey[src] = set
		}
		set[msg.MsgID] = true
	}
	if e.accepted {
		return Accepted{}, false
	}
	// First vote per sender wins: a Byzantine sender cannot flip its vote.
	if _, voted := e.votes[from]; !voted {
		e.votes[from] = refVote{kind: msg.Kind, digest: msg.PayloadDigest}
		e.voters = append(e.voters, from)
		if msg.Attach != nil {
			e.attach[from] = msg.Attach
		}
	}
	stored := false
	if msg.Payload != nil {
		if _, have := e.payloads[msg.PayloadDigest]; !have {
			e.payloads[msg.PayloadDigest] = msg.Payload
			stored = true
		}
	}
	acc, ok := ib.check(now, ek, e)
	if !ok && stored && e.shared && msg.PayloadDigest == msg.MsgID {
		return ib.Supply(now, msg.MsgID, msg.Payload) // lend
	}
	return acc, ok
}

// sharedOf returns the shared entries of msgID not accepted, in the order
// they were opened.
func (ib *refInbox) sharedOf(msgID crypto.Digest) []refEntryKey {
	var out []refEntryKey
	for src, msgIDs := range ib.byKey {
		if ek := (refEntryKey{src: src, msgID: msgID}); msgIDs[msgID] && ib.entries[ek].shared && !ib.entries[ek].accepted {
			out = append(out, ek)
		}
	}
	slices.SortFunc(out, func(a, b refEntryKey) int { return ib.entries[a].seq - ib.entries[b].seq })
	return out
}

// borrow returns the payload another source's shared entry of msgID holds for
// it, or nil.
func (ib *refInbox) borrow(ek refEntryKey) []byte {
	for _, other := range ib.sharedOf(ek.msgID) {
		if p, have := ib.entries[other].payloads[ek.msgID]; have && other != ek {
			return p
		}
	}
	return nil
}

// Supply is the model of Inbox.Supply: the payload completes the first
// starved entry of its digest that it lets accept, and stays in none other.
func (ib *refInbox) Supply(now time.Duration, digest crypto.Digest, payload []byte) (Accepted, bool) {
	for _, ek := range ib.sharedOf(digest) {
		if e := ib.entries[ek]; e.starved {
			e.payloads[digest] = payload
			if acc, ok := ib.check(now, ek, e); ok {
				ib.lent++
				return acc, true
			}
			delete(e.payloads, digest)
		}
	}
	return Accepted{}, false
}

// SettleAll is the model of Inbox.SettleAll.
func (ib *refInbox) SettleAll(msgID crypto.Digest) {
	for _, ek := range ib.sharedOf(msgID) {
		ib.remember(ek, ib.entries[ek])
	}
}

// Starved is the model of Inbox.Starved, with each voter set sorted.
func (ib *refInbox) Starved() map[crypto.Digest][]ids.NodeID {
	out := map[crypto.Digest][]ids.NodeID{}
	for ek, e := range ib.entries {
		comp, known := ib.lookup(ek.src)
		if e.accepted || !e.starved || !known {
			continue
		}
		voters := out[ek.msgID]
		for voter, v := range e.votes {
			if v.digest == ek.msgID && comp.Contains(voter) && !slices.Contains(voters, voter) {
				voters = append(voters, voter)
			}
		}
		slices.Sort(voters)
		out[ek.msgID] = voters
	}
	return out
}

// check evaluates the acceptance rule for one entry.
func (ib *refInbox) check(now time.Duration, ek refEntryKey, e *refEntryState) (Accepted, bool) {
	comp, known := ib.lookup(ek.src)
	if !known {
		return Accepted{}, false
	}
	counts := make(map[refVote]int)
	for voter, v := range e.votes {
		if comp.Contains(voter) {
			counts[v]++
		}
	}
	for v, c := range counts {
		if c < comp.Majority() {
			continue
		}
		payload, have := e.payloads[v.digest]
		if !have && e.shared && v.digest == ek.msgID && !e.starved {
			if payload = ib.borrow(ek); payload != nil {
				e.payloads[v.digest], have = payload, true
				ib.lent++
			} else {
				e.starved = true
			}
		}
		if !have {
			continue // wait for a full copy (a correct majority sender will provide one)
		}
		attachments := make(map[ids.NodeID][]byte)
		for voter, vv := range e.votes {
			if vv == v && comp.Contains(voter) {
				if a, ok := e.attach[voter]; ok {
					attachments[voter] = a
				}
			}
		}
		// Release memory: the accepted flag alone suppresses stragglers
		// until the entry is pruned.
		ib.remember(ek, e)
		return Accepted{Src: ek.src, Kind: v.kind, MsgID: ek.msgID,
			Payload: payload, Attachments: attachments, At: now}, true
	}
	return Accepted{}, false
}

// FlushKey re-evaluates buffered entries for a source composition that just
// became known, returning all newly accepted messages.
func (ib *refInbox) FlushKey(now time.Duration, src Key) []Accepted {
	// Sorted, not map order: callers act on the result in sequence
	// (proposals, forwards, RNG draws), and runs of one seed must replay.
	msgIDs := slices.SortedFunc(maps.Keys(ib.byKey[src]), func(a, b crypto.Digest) int {
		return bytes.Compare(a[:], b[:])
	})
	var out []Accepted
	for _, msgID := range msgIDs {
		ek := refEntryKey{src: src, msgID: msgID}
		e, ok := ib.entries[ek]
		if !ok || e.accepted {
			continue
		}
		if acc, ok := ib.check(now, ek, e); ok {
			out = append(out, acc)
		}
	}
	return out
}

// Prune drops entries first observed before the deadline. Accepted entries
// are retained until pruned, which suppresses duplicate deliveries from
// stragglers in the meantime.
func (ib *refInbox) Prune(before time.Duration) {
	for ek, e := range ib.entries {
		if e.firstAt < before {
			delete(ib.entries, ek)
			if set, ok := ib.byKey[ek.src]; ok {
				delete(set, ek.msgID)
				if len(set) == 0 {
					delete(ib.byKey, ek.src)
				}
			}
		}
	}
}

// Len returns the number of live entries (for tests and metrics).
func (ib *refInbox) Len() int { return len(ib.entries) }

// pendingOf counts src's entries that are not accepted.
func (ib *refInbox) pendingOf(src Key) int {
	n := 0
	for msgID := range ib.byKey[src] {
		if !ib.entries[refEntryKey{src: src, msgID: msgID}].accepted {
			n++
		}
	}
	return n
}

// openedBy counts src's entries that are not accepted and that from opened.
func (ib *refInbox) openedBy(src Key, from ids.NodeID) int {
	n := 0
	for msgID := range ib.byKey[src] {
		if e := ib.entries[refEntryKey{src: src, msgID: msgID}]; !e.accepted && e.opener == from {
			n++
		}
	}
	return n
}

// remember marks e, the entry of ek, accepted. When its source already holds
// maxEntriesPerKey accepted entries it first forgets the older half of them by
// first-copy time — those first seen no later than the median — the eviction
// rule. A shared entry is deleted instead: the lending rule keeps no record.
func (ib *refInbox) remember(ek refEntryKey, e *refEntryState) {
	src := ek.src
	if e.shared {
		delete(ib.entries, ek)
		delete(ib.byKey[src], ek.msgID)
		return
	}
	var times []time.Duration
	for msgID := range ib.byKey[src] {
		if x := ib.entries[refEntryKey{src: src, msgID: msgID}]; x.accepted {
			times = append(times, x.firstAt)
		}
	}
	if len(times) >= maxEntriesPerKey {
		slices.Sort(times)
		cut := times[len(times)/2-1]
		for msgID := range ib.byKey[src] {
			old := refEntryKey{src: src, msgID: msgID}
			if x := ib.entries[old]; x.accepted && x.firstAt <= cut {
				delete(ib.entries, old)
				delete(ib.byKey[src], msgID)
				ib.evicted++
			}
		}
	}
	e.accepted = true
	e.votes, e.voters, e.payloads, e.attach = nil, nil, nil, nil
}

// Votes is the model of Inbox.Votes: the members of src whose vote on a
// message not yet accepted or settled is (kind, digest).
func (ib *refInbox) Votes(src Composition, kind Kind, msgID, digest crypto.Digest) int {
	e, ok := ib.entries[refEntryKey{src: src.Key(), msgID: msgID}]
	if !ok || e.accepted {
		return 0
	}
	count := 0
	for voter, v := range e.votes {
		if v == (refVote{kind: kind, digest: digest}) && src.Contains(voter) {
			count++
		}
	}
	return count
}

// Voters is the model of Inbox.Voters: the votes naming msgID as their digest
// on its shared entries not accepted or settled, entries in the order they
// were opened and votes in the order they were cast.
func (ib *refInbox) Voters(msgID crypto.Digest, visit func(src Key, from ids.NodeID, kind Kind)) {
	for _, ek := range ib.sharedOf(msgID) {
		e := ib.entries[ek]
		for _, voter := range e.voters {
			if v := e.votes[voter]; v.digest == msgID {
				visit(ek.src, voter, v.kind)
			}
		}
	}
}
