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
// second index per logical message. It had no Settle and no Votes; the models
// of both are the methods at the end of this file.
//
// One thing in it is changed, not added: it used to report the kind of
// whichever copy opened the entry and count votes by digest alone, so one
// member racing a copy under another kind chose the kind a message was
// accepted under. A vote is now the pair refVote, here as in Inbox.
type refInbox struct {
	lookup  func(Key) (Composition, bool)
	entries map[refEntryKey]*refEntryState
	byKey   map[Key]map[crypto.Digest]bool // src → msgIDs with live entries
}

type refEntryKey struct {
	src   Key
	msgID crypto.Digest
}

type refEntryState struct {
	votes    map[ids.NodeID]refVote
	payloads map[crypto.Digest][]byte
	attach   map[ids.NodeID][]byte
	accepted bool
	firstAt  time.Duration
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
		if len(ib.byKey[src]) >= maxEntriesPerKey {
			return Accepted{}, false
		}
		e = &refEntryState{
			votes:    make(map[ids.NodeID]refVote),
			payloads: make(map[crypto.Digest][]byte),
			attach:   make(map[ids.NodeID][]byte),
			firstAt:  now,
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
		if msg.Attach != nil {
			e.attach[from] = msg.Attach
		}
	}
	if msg.Payload != nil {
		if _, have := e.payloads[msg.PayloadDigest]; !have {
			e.payloads[msg.PayloadDigest] = msg.Payload
		}
	}
	return ib.check(now, ek, e)
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
		e.accepted = true
		// Release memory: the accepted flag alone suppresses stragglers
		// until the entry is pruned.
		e.votes, e.payloads, e.attach = nil, nil, nil
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

// Settle is the model of Inbox.Settle, in the old inbox's terms: the entry
// forgets what it collected and turns later copies away, as an accepted one
// does. An entry that does not exist yet is created the way Observe creates
// one — first seen now, refused at the per-source cap.
func (ib *refInbox) Settle(now time.Duration, src Key, msgID crypto.Digest) {
	ek := refEntryKey{src: src, msgID: msgID}
	e, ok := ib.entries[ek]
	if !ok {
		if len(ib.byKey[src]) >= maxEntriesPerKey {
			return
		}
		e = &refEntryState{firstAt: now}
		ib.entries[ek] = e
		if ib.byKey[src] == nil {
			ib.byKey[src] = make(map[crypto.Digest]bool)
		}
		ib.byKey[src][msgID] = true
	}
	e.accepted = true
	e.votes, e.payloads, e.attach = nil, nil, nil
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
