package group

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"atum/internal/crypto"
	"atum/internal/ids"
)

// The inbox's behaviour is written down once, as refInbox (inbox_ref_test.go),
// and the shipped layout is checked against it: same schedule in, same
// acceptances out. The two differ in six named places. A corrupt copy of a
// payload already held counts as a vote: such a copy is translated for the
// model, so the comparison also states exactly what that rule means. The model
// had no Votes: refInbox.Votes says what it is in its terms. The model let the
// first copy choose the kind a message is accepted under: it was changed to
// tally the kind with the digest (refVote), which
// TestInboxFirstCopyCannotChooseKind pins on its own. And the model's
// per-source cap counted accepted messages, which made it a delivery ceiling:
// it was given the eviction rule (refInbox.remember), which
// TestInboxDoneCapForgetsOlderHalf pins on its own. And one sender could fill
// the model's cap alone: it was given the per-sender charge (refInbox.openedBy),
// which TestNonMemberCannotFillPendingCap pins on its own. And the model could
// not move bytes between sources: it was given the lending rule
// (refInbox.borrow, refInbox.Supply), under which a shared message, accepted
// or settled, leaves no done record (refInbox.remember), and which
// TestInboxLendsAcrossSources pins on its own.

// diffWorld is one seeded schedule's universe: a few source compositions
// (known, learned later, never learned), a few logical messages per source,
// and for each message a good payload, a rival payload and corrupt copies.
type diffWorld struct {
	t     *testing.T
	rng   *rand.Rand
	known map[Key]Composition
	comps []Composition // comps[0] known from the start, [1] learned mid-run, [2] never
	ib    *Inbox
	ref   *refInbox
	now   time.Duration
	msgs  int // distinct MsgIDs drawn per source
	// burstTo is the operation draw below which a step is one source's
	// majority sending one of its own messages: every other flood schedule has
	// messages accepted often enough to fill a done map and run the eviction;
	// the rest fill pending maps and run into the per-sender charge.
	burstTo int
	seed    int64
	steps   int // operations applied so far
	peak    int // largest Len seen

	payloads map[[3]int]diffBytes
}

type diffBytes struct {
	bytes  []byte
	digest crypto.Digest
}

// fatalf fails the test with the one-line repro: the seed and the step.
func (w *diffWorld) fatalf(format string, args ...any) {
	w.t.Helper()
	w.t.Fatalf("seed %d, step %d: %s", w.seed, w.steps, fmt.Sprintf(format, args...))
}

func newDiffWorld(t *testing.T, seed int64, msgs int) *diffWorld {
	w := &diffWorld{t: t, rng: rand.New(rand.NewSource(seed)), known: map[Key]Composition{}, msgs: msgs, seed: seed, burstTo: 15}
	if msgs > maxEntriesPerKey && seed%400 == 199 {
		w.burstTo = 70
	}
	w.payloads = make(map[[3]int]diffBytes)
	w.comps = []Composition{comp(1, 1, 1, 2, 3, 4, 5), comp(2, 7, 11, 12, 13, 14), comp(3, 2, 21, 22, 23)}
	w.known[w.comps[0].Key()] = w.comps[0]
	lookup := func(k Key) (Composition, bool) { c, ok := w.known[k]; return c, ok }
	w.ib, w.ref = NewInbox(lookup), newRefInbox(lookup)
	return w
}

// diffPayload returns variant 0 (good), 1 (rival) or 2 (used as the corrupt
// bytes) of one logical message's payload, and its digest.
func (w *diffWorld) diffPayload(src, msg, variant int) ([]byte, crypto.Digest) {
	k := [3]int{src, msg, variant}
	p, ok := w.payloads[k]
	if !ok {
		p.bytes = []byte(fmt.Sprintf("payload-%d-%d-%d", src, msg, variant))
		p.digest = crypto.Hash(p.bytes)
		w.payloads[k] = p
	}
	return p.bytes, p.digest
}

// diffMsgID is the MsgID of one source's mi-th logical message.
func diffMsgID(si, mi int) crypto.Digest {
	return crypto.HashUint64(crypto.Digest{}, uint64(si)<<32|uint64(mi))
}

// diffShared is the number of shared messages a schedule draws: messages whose
// MsgID is the digest of their good payload, sent under every source alike,
// as core's gossip is. sharedSrc stands for them where a source index is asked.
const (
	diffShared = 2
	sharedSrc  = -1
)

// msgID is the MsgID of one source's mi-th message, or of the mi-th shared
// message.
func (w *diffWorld) msgID(si, mi int) crypto.Digest {
	if si == sharedSrc {
		_, d := w.diffPayload(sharedSrc, mi, 0)
		return d
	}
	return diffMsgID(si, mi)
}

// diffKind is the kind the correct senders of the mi-th message use;
// diffKind(mi+1) is the one a copy racing under another kind names.
func diffKind(mi int) Kind { return Kind(1 + mi%3) }

// sameAccepted compares one result pair. The model predates Accepted.Digest
// and always allocates Attachments, so the digest is checked against the
// payload and a nil attachment map equals an empty one.
func (w *diffWorld) sameAccepted(what string, got, want Accepted, gotOK, wantOK bool) {
	w.t.Helper()
	if gotOK != wantOK {
		w.fatalf("%s: accepted = %v, model says %v", what, gotOK, wantOK)
	}
	if !gotOK {
		return
	}
	if got.Src != want.Src || got.Kind != want.Kind || got.MsgID != want.MsgID || got.At != want.At ||
		!bytes.Equal(got.Payload, want.Payload) {
		w.fatalf("%s: accepted %+v, model %+v", what, got, want)
	}
	if got.Digest != crypto.Hash(got.Payload) {
		w.fatalf("%s: Accepted.Digest is not the payload's digest", what)
	}
	if len(got.Attachments) != len(want.Attachments) {
		w.fatalf("%s: %d attachments, model %d", what, len(got.Attachments), len(want.Attachments))
	}
	for voter, a := range want.Attachments {
		if b, ok := got.Attachments[voter]; !ok || !bytes.Equal(a, b) {
			w.fatalf("%s: attachment of %v = %q, model %q", what, voter, b, a)
		}
	}
}

// observe feeds one copy to both inboxes. A corrupt copy naming a digest
// whose payload the model's pending entry already holds is the intended
// difference: the model is handed the digest-only copy it must equal.
func (w *diffWorld) observe(from ids.NodeID, m GroupMsg) (corruptLater bool) {
	w.t.Helper()
	forModel := m
	if m.Payload != nil && crypto.Hash(m.Payload) != m.PayloadDigest {
		e := w.ref.entries[refEntryKey{src: Key{GroupID: m.SrcGroup, Epoch: m.SrcEpoch}, msgID: m.MsgID}]
		if e != nil && !e.accepted && e.payloads[m.PayloadDigest] != nil {
			forModel.Payload = nil
			corruptLater = true
		}
	}
	got, gotOK := w.ib.Observe(w.now, from, m)
	want, wantOK := w.ref.Observe(w.now, from, forModel)
	w.sameAccepted(fmt.Sprintf("Observe(from %v, msg %x)", from, m.MsgID[:3]), got, want, gotOK, wantOK)
	return corruptLater
}

// step draws and applies one operation, then compares Len.
func (w *diffWorld) step() (corruptLater bool) {
	w.t.Helper()
	w.steps++
	w.now += time.Duration(w.rng.Intn(50)) * time.Millisecond
	switch op := w.rng.Intn(100); {
	case op < 3: // learn the second composition (again, possibly changed) and flush it
		c := w.comps[1]
		if w.rng.Intn(3) == 0 {
			c = comp(2, 7, 11, 12, 13) // the fallback lookup may answer with a neighbouring epoch's members
		}
		w.known[w.comps[1].Key()] = c
		fallthrough
	case op < 8:
		k := w.comps[w.rng.Intn(len(w.comps))].Key()
		got, want := w.ib.FlushKey(w.now, k), w.ref.FlushKey(w.now, k)
		if len(got) != len(want) {
			w.fatalf("FlushKey(%v): %d accepted, model %d", k, len(got), len(want))
		}
		for i := range got {
			w.sameAccepted(fmt.Sprintf("FlushKey(%v)[%d]", k, i), got[i], want[i], true, true)
		}
	case op < 11:
		before := time.Duration(w.rng.Int63n(int64(w.now) + 1))
		if w.msgs > maxEntriesPerKey {
			before /= 8 // a flood schedule prunes only its oldest entries, or it never fills up
		}
		w.ib.Prune(before)
		w.ref.Prune(before)
	case op < w.burstTo: // every member of one source sends one of its own messages, in full
		si := w.rng.Intn(len(w.comps))
		c, mi := w.comps[si], w.rng.Intn(w.msgs)
		payload, digest := w.diffPayload(si, mi, 0)
		m := GroupMsg{SrcGroup: c.GroupID, SrcEpoch: c.Epoch, Kind: diffKind(mi),
			MsgID: w.msgID(si, mi), PayloadDigest: digest, Payload: payload}
		for _, member := range c.Members {
			w.observe(member.ID, m)
		}
	case op < w.burstTo+2: // bytes for a shared message from outside any link: good, rival or for nothing shared
		mi, variant := w.rng.Intn(diffShared+1), w.rng.Intn(3)/2
		payload, digest := w.diffPayload(sharedSrc, mi, variant)
		got, gotOK := w.ib.Supply(w.now, digest, payload)
		want, wantOK := w.ref.Supply(w.now, digest, payload)
		w.sameAccepted(fmt.Sprintf("Supply(shared %d, payload %d)", mi, variant), got, want, gotOK, wantOK)
	case op < w.burstTo+3: // the owner has one shared message from some link
		msgID := w.msgID(sharedSrc, w.rng.Intn(diffShared))
		w.ib.SettleAll(msgID)
		w.ref.SettleAll(msgID)
	default:
		si := w.rng.Intn(len(w.comps))
		c := w.comps[si]
		pi, mi := w.pick(si)
		from := c.Members[w.rng.Intn(c.N())].ID
		if w.rng.Intn(10) == 0 {
			from = ids.NodeID(90 + w.rng.Intn(3)) // not a member of anything
		}
		variant := 0
		if w.rng.Intn(6) == 0 {
			variant = 1 // a Byzantine re-vote or digest flip: the rival payload
		}
		payload, digest := w.diffPayload(pi, mi, variant)
		m := GroupMsg{SrcGroup: c.GroupID, SrcEpoch: c.Epoch, Kind: diffKind(mi),
			MsgID: w.msgID(pi, mi), PayloadDigest: digest}
		if w.rng.Intn(8) == 0 {
			m.Kind = diffKind(mi + 1) // the same message, and maybe the same payload, under another kind
		}
		switch w.rng.Intn(8) {
		case 0, 1, 2, 3:
			m.Payload = payload
		case 4:
			m.Payload, _ = w.diffPayload(pi, mi, 2) // corrupt: does not hash to the digest it names
		}
		if w.rng.Intn(3) == 0 {
			m.Attach = []byte(fmt.Sprintf("sig-%v-%d", from, w.rng.Intn(2)))
		}
		corruptLater = w.observe(from, m)
	}
	if got, want := w.ib.Len(), w.ref.Len(); got != want {
		w.fatalf("Len = %d, model %d", got, want)
	}
	w.peak = max(w.peak, w.ib.Len())
	w.sameVotes()
	if w.msgs <= maxEntriesPerKey || w.steps%64 == 0 { // the model's scan is slow on a flood
		w.sameStarved()
	}
	return corruptLater
}

// pick draws the message of one operation on source si: one of si's own, or,
// one time in four, one of the shared messages — returned as (sharedSrc, mi).
func (w *diffWorld) pick(si int) (int, int) {
	if w.rng.Intn(4) == 0 {
		return sharedSrc, w.rng.Intn(diffShared)
	}
	return si, w.rng.Intn(w.msgs)
}

// sameStarved compares what Starved reports with the model's starved entries.
func (w *diffWorld) sameStarved() {
	w.t.Helper()
	got := map[crypto.Digest][]ids.NodeID{}
	w.ib.Starved(func(msgID crypto.Digest, voters []ids.NodeID) {
		got[msgID] = slices.Sorted(slices.Values(voters))
	})
	if want := w.ref.Starved(); !maps.EqualFunc(got, want, slices.Equal) {
		w.fatalf("Starved = %v, model %v", got, want)
	}
}

// sameVotes compares Votes on one message drawn at random: both payloads under
// both kinds, counted over the source as scheduled and — Votes takes the
// members from its caller — over a composition of the same key with fewer.
func (w *diffWorld) sameVotes() {
	w.t.Helper()
	si := w.rng.Intn(len(w.comps))
	pi, mi := w.pick(si)
	fewer := w.comps[si]
	fewer.Members = fewer.Members[:2]
	for _, src := range []Composition{w.comps[si], fewer} {
		for variant := 0; variant < 2; variant++ {
			_, digest := w.diffPayload(pi, mi, variant)
			for _, kind := range []Kind{diffKind(mi), diffKind(mi + 1)} {
				got, want := w.ib.Votes(src, kind, w.msgID(pi, mi), digest), w.ref.Votes(src, kind, w.msgID(pi, mi), digest)
				if got != want {
					w.fatalf("Votes(%v, kind %d, msg %d, payload %d) = %d, model %d", src.Key(), kind, mi, variant, got, want)
				}
			}
		}
	}
}

// TestInboxMatchesReference drives the shipped Inbox and the reference model
// with seeded random schedules — full, digest-only and attachment-bearing
// votes, outsiders, Byzantine re-votes, digest flips and copies under another
// kind, corrupt copies first and later, a source learned (and re-learned with
// other members) mid-run, one never learned, FlushKey, Prune and a whole
// source's majority at random times — and requires identical (Accepted, ok)
// sequences, Len and Votes throughout. Every two-hundredth schedule draws
// MsgIDs from a space wider than maxEntriesPerKey, to run into the cap on
// pending messages and the per-sender charge or, with messages accepted often,
// into the eviction rule.
func TestInboxMatchesReference(t *testing.T) {
	schedules, corruptLater, evicted, charged, lent := 1200, 0, 0, 0, 0
	if testing.Short() {
		schedules = 200
	}
	for seed := 0; seed < schedules; seed++ {
		msgs, steps := 5, 300
		if seed%200 == 199 {
			msgs, steps = 3*maxEntriesPerKey, 10*maxEntriesPerKey
		}
		w := newDiffWorld(t, int64(seed), msgs)
		for i := 0; i < steps; i++ {
			if w.step() {
				corruptLater++
			}
		}
		if msgs > maxEntriesPerKey && w.peak < 2*maxEntriesPerKey {
			t.Fatalf("seed %d: flood schedule peaked at %d entries over 3 sources: the per-source cap was hardly reached", seed, w.peak)
		}
		evicted += w.ref.evicted
		charged += w.ref.charged
		lent += w.ref.lent
	}
	if lent == 0 {
		t.Error("no schedule accepted a message on another source's or supplied bytes: the lending rule went untested")
	}
	if corruptLater == 0 {
		t.Error("no schedule produced a corrupt copy of a held payload: the named difference went untested")
	}
	if evicted == 0 {
		t.Error("no schedule filled a done map: the eviction rule went untested")
	}
	if charged == 0 && !testing.Short() { // the short run has one flood schedule, which accepts often
		t.Error("no sender reached maxOpenPerSender: the per-sender charge went untested")
	}
}

// TestInboxCorruptLaterCopyCountsAsVote is the one place the shipped Inbox
// differs from the reference model: once an entry holds a verified payload
// for digest D, a later copy naming D is not hashed, so a copy with other
// bytes votes for D like a digest-only copy — and what is delivered is the
// verified payload, never the unverified bytes.
func TestInboxCorruptLaterCopyCountsAsVote(t *testing.T) {
	src := comp(1, 1, 1, 2, 3)
	lookup := func(k Key) (Composition, bool) { return src, k == src.Key() }
	good := []byte("good")
	m := GroupMsg{SrcGroup: 1, SrcEpoch: 1, MsgID: crypto.Hash([]byte("x")),
		PayloadDigest: crypto.Hash(good), Payload: good}
	corrupt := m
	corrupt.Payload = []byte("evil")

	ib, ref := NewInbox(lookup), newRefInbox(lookup)
	ib.Observe(0, 1, m)
	ref.Observe(0, 1, m)
	if _, ok := ref.Observe(0, 2, corrupt); ok {
		t.Fatal("model: a corrupt copy is no vote")
	}
	acc, ok := ib.Observe(0, 2, corrupt)
	if !ok {
		t.Fatal("a copy naming a held digest must count as a vote for it")
	}
	if string(acc.Payload) != "good" || acc.Digest != crypto.Hash(good) {
		t.Fatalf("accepted %q: the unverified bytes must never be delivered", acc.Payload)
	}

	// Arriving first, the same copy is hashed and dropped whole, as in the model.
	ib = NewInbox(lookup)
	if _, ok := ib.Observe(0, 2, corrupt); ok || ib.Len() != 0 {
		t.Fatal("a corrupt first copy must leave no trace")
	}
	ib.Observe(0, 1, m)
	if _, ok := ib.Observe(0, 3, m); !ok {
		t.Fatal("members 1 and 3 are a majority")
	}
}

// TestInboxFirstCopyCannotChooseKind: the kind is part of what is voted. One
// member of a five-member source races a digest-only copy of a message under
// kind 9, with the MsgID and the digest the correct members will use; members
// 1–3 then send it under kind 4. When the first copy's kind stood for the
// entry, the message was accepted under kind 9 — a kind whose handler cannot
// decode it, and the done record turned the correct copies away.
func TestInboxFirstCopyCannotChooseKind(t *testing.T) {
	src := comp(1, 1, 1, 2, 3, 4, 5)
	ib := NewInbox(func(k Key) (Composition, bool) { return src, k == src.Key() })
	payload := []byte("a walk hop")
	m := GroupMsg{SrcGroup: 1, SrcEpoch: 1, Kind: 4, MsgID: crypto.Hash([]byte("predictable")),
		PayloadDigest: crypto.Hash(payload), Payload: payload}
	racer := m
	racer.Kind, racer.Payload = 9, nil
	if _, ok := ib.Observe(0, 5, racer); ok {
		t.Fatal("one vote is no majority")
	}
	for _, from := range []ids.NodeID{1, 2} {
		if acc, ok := ib.Observe(0, from, m); ok {
			t.Fatalf("accepted %+v on two votes for kind 4 and one for kind 9: three of five voted no one thing", acc)
		}
	}
	if got := ib.Votes(src, 4, m.MsgID, m.PayloadDigest); got != 2 {
		t.Errorf("Votes for kind 4 = %d, want 2: the racer's vote is for another kind", got)
	}
	acc, ok := ib.Observe(0, 3, m)
	if !ok || acc.Kind != 4 || string(acc.Payload) != "a walk hop" {
		t.Fatalf("accepted = %v under kind %d, want the kind the majority sent (4)", ok, acc.Kind)
	}
}

// TestInboxSettle walks a control-kind message — its MsgID is not its
// payload digest — through the places it can be when the inbox is done with
// it: accepted, its pending entry released, a done record left under the time
// of its first copy. Whatever arrives afterwards, nothing is accepted again.
func TestInboxSettle(t *testing.T) {
	src := comp(1, 1, 1, 2, 3)
	known := map[Key]Composition{src.Key(): src}
	lookup := func(k Key) (Composition, bool) { c, ok := known[k]; return c, ok }
	payload := []byte("bytes")
	m := GroupMsg{SrcGroup: 1, SrcEpoch: 1, MsgID: crypto.Hash([]byte("m")),
		PayloadDigest: crypto.Hash(payload), Payload: payload}
	accept := func(t *testing.T, ib *Inbox, now time.Duration, m GroupMsg, voters ...ids.NodeID) {
		t.Helper()
		for i, from := range voters {
			if _, ok := ib.Observe(now, from, m); ok != (i == len(voters)-1) {
				t.Fatalf("copy %d of %d from %v: accepted = %v", i+1, len(voters), from, ok)
			}
		}
	}
	allVote := func(t *testing.T, ib *Inbox, now time.Duration, m GroupMsg) {
		t.Helper()
		for _, member := range src.Members {
			if _, ok := ib.Observe(now, member.ID, m); ok {
				t.Fatalf("a copy from %v of a settled message was accepted", member.ID)
			}
		}
	}

	t.Run("settle then copies", func(t *testing.T) {
		ib := NewInbox(lookup)
		accept(t, ib, time.Second, m, 1, 2)
		allVote(t, ib, 2*time.Second, m)
		if s := ib.sources[src.Key()]; ib.Len() != 1 || len(s.pending) != 0 {
			t.Fatalf("Len = %d with %d pending, want the one done record", ib.Len(), len(s.pending))
		}
		ib.Prune(time.Second + 1)
		if ib.Len() != 0 {
			t.Error("a done record must be pruned by the time of its first copy")
		}
	})

	t.Run("copies then settle", func(t *testing.T) {
		ib := NewInbox(lookup)
		ib.Observe(time.Second, 1, m) // one vote and the payload: pending
		accept(t, ib, 5*time.Second, m, 2)
		if s := ib.sources[src.Key()]; len(s.pending) != 0 || len(s.done) != 1 {
			t.Fatalf("%d pending, %d done: the pending entry, its votes and its payload must be released", len(s.pending), len(s.done))
		}
		allVote(t, ib, 6*time.Second, m)
		ib.Prune(2 * time.Second) // first copy at 1 s, accepted at 5 s
		if ib.Len() != 0 {
			t.Error("an accepted message is remembered from its first copy, not from when it was accepted")
		}
	})

	t.Run("after acceptance", func(t *testing.T) {
		ib := NewInbox(lookup)
		accept(t, ib, time.Second, m, 1, 2)
		allVote(t, ib, 5*time.Second, m)
		ib.Prune(2 * time.Second)
		if ib.Len() != 0 {
			t.Error("a straggler of an accepted message must not renew it")
		}
	})

	t.Run("at the per-source cap", func(t *testing.T) {
		ib := NewInbox(lookup)
		held := m
		for i := 0; i < maxEntriesPerKey; i++ {
			held.MsgID = crypto.HashUint64(crypto.Digest{}, uint64(i))
			ib.Observe(time.Second, ids.NodeID(10+i/maxOpenPerSender), held) // non-members, each to its charge
		}
		// The cap bounds what collects votes: a fresh MsgID is refused until an
		// acceptance makes room.
		for _, from := range []ids.NodeID{1, 2} {
			if _, ok := ib.Observe(time.Second, from, m); ok {
				t.Fatal("a message past a full pending map was accepted")
			}
		}
		if s := ib.sources[src.Key()]; len(s.pending) != maxEntriesPerKey || len(s.done) != 0 {
			t.Fatalf("%d pending, %d done, want the full pending map alone", len(s.pending), len(s.done))
		}
		accept(t, ib, time.Second, held, 1, 2) // pending: moves, and makes room
		if s := ib.sources[src.Key()]; len(s.pending) != maxEntriesPerKey-1 || len(s.done) != 1 {
			t.Fatalf("%d pending, %d done, want a pending entry accepted in place", len(s.pending), len(s.done))
		}
		allVote(t, ib, time.Second, held)
		accept(t, ib, time.Second, m, 1, 2)
		allVote(t, ib, time.Second, m)
	})

	t.Run("unknown source", func(t *testing.T) {
		ib := NewInbox(lookup)
		late := comp(9, 4, 1, 2, 3)
		lm := m
		lm.SrcGroup, lm.SrcEpoch = late.GroupID, late.Epoch
		ib.Observe(time.Second, 1, lm)
		ib.Observe(time.Second, 2, lm) // a buffered majority, source not known yet
		known[late.Key()] = late
		if acc := ib.FlushKey(2*time.Second, late.Key()); len(acc) != 1 {
			t.Fatalf("FlushKey accepted %d messages, want the buffered one", len(acc))
		}
		if acc := ib.FlushKey(2*time.Second, late.Key()); len(acc) != 0 {
			t.Fatalf("a second FlushKey accepted %d settled messages", len(acc))
		}
		allVote(t, ib, 2*time.Second, lm)
		if ib.Len() != 1 {
			t.Errorf("Len = %d, want 1", ib.Len())
		}
	})
}

// TestInboxDoneCapForgetsOlderHalf pins the eviction rule: a source that has
// had maxEntriesPerKey messages accepted within the prune horizon is not
// refused its next one. Recording it first forgets the older half of the done
// map by first-copy time; the newer half still turns stragglers away.
func TestInboxDoneCapForgetsOlderHalf(t *testing.T) {
	src := comp(1, 1, 1, 2, 3)
	ib := NewInbox(func(k Key) (Composition, bool) { return src, k == src.Key() })
	id := func(i int) crypto.Digest { return crypto.HashUint64(crypto.Digest{}, uint64(i)) }
	payload := []byte("fresh")
	msg := func(i int) GroupMsg {
		return GroupMsg{SrcGroup: 1, SrcEpoch: 1, MsgID: id(i), PayloadDigest: crypto.Hash(payload), Payload: payload}
	}
	for i := 0; i < maxEntriesPerKey; i++ {
		at := time.Duration(i) * time.Millisecond
		ib.Observe(at, 1, msg(i))
		if _, ok := ib.Observe(at, 2, msg(i)); !ok {
			t.Fatalf("message %d: members 1 and 2 are a majority", i)
		}
	}
	if ib.Len() != maxEntriesPerKey {
		t.Fatalf("Len = %d, want the %d done records", ib.Len(), maxEntriesPerKey)
	}
	fresh := msg(maxEntriesPerKey)
	ib.Observe(time.Hour, 1, fresh)
	if _, ok := ib.Observe(time.Hour, 2, fresh); !ok {
		t.Fatal("a message past a full done map was refused: the cap is a delivery ceiling again")
	}
	if s := ib.sources[src.Key()]; len(s.done) != maxEntriesPerKey/2+1 {
		t.Fatalf("%d done records, want the newer half and the fresh message (%d)", len(s.done), maxEntriesPerKey/2+1)
	}
	old, kept := msg(maxEntriesPerKey/2-1), msg(maxEntriesPerKey/2)
	if _, ok := ib.Observe(time.Hour, 1, kept); ok || ib.Votes(src, 0, kept.MsgID, kept.PayloadDigest) != 0 {
		t.Error("a straggler of the newer half opened an entry")
	}
	if ib.Observe(time.Hour, 1, old); ib.Votes(src, 0, old.MsgID, old.PayloadDigest) != 1 {
		t.Error("a straggler of the forgotten half is not collecting votes anew")
	}
}

// TestNonMemberCannotFillPendingCap: node 99, a member of nothing, opens
// pending entries under a known three-member source with maxEntriesPerKey
// digest-only copies of distinct MsgIDs. It is charged for the ones it opened
// and refused past maxOpenPerSender, so one message from two of the source's
// members — a majority — is still accepted. When any sender could fill the
// source's pending map, the link stayed dead until Prune.
func TestNonMemberCannotFillPendingCap(t *testing.T) {
	src := comp(1, 1, 1, 2, 3)
	ib := NewInbox(func(k Key) (Composition, bool) { return src, k == src.Key() })
	for i := 0; i < maxEntriesPerKey; i++ {
		junk := GroupMsg{SrcGroup: 1, SrcEpoch: 1, MsgID: crypto.HashUint64(crypto.Digest{}, uint64(i)),
			PayloadDigest: crypto.HashUint64(crypto.Digest{1}, uint64(i))}
		ib.Observe(time.Second, 99, junk)
	}
	if s := ib.sources[src.Key()]; len(s.pending) != maxOpenPerSender {
		t.Fatalf("%d pending, want the flooder's charge, maxOpenPerSender (%d)", len(s.pending), maxOpenPerSender)
	}
	payload := []byte("after the flood")
	m := GroupMsg{SrcGroup: 1, SrcEpoch: 1, MsgID: crypto.Hash([]byte("legit")), PayloadDigest: crypto.Hash(payload), Payload: payload}
	ib.Observe(2*time.Second, 2, m)
	if _, ok := ib.Observe(2*time.Second, 3, m); !ok {
		t.Fatal("a majority of the source's members was refused: one non-member filled the pending map")
	}
	// The charge goes with the entries: once Prune drops them, the flooder
	// opens entries again.
	ib.Prune(2 * time.Second)
	junk := GroupMsg{SrcGroup: 1, SrcEpoch: 1, MsgID: crypto.Hash([]byte("after prune")), PayloadDigest: crypto.Hash([]byte("x"))}
	if ib.Observe(3*time.Second, 99, junk); ib.Votes(comp(1, 1, 99), 0, junk.MsgID, junk.PayloadDigest) != 1 {
		t.Fatal("after Prune the flooder is still charged for the entries it opened")
	}
}

// TestInboxLendsAcrossSources pins the lending rule on one message whose MsgID
// is its payload digest, sent under two sources A and B — core's gossip on two
// links. Borrow: B's majority votes it digest-only after A's entry took the
// bytes, and B's entry takes them. Lend: B's majority votes first, B's entry
// is starved and Starved names its voters; A's copy with the bytes then
// completes B's entry. Supply: bytes handed in complete a starved entry, bytes
// of another digest do not. A message whose MsgID is not its digest neither
// lends nor borrows. Whatever ends the starving — acceptance, SettleAll,
// Prune — frees the lending index, and a message of the index leaves no done
// record.
func TestInboxLendsAcrossSources(t *testing.T) {
	A, B := comp(1, 1, 1, 2, 3), comp(2, 1, 4, 5, 6)
	lookup := func(k Key) (Composition, bool) {
		for _, c := range []Composition{A, B} {
			if c.Key() == k {
				return c, true
			}
		}
		return Composition{}, false
	}
	payload := []byte("one broadcast, two links")
	d := crypto.Hash(payload)
	copyOf := func(src Composition, full bool) GroupMsg {
		m := GroupMsg{SrcGroup: src.GroupID, SrcEpoch: src.Epoch, MsgID: d, PayloadDigest: d}
		if full {
			m.Payload = payload
		}
		return m
	}
	starved := func(ib *Inbox) map[crypto.Digest][]ids.NodeID {
		out := map[crypto.Digest][]ids.NodeID{}
		ib.Starved(func(msgID crypto.Digest, voters []ids.NodeID) { out[msgID] = voters })
		return out
	}
	idle := func(what string, ib *Inbox) {
		t.Helper()
		if len(ib.shared) != 0 || ib.starved != 0 {
			t.Errorf("%s: lending index holds %d MsgIDs, %d starved entries, want none", what, len(ib.shared), ib.starved)
		}
	}

	t.Run("borrow", func(t *testing.T) {
		ib := NewInbox(lookup)
		ib.Observe(0, 1, copyOf(A, true))
		ib.Observe(0, 4, copyOf(B, false))
		acc, ok := ib.Observe(0, 5, copyOf(B, false))
		if !ok || acc.Src != B.Key() || !bytes.Equal(acc.Payload, payload) || acc.Digest != d {
			t.Fatalf("B's majority without bytes: accepted %v %+v, want B's message on A's bytes", ok, acc)
		}
		if got := ib.shared[d]; !slices.Equal(got, []Key{A.Key()}) {
			t.Errorf("lending index lists %v, want A's pending entry alone", got)
		}
		ib.SettleAll(d)
		idle("after SettleAll", ib)
		// Neither source keeps a record: B's accepted entry and A's settled one
		// are gone, and turning a later copy away is the owner's (core's
		// delivered index).
		if ib.Len() != 0 {
			t.Errorf("after SettleAll the inbox remembers %d messages, want none", ib.Len())
		}
	})

	t.Run("lend", func(t *testing.T) {
		ib := NewInbox(lookup)
		ib.Observe(0, 4, copyOf(B, false))
		if _, ok := ib.Observe(0, 5, copyOf(B, false)); ok {
			t.Fatal("accepted without any bytes")
		}
		if got := starved(ib); len(got) != 1 || !slices.Equal(got[d], []ids.NodeID{4, 5}) {
			t.Fatalf("Starved = %v, want %x voted by 4 and 5", got, d[:4])
		}
		acc, ok := ib.Observe(time.Second, 1, copyOf(A, true))
		if !ok || acc.Src != B.Key() || !bytes.Equal(acc.Payload, payload) || acc.At != time.Second {
			t.Fatalf("A's copy with the bytes: accepted %v %+v, want B's starved message", ok, acc)
		}
		if len(starved(ib)) != 0 || ib.starved != 0 {
			t.Errorf("still starved after the lend: %v", starved(ib))
		}
		ib.Prune(time.Hour)
		idle("after Prune", ib)
	})

	t.Run("Supply", func(t *testing.T) {
		ib := NewInbox(lookup)
		for _, from := range []ids.NodeID{4, 5} {
			ib.Observe(0, from, copyOf(B, false))
		}
		other := []byte("other bytes")
		if _, ok := ib.Supply(0, crypto.Hash(other), other); ok {
			t.Fatal("bytes of another digest completed the entry")
		}
		if _, ok := ib.Supply(0, d, payload); !ok {
			t.Fatal("the starved entry's own bytes did not complete it")
		}
		idle("after acceptance", ib)
		if _, ok := ib.Supply(0, d, payload); ok {
			t.Error("a second supply accepted again")
		}
	})

	t.Run("starving ends", func(t *testing.T) {
		for _, end := range []string{"SettleAll", "Prune"} {
			ib := NewInbox(lookup)
			for _, c := range []Composition{A, B} {
				for _, m := range c.Members[:2] {
					ib.Observe(0, m.ID, copyOf(c, false))
				}
			}
			if ib.starved != 2 {
				t.Fatalf("%d starved entries, want A's and B's", ib.starved)
			}
			switch end {
			case "SettleAll":
				ib.SettleAll(d)
			case "Prune":
				ib.Prune(time.Second)
			}
			idle(end, ib)
		}
	})

	t.Run("not shared", func(t *testing.T) {
		ib := NewInbox(lookup)
		id := crypto.Hash([]byte("a MsgID of its own"))
		a, b := copyOf(A, true), copyOf(B, false)
		a.MsgID, b.MsgID = id, id
		ib.Observe(0, 1, a)
		ib.Observe(0, 4, b)
		if _, ok := ib.Observe(0, 5, b); ok {
			t.Error("a message whose MsgID is not its digest borrowed another source's bytes")
		}
		idle("unshared entries", ib)
	})
}

// TestInboxStragglerCostsOneProbe pins the two hot cases of Observe. A copy of
// an accepted message allocates nothing and hashes nothing — its payload does
// not match its digest here, and nothing notices. A further digest-only vote
// on a pending entry costs at most the vote slice's growth.
func TestInboxStragglerCostsOneProbe(t *testing.T) {
	members := make([]uint64, 40)
	for i := range members {
		members[i] = uint64(i + 1)
	}
	src := comp(1, 1, members...)
	ib := NewInbox(func(k Key) (Composition, bool) { return src, k == src.Key() })
	payload := bytes.Repeat([]byte{7}, 4096)
	m := GroupMsg{SrcGroup: 1, SrcEpoch: 1, MsgID: crypto.Hash([]byte("id")),
		PayloadDigest: crypto.Hash(payload), Payload: payload}

	from := ids.NodeID(1)
	ib.Observe(0, from, m)
	digestOnly := m
	digestOnly.Payload = nil
	if allocs := testing.AllocsPerRun(15, func() { // 17 votes in all, below the majority of 21
		from++
		if _, ok := ib.Observe(0, from, digestOnly); ok {
			t.Fatal("accepted below majority")
		}
	}); allocs > 1 {
		t.Errorf("a digest-only vote on a pending entry allocates %.1f times, want ≤ 1", allocs)
	}
	for accepted := false; !accepted; {
		from++
		_, accepted = ib.Observe(0, from, digestOnly)
	}

	straggler := m
	straggler.Payload = bytes.Repeat([]byte{8}, 4096) // does not hash to PayloadDigest
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := ib.Observe(time.Second, 40, straggler); ok {
			t.Fatal("accepted twice")
		}
	}); allocs != 0 {
		t.Errorf("a straggler for an accepted message allocates %.1f times, want 0", allocs)
	}
	if ib.Len() != 1 {
		t.Errorf("Len = %d, want 1", ib.Len())
	}
}

// BenchmarkInboxObserve4KiB times one full copy of a message that already has
// a copy in the inbox — pending (payload held, one more vote) and accepted
// (straggler) — at two payload sizes. Neither case reads the payload, so the
// 64 B and 4 KiB rows must agree.
func BenchmarkInboxObserve4KiB(b *testing.B) {
	members := make([]uint64, 24)
	for i := range members {
		members[i] = uint64(i + 1)
	}
	src := comp(1, 1, members...) // majority 13
	lookup := func(k Key) (Composition, bool) { return src, k == src.Key() }
	for _, size := range []int{64, 4096} {
		payload := bytes.Repeat([]byte{7}, size)
		m := GroupMsg{SrcGroup: 1, SrcEpoch: 1, MsgID: crypto.Hash([]byte("id")),
			PayloadDigest: crypto.Hash(payload), Payload: payload}
		b.Run(fmt.Sprintf("pending/%dB", size), func(b *testing.B) {
			ib := NewInbox(lookup)
			ib.Observe(0, 1, m)
			for i := 0; b.Loop(); i++ {
				ib.Observe(0, ids.NodeID(2+i%11), m) // 12 voters at most: never a majority
			}
		})
		b.Run(fmt.Sprintf("accepted/%dB", size), func(b *testing.B) {
			ib := NewInbox(lookup)
			for from := ids.NodeID(1); ib.Len() == 0 || len(ib.sources[src.Key()].done) == 0; from++ {
				ib.Observe(0, from, m)
			}
			for b.Loop() {
				ib.Observe(0, 24, m)
			}
		})
	}
}
