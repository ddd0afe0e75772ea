package group

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"atum/internal/crypto"
	"atum/internal/ids"
	"atum/internal/wire"
)

func comp(gid ids.GroupID, epoch uint64, members ...uint64) Composition {
	c := Composition{GroupID: gid, Epoch: epoch}
	for _, m := range members {
		c.Members = append(c.Members, ids.Identity{ID: ids.NodeID(m), Addr: fmt.Sprintf("h:%d", m), PubKey: []byte{byte(m)}})
	}
	ids.SortIdentities(c.Members)
	return c
}

func TestCompositionBasics(t *testing.T) {
	c := comp(5, 2, 1, 2, 3, 4)
	if c.N() != 4 || c.Majority() != 3 {
		t.Errorf("N=%d Majority=%d, want 4 and 3", c.N(), c.Majority())
	}
	if !c.Contains(3) || c.Contains(9) {
		t.Error("Contains wrong")
	}
	if c.Index(2) != 1 {
		t.Errorf("Index(2) = %d, want 1", c.Index(2))
	}
	if c.IsZero() {
		t.Error("non-zero composition reported zero")
	}
	if !(Composition{}).IsZero() {
		t.Error("zero composition not reported zero")
	}
}

func TestCompositionDigestCanonical(t *testing.T) {
	a := comp(1, 1, 3, 1, 2)
	b := comp(1, 1, 2, 3, 1)
	if a.Digest() != b.Digest() {
		t.Error("digest must not depend on member insertion order")
	}
	c := comp(1, 2, 1, 2, 3)
	if a.Digest() == c.Digest() {
		t.Error("digest must depend on epoch")
	}
	if !a.Equal(b) {
		t.Error("Equal should hold for same members")
	}
}

func TestCompositionWireRoundTrip(t *testing.T) {
	a := comp(7, 3, 10, 20, 30)
	bytes := encodeComp(a)
	var b Composition
	decodeComp(bytes, &b)
	if !a.Equal(b) {
		t.Fatalf("round trip mismatch: %+v vs %+v", a, b)
	}
}

// TestCompositionMemberCountBound: a member count over the bound is an error,
// not the end of the composition — the 24-byte body "GroupID 5 · Epoch 9 ·
// count 2^40" used to decode cleanly as a composition without members. The
// bound itself still passes.
func TestCompositionMemberCountBound(t *testing.T) {
	body := func(count uint64) *wire.Decoder {
		var e wire.Encoder
		e.Uint64(5)
		e.Uint64(9)
		e.Uint64(count)
		return wire.NewDecoder(e.Bytes())
	}
	var c Composition
	d := body(1 << 40)
	c.Wire(d.Codec())
	if err := d.Finish(); err == nil {
		t.Errorf("a count of 2^40 decoded to %+v", c)
	}
	d = body(maxMembers + 1)
	c.Wire(d.Codec())
	if err := d.Finish(); err == nil {
		t.Errorf("a count one over the bound decoded to %+v", c)
	}
	d = body(0)
	c.Wire(d.Codec())
	if err := d.Finish(); err != nil || c.Members == nil || len(c.Members) != 0 {
		t.Errorf("a count of zero: %+v, err %v; want empty, non-nil members", c, err)
	}
}

func TestCompositionCloneIsDeep(t *testing.T) {
	a := comp(1, 1, 1, 2)
	b := a.Clone()
	b.Members[0].PubKey[0] = 99
	if a.Members[0].PubKey[0] == 99 {
		t.Error("Clone did not deep-copy")
	}
}

func TestInboxAcceptsAtMajority(t *testing.T) {
	src := comp(1, 1, 1, 2, 3, 4, 5)
	known := map[Key]Composition{src.Key(): src}
	ib := NewInbox(func(k Key) (Composition, bool) { c, ok := known[k]; return c, ok })

	payload := []byte("hello")
	mk := func(full bool) GroupMsg {
		m := GroupMsg{SrcGroup: 1, SrcEpoch: 1, Kind: 2,
			MsgID: crypto.Hash([]byte("id")), PayloadDigest: crypto.Hash(payload)}
		if full {
			m.Payload = payload
		}
		return m
	}
	if _, ok := ib.Observe(0, 1, mk(true)); ok {
		t.Fatal("accepted after 1 vote")
	}
	if _, ok := ib.Observe(0, 2, mk(false)); ok {
		t.Fatal("accepted after 2 votes")
	}
	acc, ok := ib.Observe(time.Second, 3, mk(false))
	if !ok {
		t.Fatal("not accepted at majority")
	}
	if string(acc.Payload) != "hello" || acc.Kind != 2 {
		t.Errorf("accepted = %+v", acc)
	}
	// Further copies must not re-accept.
	if _, ok := ib.Observe(2*time.Second, 4, mk(true)); ok {
		t.Error("duplicate acceptance")
	}
}

func TestInboxWaitsForFullPayload(t *testing.T) {
	src := comp(1, 1, 1, 2, 3)
	ib := NewInbox(func(k Key) (Composition, bool) { return src, k == src.Key() })
	payload := []byte("p")
	digestOnly := GroupMsg{SrcGroup: 1, SrcEpoch: 1, MsgID: crypto.Hash([]byte("x")), PayloadDigest: crypto.Hash(payload)}
	if _, ok := ib.Observe(0, 1, digestOnly); ok {
		t.Fatal("accepted without payload")
	}
	if _, ok := ib.Observe(0, 2, digestOnly); ok {
		t.Fatal("accepted without payload at majority votes")
	}
	full := digestOnly
	full.Payload = payload
	acc, ok := ib.Observe(0, 3, full)
	if !ok || string(acc.Payload) != "p" {
		t.Fatal("full payload arrival should complete acceptance")
	}
}

func TestInboxNonMemberVotesIgnored(t *testing.T) {
	src := comp(1, 1, 1, 2, 3)
	ib := NewInbox(func(k Key) (Composition, bool) { return src, k == src.Key() })
	payload := []byte("p")
	m := GroupMsg{SrcGroup: 1, SrcEpoch: 1, MsgID: crypto.Hash([]byte("x")),
		PayloadDigest: crypto.Hash(payload), Payload: payload}
	if _, ok := ib.Observe(0, 77, m); ok {
		t.Fatal("outsider vote accepted")
	}
	if _, ok := ib.Observe(0, 78, m); ok {
		t.Fatal("outsider votes accepted")
	}
	if _, ok := ib.Observe(0, 1, m); ok {
		t.Fatal("1 member + outsiders accepted")
	}
	if _, ok := ib.Observe(0, 2, m); !ok {
		t.Fatal("2 members (majority of 3) should accept")
	}
}

func TestInboxByzantineCannotFlipVote(t *testing.T) {
	src := comp(1, 1, 1, 2, 3)
	ib := NewInbox(func(k Key) (Composition, bool) { return src, k == src.Key() })
	good := []byte("good")
	evil := []byte("evil")
	msgID := crypto.Hash([]byte("x"))
	// Byzantine member 1 votes evil first, then tries to also vote good.
	ib.Observe(0, 1, GroupMsg{SrcGroup: 1, SrcEpoch: 1, MsgID: msgID, PayloadDigest: crypto.Hash(evil), Payload: evil})
	ib.Observe(0, 1, GroupMsg{SrcGroup: 1, SrcEpoch: 1, MsgID: msgID, PayloadDigest: crypto.Hash(good), Payload: good})
	// One correct vote: good has 1 valid vote (member 2), evil has 1 (member 1).
	if _, ok := ib.Observe(0, 2, GroupMsg{SrcGroup: 1, SrcEpoch: 1, MsgID: msgID, PayloadDigest: crypto.Hash(good), Payload: good}); ok {
		t.Fatal("accepted with one correct vote")
	}
	acc, ok := ib.Observe(0, 3, GroupMsg{SrcGroup: 1, SrcEpoch: 1, MsgID: msgID, PayloadDigest: crypto.Hash(good), Payload: good})
	if !ok || string(acc.Payload) != "good" {
		t.Fatal("majority of correct votes should accept the good payload")
	}
}

func TestInboxCorruptPayloadDropped(t *testing.T) {
	src := comp(1, 1, 1, 2, 3)
	ib := NewInbox(func(k Key) (Composition, bool) { return src, k == src.Key() })
	m := GroupMsg{SrcGroup: 1, SrcEpoch: 1, MsgID: crypto.Hash([]byte("x")),
		PayloadDigest: crypto.Hash([]byte("claimed")), Payload: []byte("actual")}
	if _, ok := ib.Observe(0, 1, m); ok {
		t.Fatal("corrupt copy accepted")
	}
	if ib.Len() != 0 {
		t.Error("corrupt copy should not create entries")
	}
}

func TestInboxUnknownCompositionBuffersAndFlushes(t *testing.T) {
	src := comp(9, 4, 1, 2, 3)
	known := map[Key]Composition{}
	ib := NewInbox(func(k Key) (Composition, bool) { c, ok := known[k]; return c, ok })
	payload := []byte("later")
	m := GroupMsg{SrcGroup: 9, SrcEpoch: 4, MsgID: crypto.Hash([]byte("x")),
		PayloadDigest: crypto.Hash(payload), Payload: payload}
	ib.Observe(0, 1, m)
	ib.Observe(0, 2, m)
	if got := ib.FlushKey(0, src.Key()); len(got) != 0 {
		t.Fatal("flush before composition known should yield nothing")
	}
	known[src.Key()] = src
	got := ib.FlushKey(time.Second, src.Key())
	if len(got) != 1 || string(got[0].Payload) != "later" {
		t.Fatalf("flush = %v, want the buffered message", got)
	}
}

// TestInboxFlushKeyOrderIsSorted pins the replay property: entries buffered
// under an unknown composition are accepted in MsgID order, not in the order
// a map happens to iterate, so every fresh inbox yields the same sequence.
func TestInboxFlushKeyOrderIsSorted(t *testing.T) {
	src := comp(9, 4, 1, 2, 3)
	var want []crypto.Digest
	for run := 0; run < 20; run++ {
		known := map[Key]Composition{}
		ib := NewInbox(func(k Key) (Composition, bool) { c, ok := known[k]; return c, ok })
		for i := 0; i < 12; i++ {
			payload := []byte(fmt.Sprintf("buffered-%d", i))
			m := GroupMsg{SrcGroup: 9, SrcEpoch: 4, MsgID: crypto.Hash(payload),
				PayloadDigest: crypto.Hash(payload), Payload: payload}
			ib.Observe(0, 1, m)
			ib.Observe(0, 2, m)
		}
		known[src.Key()] = src
		var got []crypto.Digest
		for _, acc := range ib.FlushKey(time.Second, src.Key()) {
			got = append(got, acc.MsgID)
		}
		if len(got) != 12 {
			t.Fatalf("run %d: flushed %d messages, want 12", run, len(got))
		}
		if !slices.IsSortedFunc(got, func(a, b crypto.Digest) int { return bytes.Compare(a[:], b[:]) }) {
			t.Fatalf("run %d: flush order is not sorted by MsgID", run)
		}
		if want == nil {
			want = got
		} else if !slices.Equal(got, want) {
			t.Fatalf("run %d: flush order differs from run 0", run)
		}
	}
}

// TestInboxAcceptedEntryHoldsNoMaps pins what the inbox keeps of a message
// between acceptance and pruning — the time of its first copy in the source's
// done map, no pending entry, no pointer-bearing state — and that this alone
// turns stragglers away, whatever digest they vote.
func TestInboxAcceptedEntryHoldsNoMaps(t *testing.T) {
	src := comp(1, 1, 1, 2, 3, 4, 5)
	ib := NewInbox(func(k Key) (Composition, bool) { return src, k == src.Key() })
	payload := []byte("once")
	m := GroupMsg{SrcGroup: 1, SrcEpoch: 1, MsgID: crypto.Hash([]byte("id")),
		PayloadDigest: crypto.Hash(payload), Payload: payload, Attach: []byte("sig")}
	accepted := 0
	for from := ids.NodeID(1); from <= 3; from++ {
		if _, ok := ib.Observe(time.Duration(from)*time.Millisecond, from, m); ok {
			accepted++
		}
	}
	if accepted != 1 {
		t.Fatalf("accepted %d times at majority, want 1", accepted)
	}
	s := ib.sources[src.Key()]
	if s == nil {
		t.Fatal("source of an accepted message forgotten")
	}
	checkRecord := func(when string) {
		t.Helper()
		if firstAt, ok := s.done[m.MsgID]; !ok || firstAt != time.Millisecond {
			t.Fatalf("%s: done record = %v, %v; want the first copy's time", when, firstAt, ok)
		}
		if len(s.pending) != 0 {
			t.Errorf("%s: an accepted message still holds a pending entry", when)
		}
	}
	checkRecord("after acceptance")
	// The record is a value: nothing in it for the collector to trace.
	if k := reflect.TypeOf(s.done).Elem().Kind(); k != reflect.Int64 {
		t.Errorf("done record kind = %v, want a plain integer", k)
	}

	other := []byte("twice")
	stragglers := []GroupMsg{m, m, m}
	stragglers[1].Payload, stragglers[1].PayloadDigest = other, crypto.Hash(other)
	stragglers[2].Payload = nil // digest-only copy
	for i, sm := range stragglers {
		for _, from := range []ids.NodeID{3, 4, 5} { // a repeat voter and two new ones
			if _, ok := ib.Observe(time.Second, from, sm); ok {
				t.Errorf("straggler %d from %v was accepted again", i, from)
			}
		}
	}
	if got := ib.FlushKey(time.Second, src.Key()); len(got) != 0 {
		t.Errorf("flush re-accepted %d messages", len(got))
	}
	if ib.Len() != 1 {
		t.Errorf("Len = %d after stragglers, want 1", ib.Len())
	}
	checkRecord("after stragglers")
}

func TestInboxPrune(t *testing.T) {
	src := comp(1, 1, 1, 2, 3)
	ib := NewInbox(func(k Key) (Composition, bool) { return src, k == src.Key() })
	m := GroupMsg{SrcGroup: 1, SrcEpoch: 1, MsgID: crypto.Hash([]byte("x")),
		PayloadDigest: crypto.Hash([]byte("p")), Payload: []byte("p")}
	ib.Observe(time.Second, 1, m)
	if ib.Len() != 1 {
		t.Fatal("entry not created")
	}
	ib.Prune(500 * time.Millisecond)
	if ib.Len() != 1 {
		t.Fatal("entry pruned too early")
	}
	ib.Prune(2 * time.Second)
	if ib.Len() != 0 {
		t.Fatal("entry not pruned")
	}
}

func TestInboxFloodBounded(t *testing.T) {
	src := comp(1, 1, 1, 2, 3)
	ib := NewInbox(func(k Key) (Composition, bool) { return src, k == src.Key() })
	for i := 0; i < 3*maxEntriesPerKey; i++ {
		m := GroupMsg{SrcGroup: 1, SrcEpoch: 1,
			MsgID:         crypto.Hash([]byte(fmt.Sprintf("flood-%d", i))),
			PayloadDigest: crypto.Hash(nil)}
		ib.Observe(0, 1, m)
	}
	if ib.Len() > maxEntriesPerKey {
		t.Errorf("inbox grew to %d entries, cap is %d", ib.Len(), maxEntriesPerKey)
	}
}

// helpers for wire round trip

func encodeComp(c Composition) []byte { return wire.Encode(c.Wire) }

func decodeComp(b []byte, c *Composition) { c.Wire(wire.NewDecoder(b).Codec()) }
