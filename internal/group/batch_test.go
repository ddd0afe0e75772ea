package group

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"atum/internal/crypto"
	"atum/internal/ids"
	"atum/internal/wire"
)

// encodeFrame is one frame of items from a sender that carries every payload
// its rules give it (full: a majority member that relays to the member the
// frame is for) or none of them.
func encodeFrame(items []BatchItem, full bool) []byte {
	frame, _ := encodeBatchFrame(items, &CopyRule{Full: full, Relay: full})
	return frame
}

// decodeFrame is UnpackBatch over a bare frame: the items a walk of it visits,
// collected.
func decodeFrame(frame []byte) ([]GroupMsg, error) { return UnpackBatch(GroupMsg{Payload: frame}) }

// visitFrame is EachInBatch over a bare frame: the items it visits, in order,
// and its error.
func visitFrame(frame []byte) (visited []GroupMsg, err error) {
	err = EachInBatch(GroupMsg{Payload: frame}, func(im GroupMsg) { visited = append(visited, im) })
	return visited, err
}

func batchItems(payloads ...string) []BatchItem {
	items := make([]BatchItem, 0, len(payloads))
	for i, p := range payloads {
		items = append(items, BatchItem{
			Kind:    Kind(1),
			MsgID:   crypto.HashUint64(crypto.Hash([]byte("item")), uint64(i)),
			Payload: []byte(p),
		})
	}
	return items
}

// derivedItems builds raw-style items: kind 16, MsgID = payload digest,
// DerivedID set.
func derivedItems(payloads ...string) []BatchItem {
	items := make([]BatchItem, 0, len(payloads))
	for _, p := range payloads {
		items = append(items, BatchItem{Kind: 16, MsgID: crypto.Hash([]byte(p)), Payload: []byte(p), DerivedID: true})
	}
	return items
}

// mixedFormItems is what core's gossip rules put in one carrier: items whose
// payload this sender attaches next to items it only votes the digest of
// (Payload nil, Digest set), over two kinds so that runs break on kind and on
// form.
func mixedFormItems() []BatchItem {
	items := batchItems("full-0", "digest-1", "digest-2", "full-3", "full-4", "digest-5")
	for i := range items {
		if i >= 4 {
			items[i].Kind = 2
		}
		if strings.HasPrefix(string(items[i].Payload), "digest") {
			items[i].Digest, items[i].Payload = crypto.Hash(items[i].Payload), nil
		}
	}
	return items
}

func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex fixture: %v", err)
	}
	return b
}

// The two MsgIDs batchItems assigns to its first two items, as they appear
// on the wire.
const (
	item0MsgIDHex = "76102b69c43fd4b0beabd4087ca5e56e34140a96d79122d24589f0d2f24ddb74"
	item1MsgIDHex = "ee495bcec3f940b2f5c31df521404128964c79bca3f3ab0008e6a9d8d5ec95d3"
)

// Frames of batchItems("alpha", "beta") with full payloads as the three
// deleted writers produced them, committed as bytes: what a peer from before
// this frame puts inside a carrier. v1 was a flat item list opening with its
// big-endian count; v2 had per-item bitmaps and payload form bytes; v3 said
// full or digest-only once, in a frame-wide flags byte.
const (
	goldenV1FrameHex = "00000002" +
		"01" + item0MsgIDHex + "01" + "00000005" + "616c706861" +
		"01" + item1MsgIDHex + "01" + "00000004" + "62657461"
	goldenV2FrameHex = "02" + "00000002" + "03" + "00" + "01" + "00000002" +
		item0MsgIDHex + "00" + "00000005" + "616c706861" +
		item1MsgIDHex + "00" + "00000004" + "62657461"
	goldenV3FrameHex = "03" + "01" + "00000002" + "01" + "00000002" +
		item0MsgIDHex + "00000005" + "616c706861" +
		item1MsgIDHex + "00000004" + "62657461"
)

// TestBatchFrameGoldenBytes pins the wire layout byte for byte (docs/WIRE.md
// "Layer 1b") in both directions: the encoder emits exactly these bytes and
// the decoder reads them back to the items. Against frame 0x03 the version
// byte is 0x04 and the flags byte has left the frame header for every run
// header, as the form byte after the kind (compare goldenV3FrameHex with the
// first case: "03 01 00000002 01 00000002" became "04 00000002 01 01
// 00000002"); items are unchanged.
func TestBatchFrameGoldenBytes(t *testing.T) {
	alpha, beta := crypto.Hash([]byte("alpha")), crypto.Hash([]byte("beta"))
	halfFull := batchItems("alpha", "beta")
	halfFull[1].Digest, halfFull[1].Payload = beta, nil
	cases := []struct {
		name  string
		items []BatchItem
		full  bool
		want  string
	}{
		{"full", batchItems("alpha", "beta"), true,
			"04" + "00000002" + // version, count
				"01" + "01" + "00000002" + // run: kind 1, form full, × 2
				item0MsgIDHex + "00000005" + "616c706861" +
				item1MsgIDHex + "00000004" + "62657461"},
		{"digest-only", batchItems("alpha", "beta"), false,
			"04" + "00000002" +
				"01" + "00" + "00000002" +
				item0MsgIDHex + hex.EncodeToString(alpha[:]) +
				item1MsgIDHex + hex.EncodeToString(beta[:])},
		{"derived", derivedItems("raw"), true,
			"04" + "00000001" +
				"10" + "03" + "00000001" + // form: full | derived — no MsgID follows
				"00000003" + "726177"},
		{"mixed forms", halfFull, true,
			"04" + "00000002" +
				"01" + "01" + "00000001" + // one kind, two runs: the form changed
				item0MsgIDHex + "00000005" + "616c706861" +
				"01" + "00" + "00000001" +
				item1MsgIDHex + hex.EncodeToString(beta[:])},
	}
	for _, tc := range cases {
		want := mustHex(t, tc.want)
		if got := encodeFrame(tc.items, tc.full); !bytes.Equal(got, want) {
			t.Errorf("%s: encoded\n %x\nwant\n %x", tc.name, got, want)
		}
		got, err := decodeFrame(want)
		if err != nil {
			t.Fatalf("%s: decode golden: %v", tc.name, err)
		}
		checkDecoded(t, tc.name, got, tc.items, tc.full)
	}
}

// TestCopyRuleTable is CopyRule's table, row by row: for each sender rule —
// Full, Relay, and whether Holds names the member a holder — and each sort of
// item, whether the payload rides and whether it counts as withheld. Each row
// is checked on a copy of one item (a plain message) and of two (a carrier),
// down to the frame's bytes.
func TestCopyRuleTable(t *testing.T) {
	rows := []struct {
		full, relay, held bool
		item              string // "ordinary", "relay" or "nil" (built without its payload)
		rides, withheld   bool
	}{
		{false, false, false, "ordinary", false, false},
		{false, false, true, "ordinary", false, false},
		{false, true, false, "ordinary", false, false},
		{false, true, true, "ordinary", false, false},
		{true, false, false, "ordinary", true, false},
		{true, false, true, "ordinary", true, false},
		{true, true, false, "ordinary", true, false},
		{true, true, true, "ordinary", true, false},
		{false, false, false, "relay", false, false},
		{false, false, true, "relay", false, false},
		{false, true, false, "relay", true, false},
		{false, true, true, "relay", false, true},
		{true, false, false, "relay", false, false},
		{true, false, true, "relay", false, false},
		{true, true, false, "relay", true, false},
		{true, true, true, "relay", false, true},
		{false, false, false, "nil", false, false},
		{false, false, true, "nil", false, false},
		{false, true, false, "nil", false, false},
		{false, true, true, "nil", false, false},
		{true, false, false, "nil", false, false},
		{true, false, true, "nil", false, false},
		{true, true, false, "nil", false, false},
		{true, true, true, "nil", false, false},
	}
	dst := Key{GroupID: 2, Epoch: 7}
	const to = ids.NodeID(21)
	// build returns an item of the sort named, and its payload's digest. A
	// relayed item is derived and leaves Digest unset: its MsgID is the digest.
	build := func(sort, tag string) (BatchItem, crypto.Digest) {
		body := []byte(sort + "-body-" + tag)
		d := crypto.Hash(body)
		switch sort {
		case "relay":
			return BatchItem{Kind: 2, MsgID: d, Payload: body, Relay: true, DerivedID: true}, d
		case "nil":
			return BatchItem{Kind: 3, MsgID: crypto.Hash([]byte("id-" + tag)), Digest: d}, d
		}
		return BatchItem{Kind: 1, MsgID: crypto.Hash([]byte("id-" + tag)), Payload: body}, d
	}
	hdr := GroupMsg{SrcGroup: 1, SrcEpoch: 3, DstGroup: dst.GroupID, DstEpoch: dst.Epoch, Attach: []byte("share")}
	for _, row := range rows {
		name := fmt.Sprintf("full=%v relay=%v held=%v %s", row.full, row.relay, row.held, row.item)
		a, da := build(row.item, "a")
		b, db := build(row.item, "b")
		rule := CopyRule{Full: row.full, Relay: row.relay, Dst: dst, To: to,
			Holds: func(k Key, m ids.NodeID, d crypto.Digest) bool {
				return row.held && k == dst && m == to && (d == da || d == db)
			}}
		if got := rule.Carries(&a); got != row.rides {
			t.Errorf("%s: Carries = %v, want %v", name, got, row.rides)
		}

		msg, withheld := Copy(hdr, 99, []BatchItem{a}, rule)
		want := hdr
		want.Kind, want.MsgID, want.PayloadDigest = a.Kind, a.MsgID, da
		if row.rides {
			want.Payload = a.Payload
		}
		if !reflect.DeepEqual(msg, want) || withheld != b2i(row.withheld) {
			t.Errorf("%s, one item: copy %+v withheld %d, want %+v withheld %d", name, msg, withheld, want, b2i(row.withheld))
		}

		msg, withheld = Copy(hdr, 99, []BatchItem{a, b}, rule)
		form, frame := byte(0), ""
		if row.rides {
			form |= formFull
		}
		if a.DerivedID {
			form |= formDerived
		}
		for _, it := range []struct {
			item   BatchItem
			digest crypto.Digest
		}{{a, da}, {b, db}} {
			if !it.item.DerivedID {
				frame += hex.EncodeToString(it.item.MsgID[:])
			}
			if row.rides {
				frame += fmt.Sprintf("%08x", len(it.item.Payload)) + hex.EncodeToString(it.item.Payload)
			} else {
				frame += hex.EncodeToString(it.digest[:])
			}
		}
		want = hdr
		want.Kind, want.Payload = 99, mustHex(t, fmt.Sprintf("04"+"00000002"+"%02x"+"%02x"+"00000002", a.Kind, form)+frame)
		if !reflect.DeepEqual(msg, want) || withheld != 2*b2i(row.withheld) {
			t.Errorf("%s, two items: carrier\n %x withheld %d, want\n %x withheld %d", name, msg.Payload, withheld, want.Payload, 2*b2i(row.withheld))
		}
	}
}

// b2i is 1 for true.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// checkDecoded compares a decoded frame with the items it was encoded from by
// a sender that may (full) or may not attach payloads: same items in order,
// and a payload exactly where the sender attaches and the item has one.
func checkDecoded(t *testing.T, name string, got []GroupMsg, items []BatchItem, full bool) {
	t.Helper()
	if len(got) != len(items) {
		t.Fatalf("%s: decoded %d items, want %d", name, len(got), len(items))
	}
	for i, it := range got {
		src := items[i]
		if it.Kind != src.Kind || it.MsgID != src.MsgID || it.PayloadDigest != src.payloadDigest() {
			t.Errorf("%s: item %d header mismatch", name, i)
		}
		want := full && src.Payload != nil
		if want != (it.Payload != nil) || (want && !bytes.Equal(it.Payload, src.Payload)) {
			t.Errorf("%s: item %d payload = %q, built with %q", name, i, it.Payload, src.Payload)
		}
	}
}

// TestBatchFrameMixedFormsRoundTrip: a carrier holds full and digest-only
// items side by side, in order, each decoded in the form it was built in — and
// from a sender outside the payload majority all of them digest-only.
func TestBatchFrameMixedFormsRoundTrip(t *testing.T) {
	items := mixedFormItems()
	for _, full := range []bool{true, false} {
		got, err := decodeFrame(encodeFrame(items, full))
		if err != nil {
			t.Fatalf("full=%v decode: %v", full, err)
		}
		checkDecoded(t, fmt.Sprintf("full=%v", full), got, items, full)
	}
	// full-0 | digest-1 digest-2 | full-3 | (kind 2) full-4 | digest-5
	frame := encodeFrame(items, true)
	want := 5 + 5*6 + len(items)*crypto.DigestSize + 3*(4+len("full-0")) + 3*crypto.DigestSize
	if len(frame) != want {
		t.Errorf("mixed-form frame is %dB, want %dB (five runs)", len(frame), want)
	}
}

func TestBatchFrameRoundTripFull(t *testing.T) {
	items := batchItems("alpha", "", "gamma-gamma")
	frame := encodeFrame(items, true)
	got, err := decodeFrame(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(items) {
		t.Fatalf("items = %d, want %d", len(got), len(items))
	}
	for i, it := range got {
		if it.Kind != items[i].Kind || it.MsgID != items[i].MsgID {
			t.Errorf("item %d header mismatch", i)
		}
		if it.Payload == nil || !bytes.Equal(it.Payload, items[i].Payload) {
			t.Errorf("item %d payload = %q, want %q", i, it.Payload, items[i].Payload)
		}
		if it.PayloadDigest != crypto.Hash(items[i].Payload) {
			t.Errorf("item %d digest not derived from payload", i)
		}
	}
}

func TestBatchFrameRoundTripDigestOnly(t *testing.T) {
	items := batchItems("alpha", "beta")
	frame := encodeFrame(items, false)
	got, err := decodeFrame(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i, it := range got {
		if it.Payload != nil {
			t.Errorf("digest-only item %d carries a payload", i)
		}
		if it.PayloadDigest != crypto.Hash(items[i].Payload) {
			t.Errorf("item %d digest mismatch", i)
		}
		if it.MsgID != items[i].MsgID {
			t.Errorf("item %d MsgID mismatch", i)
		}
	}
}

// mixedKindItems interleaves kinds so the frame holds several runs, with
// repeated kinds collapsing into one.
func mixedKindItems() []BatchItem {
	var items []BatchItem
	for i, k := range []Kind{3, 3, 3, 7, 1, 1, 9} {
		items = append(items, BatchItem{
			Kind:    k,
			MsgID:   crypto.HashUint64(crypto.Hash([]byte("mixed")), uint64(i)),
			Payload: []byte(fmt.Sprintf("payload-%d", i)),
		})
	}
	return items
}

// TestBatchFrameV2MixedKindsRoundTrip exercises the run-length kind groups.
func TestBatchFrameV2MixedKindsRoundTrip(t *testing.T) {
	items := mixedKindItems()
	for _, full := range []bool{true, false} {
		frame := encodeFrame(items, full)
		got, err := decodeFrame(frame)
		if err != nil {
			t.Fatalf("full=%v decode: %v", full, err)
		}
		if len(got) != len(items) {
			t.Fatalf("full=%v decoded %d items, want %d", full, len(got), len(items))
		}
		for i, it := range got {
			if it.Kind != items[i].Kind {
				t.Errorf("full=%v item %d kind = %d, want %d", full, i, it.Kind, items[i].Kind)
			}
			if it.MsgID != items[i].MsgID {
				t.Errorf("full=%v item %d MsgID mismatch", full, i)
			}
		}
	}
	// A single-kind frame spends one run header, however many items follow.
	uniform := batchItems(make([]string, 64)...)
	want := 5 + 6 + len(uniform)*(crypto.DigestSize+4)
	if got := len(encodeFrame(uniform, true)); got != want {
		t.Errorf("uniform-kind frame is %dB, want %dB (one run header)", got, want)
	}
}

// TestBatchFrameV2DerivedIDDropsMsgID pins the raw-item compact form: a run of
// items whose MsgID is the payload digest omits the 32-byte MsgIDs and the
// receiver re-derives them. An ordinary item among them breaks the run and
// keeps its own MsgID.
func TestBatchFrameV2DerivedIDDropsMsgID(t *testing.T) {
	var payloads []string
	for i := 0; i < 8; i++ {
		payloads = append(payloads, fmt.Sprintf("raw-chunk-%d", i))
	}
	derived := derivedItems(payloads...)
	plain := derivedItems(payloads...)
	for i := range plain {
		plain[i].DerivedID = false
	}
	fp := encodeFrame(plain, true)
	fd := encodeFrame(derived, true)
	if want := len(plain) * crypto.DigestSize; len(fp)-len(fd) != want {
		t.Errorf("derived frame saves %d bytes, want %d (one MsgID per item)", len(fp)-len(fd), want)
	}
	got, err := decodeFrame(fd)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i, it := range got {
		if it.MsgID != derived[i].MsgID {
			t.Errorf("item %d derived MsgID = %x, want %x", i, it.MsgID[:4], derived[i].MsgID[:4])
		}
		if !bytes.Equal(it.Payload, derived[i].Payload) {
			t.Errorf("item %d payload mismatch", i)
		}
	}

	mixed := derivedItems(payloads...)
	mixed[3] = BatchItem{Kind: 16, MsgID: crypto.Hash([]byte("agreed-elsewhere")), Payload: []byte("ordinary")}
	for _, full := range []bool{true, false} {
		fm := encodeFrame(mixed, full)
		allPlain := derivedItems(payloads...)
		allPlain[3] = mixed[3]
		for i := range allPlain {
			allPlain[i].DerivedID = false
		}
		// Seven MsgIDs saved, two more run headers spent.
		if saved, want := len(encodeFrame(allPlain, full))-len(fm), 7*crypto.DigestSize-2*6; saved != want {
			t.Errorf("full=%v: mixed batch saves %d bytes, want %d", full, saved, want)
		}
		got, err := decodeFrame(fm)
		if err != nil {
			t.Fatalf("full=%v decode mixed: %v", full, err)
		}
		for i, it := range got {
			if it.MsgID != mixed[i].MsgID {
				t.Errorf("full=%v mixed item %d MsgID = %x, want %x", full, i, it.MsgID[:4], mixed[i].MsgID[:4])
			}
		}
	}
}

// TestBatchFrameV2LiteralPayloadsAliasFrame pins the zero-copy decode path:
// every full payload — repeated and near-identical siblings included — is a
// sub-slice of the frame, not a copy.
func TestBatchFrameV2LiteralPayloadsAliasFrame(t *testing.T) {
	body := string(bytes.Repeat([]byte("stream-data."), 24))
	items := batchItems("alias-check-payload", "seq=1|"+body, "seq=2|"+body, "seq=2|"+body)
	frame := encodeFrame(items, true)
	got, err := decodeFrame(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	// Mutating the whole frame must show through every payload view.
	for i := range frame {
		frame[i] ^= 0xFF
	}
	for i, it := range got {
		want := []byte(items[i].Payload)
		for j := range want {
			want[j] ^= 0xFF
		}
		if !bytes.Equal(it.Payload, want) {
			t.Errorf("item %d payload does not alias the frame", i)
		}
	}
}

// TestBatchFrameRejectsGarbage feeds the decoder every class of hostile
// frame. Nothing in a frame expands on decode, so these checks plus the wire
// decoder's own length limits are the whole receive-side bound.
func TestBatchFrameRejectsGarbage(t *testing.T) {
	// frame writes a header and lets the case append the runs.
	frame := func(version byte, count int, runs func(e *wire.Encoder)) []byte {
		var e wire.Encoder
		e.Byte(version)
		e.ListLen(count)
		if runs != nil {
			runs(&e)
		}
		return e.Bytes()
	}
	// run writes one run header.
	run := func(e *wire.Encoder, kind, form byte, length int) {
		e.Byte(kind)
		e.Byte(form)
		e.ListLen(length)
	}
	valid := encodeFrame(batchItems("x"), true)
	withForm := func(form byte) []byte {
		b := append([]byte(nil), valid...)
		b[6] = form // version, count, kind, then the form
		return b
	}
	hostile := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"enveloped payload (0x00 first byte)", []byte{0x00, 0x01, 0x01, 0xAA}},
		{"v1 golden", mustHex(t, goldenV1FrameHex)},
		{"v2 golden", mustHex(t, goldenV2FrameHex)},
		{"v3 golden", mustHex(t, goldenV3FrameHex)},
		{"version 0x01 over a valid body", append([]byte{0x01}, valid[1:]...)},
		{"version 0x05 over a valid body", append([]byte{0x05}, valid[1:]...)},
		{"version 0xFF alone", []byte{0xFF}},
		{"unknown form bit", withForm(formFull | 0x04)},
		{"high form bit", withForm(formFull | 0x80)},
		{"count over MaxBatchItems", frame(batchFrameVersion, MaxBatchItems+1, nil)},
		{"absurd count", []byte{batchFrameVersion, 0xFF, 0xFF, 0xFF, 0xFF}},
		{"count without runs", frame(batchFrameVersion, 2, nil)},
		{"zero-length run", frame(batchFrameVersion, 1, func(e *wire.Encoder) {
			run(e, 5, formFull, 0)
			run(e, 5, formFull, 1)
			e.Bytes32(crypto.Digest{})
			e.VarBytes([]byte("x"))
		})},
		{"run overflowing the count", frame(batchFrameVersion, 1, func(e *wire.Encoder) {
			run(e, 5, 0, 2)
			for i := 0; i < 4; i++ {
				e.Bytes32(crypto.Digest{})
			}
		})},
		{"second run overflowing the count", frame(batchFrameVersion, 2, func(e *wire.Encoder) {
			for i := 0; i < 2; i++ {
				run(e, 5, 0, 2)
				for j := 0; j < 4; j++ {
					e.Bytes32(crypto.Digest{})
				}
			}
		})},
		{"payload length past the frame", frame(batchFrameVersion, 1, func(e *wire.Encoder) {
			run(e, 5, formFull|formDerived, 1)
			e.Uint32(1 << 20)
			e.Byte('x')
		})},
		{"trailing byte", append(append([]byte(nil), valid...), 0xAA)},
		{"trailing run after the count is met", append(append([]byte(nil), valid...), valid[5:]...)},
	}
	for _, tc := range hostile {
		visited, err := visitFrame(tc.b)
		if err == nil {
			t.Errorf("%s: decode(%x) accepted a hostile frame", tc.name, tc.b)
			continue
		}
		if len(visited) != 0 {
			t.Errorf("%s: a refused frame visited %d items, want none", tc.name, len(visited))
		}
		// Every first byte but the current version is the same diagnosis,
		// however short the frame: atumbench tells carriers from 0x00-led
		// enveloped payloads by it.
		if len(tc.b) > 0 && tc.b[0] != batchFrameVersion && !strings.Contains(err.Error(), "unsupported batch frame version") {
			t.Errorf("%s: error %q does not name an unsupported version", tc.name, err)
		}
	}
}

// TestBatchFrameRejectsEveryTruncation cuts valid frames — full, digest-only,
// derived and mixed forms, several runs — after every byte: each field's
// truncation must be an error that visited no item, never a short item list or
// a panic.
func TestBatchFrameRejectsEveryTruncation(t *testing.T) {
	frames := [][]byte{
		encodeFrame(mixedKindItems(), true),
		encodeFrame(mixedKindItems(), false),
		encodeFrame(derivedItems("raw-one", "", "raw-three"), true),
		encodeFrame(mixedFormItems(), true),
	}
	for fi, frame := range frames {
		if _, err := decodeFrame(frame); err != nil {
			t.Fatalf("frame %d: intact frame rejected: %v", fi, err)
		}
		for cut := 0; cut < len(frame); cut++ {
			visited, err := visitFrame(frame[:cut])
			if err == nil {
				t.Errorf("frame %d truncated to %d of %d bytes was accepted", fi, cut, len(frame))
			}
			if len(visited) != 0 {
				t.Errorf("frame %d truncated to %d of %d bytes visited %d items, want none", fi, cut, len(frame), len(visited))
			}
		}
	}
}

// TestBatchWireOverheadIsUpperBound checks the constant internal/egress
// budgets carrier bytes with: no frame may exceed the sum of its items' bodies
// — the payload of a full item, the 32-byte digest of a digest-only one — plus
// BatchWireOverhead per item, whatever the mix of kinds and forms, and the
// single non-derived full item — the worst case — reaches the bound exactly.
func TestBatchWireOverheadIsUpperBound(t *testing.T) {
	one := batchItems("lonely")
	if got := len(encodeFrame(one, true)) - len(one[0].Payload); got != BatchWireOverhead {
		t.Errorf("single-item frame overhead = %d, want exactly BatchWireOverhead = %d", got, BatchWireOverhead)
	}
	if got := len(encodeFrame(one, false)) - crypto.DigestSize; got >= BatchWireOverhead {
		t.Errorf("single digest-only item overhead = %d, want below BatchWireOverhead = %d", got, BatchWireOverhead)
	}
	if BatchWireOverhead != 47 {
		t.Errorf("BatchWireOverhead = %d, docs/WIRE.md says 47", BatchWireOverhead)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(96)
		allDerived := rng.Intn(4) == 0
		full := trial%3 != 0
		items := make([]BatchItem, n)
		budget := 0
		for i := range items {
			p := make([]byte, rng.Intn(300))
			rng.Read(p)
			items[i] = BatchItem{
				Kind:      Kind(1 + rng.Intn(3)), // few kinds: runs of every length, down to 1
				MsgID:     crypto.Hash(p),
				Payload:   p,
				DerivedID: allDerived || rng.Intn(3) == 0,
			}
			if rng.Intn(3) == 0 { // the builder votes this one's digest only
				items[i].Digest, items[i].Payload = crypto.Hash(p), nil
			}
			body := crypto.DigestSize
			if full && items[i].Payload != nil {
				body = len(p)
			}
			budget += body + BatchWireOverhead
		}
		if got := len(encodeFrame(items, full)); got > budget {
			t.Fatalf("trial %d: %d-item frame (full=%v) is %dB, over the %dB budget", trial, n, full, got, budget)
		}
	}
}

// TestEgressAccountingBoundsFrames holds the constant to the way
// internal/egress uses it: an item is charged len(Payload)+BatchWireOverhead
// when it is enqueued, before anyone knows which form it leaves in. That sum
// bounds the frame as long as every item sent digest-only is either derived —
// 32 bytes, as every payload-less item the engine enqueues is: gossip votes —
// or has a payload of at least 28 bytes to be charged for, as every enveloped
// engine payload sent by a member outside the majority has. The exception is
// pinned too: a non-derived item without a payload costs 64 bytes and framing
// against a charge of 47.
func TestEgressAccountingBoundsFrames(t *testing.T) {
	charge := func(items []BatchItem) int {
		sum := 0
		for _, it := range items {
			sum += len(it.Payload) + BatchWireOverhead
		}
		return sum
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		items := make([]BatchItem, 1+rng.Intn(96))
		for i := range items {
			p := make([]byte, 28+rng.Intn(300))
			rng.Read(p)
			digest := crypto.Hash(p)
			switch rng.Intn(4) {
			case 0: // a gossip vote with the bytes
				items[i] = BatchItem{Kind: 2, MsgID: digest, Digest: digest, Payload: p, DerivedID: true}
			case 1: // a gossip vote without
				items[i] = BatchItem{Kind: 2, MsgID: digest, Digest: digest, DerivedID: true}
			case 2: // a derived item whose payload may be tiny or empty (raw)
				p = p[:rng.Intn(4)]
				items[i] = BatchItem{Kind: 3, MsgID: crypto.Hash(p), Payload: p, DerivedID: true}
			default: // any other kind: its own MsgID, always built with its payload
				items[i] = BatchItem{Kind: Kind(4 + rng.Intn(2)), MsgID: crypto.HashUint64(digest, 1), Payload: p}
			}
		}
		for _, full := range []bool{true, false} {
			if got, budget := len(encodeFrame(items, full)), charge(items); got > budget {
				t.Fatalf("trial %d: %d-item frame (full=%v) is %dB, egress charged %dB", trial, len(items), full, got, budget)
			}
		}
	}

	bare := []BatchItem{{Kind: 4, MsgID: crypto.Hash([]byte("id")), Digest: crypto.Hash([]byte("body"))}}
	if got, want := len(encodeFrame(bare, true))-charge(bare), 2*crypto.DigestSize+5+6-BatchWireOverhead; got != want || got <= 0 {
		t.Errorf("a non-derived payload-less item exceeds its charge by %dB, want %dB: the documented exception moved", got, want)
	}
}

// TestBatchVotesConvergeAcrossDifferentGroupings is the core safety property
// of send-side batching: members that grouped the same logical messages
// differently — or did not batch at all — still drive the receiver's inbox
// to acceptance, because votes tally under the inner MsgIDs.
func TestBatchVotesConvergeAcrossDifferentGroupings(t *testing.T) {
	src := comp(1, 1, 1, 2, 3)
	dst := comp(2, 1, 10)
	items := batchItems("msg-one", "msg-two")
	known := map[Key]Composition{src.Key(): src}
	ib := NewInbox(func(k Key) (Composition, bool) { c, ok := known[k]; return c, ok })

	observe := func(from ids.NodeID, msg GroupMsg) []Accepted {
		var accepted []Accepted
		if msg.Kind == Kind(99) {
			inner, err := UnpackBatch(msg)
			if err != nil {
				t.Fatalf("unpack: %v", err)
			}
			for _, im := range inner {
				if acc, ok := ib.Observe(time.Second, from, im); ok {
					accepted = append(accepted, acc)
				}
			}
			return accepted
		}
		if acc, ok := ib.Observe(time.Second, from, msg); ok {
			accepted = append(accepted, acc)
		}
		return accepted
	}

	// vote observes member from's copy of items, under carrier MsgID id.
	vote := func(from ids.NodeID, id crypto.Digest, items ...BatchItem) []Accepted {
		msg, _ := Copy(GroupMsg{SrcGroup: src.GroupID, SrcEpoch: src.Epoch, DstGroup: dst.GroupID, DstEpoch: dst.Epoch, MsgID: id},
			Kind(99), items, CopyRule{Full: src.Index(from) < src.Majority()})
		return observe(from, msg)
	}

	var all []Accepted
	// Member 1 batches both messages together.
	all = append(all, vote(1, crypto.Digest{}, items...)...)
	// Member 2 sends them unbatched (as if its flush window cut between them).
	for _, it := range items {
		all = append(all, vote(2, crypto.Digest{}, it)...)
	}

	if len(all) != len(items) {
		t.Fatalf("accepted %d logical messages, want %d (one per inner MsgID)", len(all), len(items))
	}
	seen := map[crypto.Digest]bool{}
	for _, acc := range all {
		seen[acc.MsgID] = true
	}
	for _, it := range items {
		if !seen[it.MsgID] {
			t.Errorf("logical message %x never accepted", it.MsgID[:4])
		}
	}

	// The same property across carrier identities: two batchers wrapping the
	// same logical messages under different batchIDs still vote them to
	// acceptance — the carrier takes no part in majority matching.
	// (batchItems derives MsgIDs from the index alone; these need fresh ones
	// or the inbox dedups them against the messages accepted above.)
	items2 := batchItems("mixed-carrier-one", "mixed-carrier-two")
	for i := range items2 {
		items2[i].MsgID = crypto.Hash(items2[i].Payload)
	}
	var all2 []Accepted
	all2 = append(all2, vote(1, crypto.Hash([]byte("b2-member1")), items2...)...)
	all2 = append(all2, vote(2, crypto.Hash([]byte("b2-member2")), items2...)...)
	if len(all2) != len(items2) {
		t.Fatalf("mixed-carrier batching accepted %d logical messages, want %d", len(all2), len(items2))
	}
}

func FuzzDecodeBatchFrame(f *testing.F) {
	f.Add(encodeFrame(batchItems("a", "bb", "ccc"), true))
	f.Add(encodeFrame(batchItems("x"), false))
	f.Add(encodeFrame(mixedKindItems(), true))
	f.Add(encodeFrame(mixedKindItems(), false))
	f.Add(encodeFrame(derivedItems("prefix-AAAA-suffix", "", "prefix-CCCC-suffix"), true))
	f.Add([]byte{})
	f.Add([]byte{batchFrameVersion, 0x00, 0x00, 0x10, 0x00, 0x01, formFull})
	// Frames from the deleted writers, and an enveloped payload: the
	// rejection path.
	f.Add(mustHex(f, goldenV1FrameHex))
	f.Add(mustHex(f, goldenV2FrameHex))
	f.Add([]byte{0x00, 0x01, 0x01})
	f.Add(mustHex(f, goldenV3FrameHex))
	f.Add(encodeFrame(mixedFormItems(), true))
	f.Add(encodeFrame(mixedFormItems(), false))
	mixedDerived := derivedItems("raw-a", "raw-b", "raw-c")
	mixedDerived[1].Digest, mixedDerived[1].Payload = mixedDerived[1].MsgID, nil
	f.Add(encodeFrame(mixedDerived, true))
	f.Fuzz(func(t *testing.T, data []byte) {
		items, err := decodeFrame(data)
		visited, verr := visitFrame(data)
		if (err == nil) != (verr == nil) {
			t.Fatalf("UnpackBatch error %v, EachInBatch error %v", err, verr)
		}
		if err != nil {
			if len(visited) != 0 {
				t.Fatalf("a refused frame visited %d items", len(visited))
			}
			return
		}
		// The collector and the visitor are one walk: the same items, in order.
		if len(visited) != len(items) {
			t.Fatalf("visited %d items, UnpackBatch collected %d", len(visited), len(items))
		}
		for i := range items {
			if !reflect.DeepEqual(visited[i], items[i]) {
				t.Fatalf("item %d: visited %+v, collected %+v", i, visited[i], items[i])
			}
		}
		if data[0] != batchFrameVersion {
			t.Fatalf("decoded a frame of version %#x", data[0])
		}
		if len(items) > MaxBatchItems {
			t.Fatalf("decoded %d items, limit %d", len(items), MaxBatchItems)
		}
		// Whatever decodes must be self-consistent: full payloads hash to
		// their digest and take no more room than the frame that held them
		// (digest-only items lack the payload, so only the decoded structure
		// is checkable).
		total := 0
		for _, it := range items {
			if it.Payload != nil && crypto.Hash(it.Payload) != it.PayloadDigest {
				t.Fatal("full item digest not derived from payload")
			}
			if it.hashed != (it.Payload != nil) {
				t.Fatalf("item hashed=%v with payload %v", it.hashed, it.Payload != nil)
			}
			total += len(it.Payload)
		}
		if total > len(data) {
			t.Fatalf("decoded %d payload bytes from a %d-byte frame", total, len(data))
		}
	})
}

// benchFrameItems builds the 64-item mixed-kind frame the encode/decode
// benchmark and the allocation ceilings run against: gossip-like items with
// distinct payloads, raw chunks, and a few churn-style control items.
func benchFrameItems() []BatchItem {
	var items []BatchItem
	gossipBody := bytes.Repeat([]byte("g"), 120)
	for i := 0; i < 16; i++ {
		p := append([]byte(fmt.Sprintf("gossip-%02d|", i)), gossipBody...)
		items = append(items, BatchItem{Kind: 1, MsgID: crypto.HashUint64(crypto.Hash([]byte("g")), uint64(i)), Payload: p})
	}
	rawBody := bytes.Repeat([]byte("chunk-data."), 24)
	for i := 0; i < 40; i++ {
		p := append([]byte(fmt.Sprintf("seq=%08d|", i)), rawBody...)
		items = append(items, BatchItem{Kind: 16, MsgID: crypto.Hash(p), Payload: p, DerivedID: true})
	}
	for i := 0; i < 8; i++ {
		p := []byte(fmt.Sprintf("nbr-update-%02d", i))
		items = append(items, BatchItem{Kind: 5, MsgID: crypto.HashUint64(crypto.Hash([]byte("n")), uint64(i)), Payload: p})
	}
	return items
}

// BenchmarkBatchEncodeDecode measures the frame codec on a 64-item
// mixed-kind batch: allocs/op and bytes/op per direction, plus the encoded
// frame size as a custom metric. decode is the walk the engine makes of a
// carrier (EachInBatch); refused is the same frame with one trailing byte,
// which the walk refuses before it hashes any item.
func BenchmarkBatchEncodeDecode(b *testing.B) {
	items := benchFrameItems()
	frame := encodeFrame(items, true)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(len(frame)), "frame-bytes")
		for i := 0; i < b.N; i++ {
			_ = encodeFrame(items, true)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(len(frame)), "frame-bytes")
		carrier := GroupMsg{Payload: frame}
		for i := 0; i < b.N; i++ {
			if err := EachInBatch(carrier, func(GroupMsg) {}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("refused", func(b *testing.B) {
		b.ReportAllocs()
		carrier := GroupMsg{Payload: append(append([]byte(nil), frame...), 0xAA)}
		b.ReportMetric(float64(len(carrier.Payload)), "frame-bytes")
		for i := 0; i < b.N; i++ {
			if err := EachInBatch(carrier, func(GroupMsg) {}); err == nil {
				b.Fatal("a frame with a trailing byte was accepted")
			}
		}
	})
}
