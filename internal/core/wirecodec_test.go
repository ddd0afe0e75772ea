package core

// Coverage for the wire payload envelope (wirecodec.go): per-kind round
// trips, the kind-registry drift check, hostile-input rejection (including
// the legacy gob envelope, which the engine no longer accepts) and fuzz.

import (
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"atum/internal/actor"
	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/overlay"
	"atum/internal/smr"
	"atum/internal/smr/dolev"
	"atum/internal/smr/pbft"
	"atum/internal/wire"
)

// legacyGobEnvelope is a golden sample of the removed gob payload envelope:
// the bytes a standard-library gob encoder with the engine payload types
// registered produced for struct{ V any }{gossipPayload{BcastID: 01…01,
// Origin: 7, Data: "y", Hops: 3}} at the last commit that had one.
var legacyGobEnvelope = mustHex(
	"1e7f0301010b676f62456e76656c6f706501ff80000101010156011000000069" +
		"ff8001206174756d2f696e7465726e616c2f636f72652e676f73736970506179" +
		"6c6f6164ff810301010d676f737369705061796c6f616401ff82000104010742" +
		"63617374494401ff840001064f726967696e010600010444617461010a000104" +
		"486f7073010400000016ff830101010644696765737401ff8400010601400000" +
		"2eff822a01200101010101010101010101010101010101010101010101010101" +
		"010101010101010701017901060000")

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

func wcIdentity(i uint64) ids.Identity {
	return ids.Identity{ID: ids.NodeID(i), Addr: "sim:addr", PubKey: []byte{byte(i), 2, 3, 4}}
}

func wcComp(gid uint64, epoch uint64, n int) group.Composition {
	c := group.Composition{GroupID: ids.GroupID(gid), Epoch: epoch}
	for i := 0; i < n; i++ {
		c.Members = append(c.Members, wcIdentity(uint64(i+1)))
	}
	return c
}

func wcDigest(b byte) crypto.Digest {
	var d crypto.Digest
	for i := range d {
		d[i] = b
	}
	return d
}

func wcChain() []overlay.StepCert {
	return []overlay.StepCert{
		{Next: wcComp(5, 2, 3), Sigs: []overlay.CertSig{{Node: 1, Sig: []byte{9, 9}}, {Node: 2, Sig: []byte{8}}}},
		{Next: wcComp(6, 1, 2), Sigs: []overlay.CertSig{{Node: 3, Sig: []byte{7, 7, 7}}}},
	}
}

// fullPayloadValues returns one fully-populated value per payload kind (all
// list and byte fields non-empty, so round-trip comparison is exact).
func fullPayloadValues() []any {
	snap := stateSnapshot{
		Comp:      wcComp(7, 3, 4),
		NbrsBytes: []byte{1, 2, 3, 4, 5},
		Busy:      true,
		PendingJoins: []pendingJoin{
			{Joiner: wcIdentity(31), Sig: []byte{1, 2}, Expected: true},
		},
		ExpectedJoiners: []expectedJoiner{{WalkID: wcDigest(3), Joiner: wcIdentity(32)}},
		WalkOrigins: []walkOrigin{{
			WalkID: wcDigest(4), Purpose: PurposeShuffle, OriginComp: wcComp(7, 2, 3),
			Joiner: wcIdentity(33), JoinerSig: []byte{5}, Member: wcIdentity(34), ShuffleSeq: 2,
		}},
		PendingExch: []pendingExchange{{
			WalkID: wcDigest(5), OriginComp: wcComp(8, 1, 2),
			Partner: wcIdentity(35), Member: wcIdentity(36),
		}},
		HasShuffle: true,
		Shuffle: shuffleState{
			Epoch: 3, Remaining: []ids.Identity{wcIdentity(37), wcIdentity(38)},
			ActiveWalk: wcDigest(6), ActiveMember: wcIdentity(37),
			ActiveSeq: 1, Completed: 2, Suppressed: 3,
		},
		MergeAttempt: 2,
		WalkSeq:      9,
		AppliedOps:   []crypto.Digest{wcDigest(7), wcDigest(8)},
	}
	return []any{
		gossipPayload{BcastID: wcDigest(1), Origin: 4, Data: []byte("payload"), Hops: 3},
		walkPayload{
			WalkID: wcDigest(2), Purpose: PurposeJoin, StepsLeft: 4,
			Rands: []uint64{11, 22, 33}, Origin: wcComp(3, 2, 3),
			Path:  []group.Key{{GroupID: 3, Epoch: 2}, {GroupID: 4, Epoch: 1}},
			Cycle: 1, NewGroup: wcComp(9, 1, 2),
			Joiner: wcIdentity(20), JoinerSig: []byte{1, 2, 3},
			Member: wcIdentity(21), ShuffleSeq: 5,
		},
		walkAttachment{Chain: wcChain(), StepSig: overlay.CertSig{Node: 2, Sig: []byte{4, 4}}},
		backwardPayload{
			WalkID: wcDigest(3), Path: []group.Key{{GroupID: 5, Epoch: 6}},
			Result: walkResult{
				WalkID: wcDigest(3), Purpose: PurposeShuffle, Target: wcComp(5, 6, 3),
				Accept: true, Partner: wcIdentity(22), Member: wcIdentity(23), ShuffleSeq: 7,
			},
		},
		walkResult{
			WalkID: wcDigest(4), Purpose: PurposeSplitInsert, Target: wcComp(6, 7, 2),
			Accept: true, Partner: wcIdentity(24), Member: wcIdentity(25), ShuffleSeq: 8,
		},
		neighborUpdatePayload{NewComp: wcComp(10, 11, 3)},
		setNeighborPayload{Cycle: 2, Dir: overlay.Succ, Comp: wcComp(11, 1, 2)},
		cycleAssignPayload{Cycle: 1, Pred: wcComp(12, 2, 2), Succ: wcComp(13, 3, 2)},
		exchangeConfirmPayload{
			WalkID: wcDigest(5), Partner: wcIdentity(26), Member: wcIdentity(27),
			OriginOld: wcComp(14, 4, 3),
		},
		exchangeCancelPayload{WalkID: wcDigest(6)},
		mergeRequestPayload{From: wcComp(15, 5, 2)},
		mergeAcceptPayload{Absorber: wcComp(16, 6, 3)},
		mergeRejectPayload{Busy: true},
		snapshotPayload{State: snap},
		joinRedirectPayload{WalkID: wcDigest(7), Target: wcComp(17, 7, 2), Chain: wcChain()},
		bcastOp{BcastID: wcDigest(8), Origin: 5, Data: []byte("bcast")},
		joinOp{Joiner: wcIdentity(28), Nonce: 42, Sig: []byte{6, 6}},
		renounceOp{Node: wcIdentity(29), Target: 18, Nonce: 43, Sig: []byte{5, 5}},
		leaveOp{GroupID: 19, Node: 6},
		evictVoteOp{GroupID: 20, Target: 7, Epoch: 8},
		inputVoteOp{Kind: kindGossip, MsgID: wcDigest(9), Src: group.Key{GroupID: 21, Epoch: 9}, Payload: []byte{3, 3, 3}},
		splitOp{GroupID: 22, Epoch: 10},
		walkStartOp{
			GroupID: 23, Purpose: PurposeShuffle, Joiner: wcIdentity(30),
			JoinerSig: []byte{2, 2}, Member: wcIdentity(31), ShuffleSeq: 3,
			Cycle: 2, NewGroup: wcComp(24, 1, 2), Nonce: 44,
		},
		shuffleStartOp{GroupID: 25, Epoch: 11},
		walkTimeoutOp{WalkID: wcDigest(10)},
		mergeStartOp{GroupID: 26, Epoch: 12, Attempt: 2},
	}
}

// fullMessageValues returns one fully-populated value per node-level and SMR
// engine message (the transport-facing part of the codec's type set).
func fullMessageValues() []any {
	op := func(i uint64) smr.Operation {
		return smr.Operation{Proposer: ids.NodeID(i), OpID: i + 100, Data: []byte{byte(i), 1, 2}}
	}
	vc := pbft.ViewChange{
		GroupID: 31, Epoch: 2, NewView: 3, StableSeq: 4,
		Prepared: []pbft.PreparedEntry{{Seq: 5, View: 2, Digest: wcDigest(11), Batch: []smr.Operation{op(1)}}},
		Node:     6, Sig: []byte{1, 2, 3},
	}
	pp := pbft.PrePrepare{GroupID: 31, Epoch: 2, View: 3, Seq: 7, Digest: wcDigest(12), Batch: []smr.Operation{op(2), op(3)}}
	return []any{
		Heartbeat{GroupID: 27, Epoch: 13},
		JoinContact{Joiner: wcIdentity(40)},
		ContactInfo{Comp: wcComp(28, 14, 3)},
		JoinRequest{Joiner: wcIdentity(41), Target: 29, Nonce: 45, Sig: []byte{7, 7}},
		Renounce{Node: wcIdentity(42), Target: 30, Nonce: 46, Sig: []byte{8, 8}},
		group.GroupMsg{
			SrcGroup: 31, SrcEpoch: 15, DstGroup: 32, DstEpoch: 16,
			Kind: kindGossip, MsgID: wcDigest(13), PayloadDigest: wcDigest(14),
			Payload: []byte{9, 9, 9}, Attach: []byte{10},
		},
		dolev.SlotMsg{
			GroupID: 33, Epoch: 17, StartRound: 18, Sender: 8,
			Ops:  []smr.Operation{op(4), op(5)},
			Sigs: []dolev.SigEntry{{Node: 8, Sig: []byte{1}}, {Node: 9, Sig: []byte{2}}},
		},
		pbft.Request{GroupID: 31, Epoch: 2, Op: op(6)},
		pp,
		pbft.Prepare{GroupID: 31, Epoch: 2, View: 3, Seq: 7, Digest: wcDigest(12)},
		pbft.Commit{GroupID: 31, Epoch: 2, View: 3, Seq: 7, Digest: wcDigest(12)},
		pbft.Checkpoint{GroupID: 31, Epoch: 2, Seq: 8, Digest: wcDigest(15)},
		vc,
		pbft.NewView{GroupID: 31, Epoch: 2, View: 3, ViewChanges: []pbft.ViewChange{vc}, PrePrepares: []pbft.PrePrepare{pp}},
		SMREnvelope{GroupID: 34, Epoch: 19, Inner: dolev.SlotMsg{
			GroupID: 34, Epoch: 19, StartRound: 20, Sender: 10,
			Ops:  []smr.Operation{op(7)},
			Sigs: []dolev.SigEntry{{Node: 10, Sig: []byte{3}}},
		}},
	}
}

// TestWireEnvelopeRoundTrip pins exact value round-trips for every payload
// and message kind through the wire envelope.
func TestWireEnvelopeRoundTrip(t *testing.T) {
	for _, v := range append(fullPayloadValues(), fullMessageValues()...) {
		b, ok := encodeWire(v)
		if !ok {
			t.Fatalf("%T: not wire-codable", v)
		}
		if b[0] != wireEnvMagic {
			t.Fatalf("%T: frame does not start with the envelope magic", v)
		}
		got, err := decodeWire(b)
		if err != nil {
			t.Fatalf("%T: decode: %v", v, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("%T: wire round-trip mismatch:\n got %+v\nwant %+v", v, got, v)
		}
	}
}

// TestLegacyGobEnvelopeRejected: a gob stream's first byte is a nonzero
// message length, so the legacy envelope fails the magic check with a
// descriptive error instead of being misread as a wire frame.
func TestLegacyGobEnvelopeRejected(t *testing.T) {
	_, err := decodeWire(legacyGobEnvelope)
	if err == nil || !strings.Contains(err.Error(), "not a wire envelope") {
		t.Fatalf("legacy gob envelope: err = %v, want the magic-check rejection", err)
	}
}

// retiredTreeEnvelopes are golden samples of the three dissemination-tree
// advisory payloads, produced by the encoder of the last commit that had them
// (envelope tags 42–44, version 1): iHavePayload{Entries: [{10…10, 2},
// {11…11, 5}]}, graftPayload{BcastIDs: [12…12, 13…13]} and
// prunePayload{BcastID: 14…14}.
var retiredTreeEnvelopes = map[string][]byte{
	"iHavePayload": mustHex("002a0100000002" +
		"1010101010101010101010101010101010101010101010101010101010101010" + "0000000000000002" +
		"1111111111111111111111111111111111111111111111111111111111111111" + "0000000000000005"),
	"graftPayload": mustHex("002b0100000002" +
		"1212121212121212121212121212121212121212121212121212121212121212" +
		"1313131313131313131313131313131313131313131313131313131313131313"),
	"prunePayload": mustHex("002c01" +
		"1414141414141414141414141414141414141414141414141414141414141414"),
}

// TestRetiredTreeEnvelopesRejected: tags 42–44 are retired, not reassigned —
// a frame from an old tree-on peer fails as an unknown tag instead of
// decoding into whatever payload might one day sit there.
func TestRetiredTreeEnvelopesRejected(t *testing.T) {
	for name, frame := range retiredTreeEnvelopes {
		v, err := decodeWire(frame)
		if err == nil || !strings.Contains(err.Error(), "unknown wire envelope kind") {
			t.Errorf("%s (tag %d): decoded to %T, err = %v; want the unknown-tag rejection", name, frame[1], v, err)
		}
	}
}

// TestWireEnvelopeDeterministic pins the property digest matching relies on:
// encoding the same logical value twice yields identical bytes.
func TestWireEnvelopeDeterministic(t *testing.T) {
	for _, v := range fullPayloadValues() {
		a := encodePayload(v)
		b := encodePayload(v)
		if string(a) != string(b) {
			t.Fatalf("%T: nondeterministic wire encoding", v)
		}
	}
}

// TestKindPayloadRegistry catches the add-a-payload-forget-to-register bug:
// every group-message kind* constant must map to a payload type the wire
// codec handles. kindBatch and kindRaw are the deliberate exceptions (their
// payloads are a group-layer batch frame and an application extension frame
// respectively).
func TestKindPayloadRegistry(t *testing.T) {
	for k := kindGossip; k <= kindRaw; k++ {
		if k == kindBatch || k == kindRaw {
			if _, ok := kindPayloads[k]; ok {
				t.Fatalf("kind %d must not be in kindPayloads (carrier/extension frames are not engine payloads)", k)
			}
			continue
		}
		proto, ok := kindPayloads[k]
		if !ok {
			t.Fatalf("kind %d has no entry in kindPayloads — new payload kind not registered", k)
		}
		// Wire codec must cover it and give back the same concrete type.
		b, ok := encodeWire(proto)
		if !ok {
			t.Fatalf("kind %d: payload type %T missing from the wire tag table", k, proto)
		}
		v, err := decodeWire(b)
		if err != nil {
			t.Fatalf("kind %d: wire decode of %T: %v", k, proto, err)
		}
		if reflect.TypeOf(v) != reflect.TypeOf(proto) {
			t.Fatalf("kind %d: wire round-trip changed type %T -> %T", k, proto, v)
		}
	}
	// Kinds 17–19 (the dissemination tree's) are retired and must stay
	// unassigned: a new kind takes 20.
	for k := group.Kind(17); k <= 19; k++ {
		if _, ok := kindPayloads[k]; ok || batchableKinds[k] || unbatchedKinds[k] {
			t.Fatalf("retired kind %d is registered again", k)
		}
	}
}

// TestWireEnvelopeRejectsHostileInput pins the decoder's failure modes.
func TestWireEnvelopeRejectsHostileInput(t *testing.T) {
	good := encodePayload(gossipPayload{BcastID: wcDigest(1), Origin: 1, Data: []byte("x"), Hops: 1})

	if _, err := decodeWire(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, err := decodeWire(good[:2]); err == nil {
		t.Fatal("headerless frame accepted")
	}
	bad := append([]byte(nil), good...)
	bad[2] = 99
	if _, err := decodeWire(bad); err == nil {
		t.Fatal("unsupported version accepted")
	}
	bad = append([]byte(nil), good...)
	bad[1] = 250
	if _, err := decodeWire(bad); err == nil {
		t.Fatal("unknown kind tag accepted")
	}
	if _, err := decodeWire(good[:len(good)-1]); err == nil {
		t.Fatal("truncated frame accepted")
	}
	if _, err := decodeWire(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// Deep SMREnvelope nesting must be cut off, not recursed.
	inner, _ := encodeWire(Heartbeat{GroupID: 1, Epoch: 1})
	for i := 0; i < 8; i++ {
		var e wire.Encoder
		e.Byte(wireEnvMagic)
		e.Byte(wkSMREnvelope)
		e.Byte(wireEnvV1)
		e.Uint64(1)
		e.Uint64(1)
		e.VarBytes(inner)
		inner = e.Bytes()
	}
	if _, err := decodeWire(inner); err == nil {
		t.Fatal("deeply nested SMR envelope accepted")
	}
}

// FuzzDecodePayload: arbitrary bytes must never panic the decoder.
func FuzzDecodePayload(f *testing.F) {
	for _, v := range fullPayloadValues() {
		f.Add(encodePayload(v))
	}
	f.Add(legacyGobEnvelope)
	for _, b := range retiredTreeEnvelopes {
		f.Add(b)
	}
	f.Add([]byte{wireEnvMagic})
	f.Add([]byte{wireEnvMagic, wkGossip, wireEnvV1})
	f.Add([]byte{wireEnvMagic, wkSnapshot, wireEnvV1, 0xFF, 0xFF, 0xFF, 0xFF})
	// A GroupMsg envelope whose payload is a batch-carrier frame: the
	// envelope decoder treats the frame as opaque bytes, but seeding it
	// steers the fuzzer toward the carrier-in-envelope shape receivers
	// actually see.
	var carrier group.GroupMsg
	group.SendBatchToNode(func(_ ids.NodeID, m actor.Message) {
		carrier = m.(group.GroupMsg)
	}, group.Composition{GroupID: 3, Epoch: 1, Members: []ids.Identity{{ID: 1}}},
		1, 2, kindBatch, wcDigest(7),
		[]group.BatchItem{
			{Kind: kindGossip, MsgID: wcDigest(8), Payload: []byte("seed-one")},
			{Kind: kindGossip, MsgID: wcDigest(9), Payload: []byte("seed-two")},
			{Kind: kindRaw, MsgID: crypto.Hash([]byte("seed-raw")), Payload: []byte("seed-raw"), DerivedID: true},
		})
	f.Add(encodePayload(carrier))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := decodeWire(data)
		if err == nil && v != nil {
			// Whatever decoded must re-encode without panicking (it is an
			// engine type by construction).
			if _, ok := encodeWire(v); !ok {
				t.Fatalf("decoded %T is not wire-codable", v)
			}
		}
	})
}
