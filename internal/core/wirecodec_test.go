package core

// Coverage for the wire payload envelope (wirecodec.go): per-row round trips
// and golden bytes, the wire-type table's invariants and its copy in
// docs/WIRE.md, hostile-input rejection (including the legacy gob envelope,
// which the engine no longer accepts) and fuzz.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strconv"
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
// Origin: 7, Data: "y", Hops: 3}} (the struct still had a Hops field) at the
// last commit that had one.
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
			ActiveSeq: 1,
		},
		MergeAttempt: 2,
		WalkSeq:      9,
		AppliedOps:   []crypto.Digest{wcDigest(7), wcDigest(8)},
	}
	return []any{
		gossipPayload{BcastID: wcDigest(1), Origin: 4, Data: []byte("payload")},
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
		Heartbeat{GroupID: 27, Epoch: 13, Delivered: []crypto.Digest{wcDigest(16), wcDigest(17)}},
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
		PayloadPull{Digests: []crypto.Digest{wcDigest(18), wcDigest(19)}},
		PayloadPush{Payloads: [][]byte{[]byte("pushed-one"), {}}},
	}
}

// TestWireEnvelopeRoundTrip pins exact value round-trips for every payload
// and message kind through the wire envelope.
func TestWireEnvelopeRoundTrip(t *testing.T) {
	for _, v := range append(fullPayloadValues(), fullMessageValues()...) {
		b, ok := encodeWire(v, classAny)
		if !ok {
			t.Fatalf("%T: not wire-codable", v)
		}
		if b[0] != wireEnvMagic {
			t.Fatalf("%T: frame does not start with the envelope magic", v)
		}
		got, err := decodeWire(b, classAny)
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
	_, err := decodeWire(legacyGobEnvelope, classAny)
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
		v, err := decodeWire(frame, classAny)
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

// goldenFrames holds, for every value of fullPayloadValues ∪
// fullMessageValues, the frame the switch-based encoder of the last commit
// that had one produced (as length and SHA-256): the table-driven codec must
// emit the same bytes for all 41 rows it had. Row 1 was re-pinned when Hops
// left the gossipPayload layout; oldGossipFrame below is the frame it
// replaced. Row 14 was re-pinned when the snapshot's shuffle block lost its
// Completed and Suppressed counters: the 875-byte frame it replaced (sha256
// 421ff0c3…) is this one with their 16 bytes back at offset 775. Row 28 was
// re-pinned when Heartbeat gained its Delivered list: the 19-byte frame it
// replaced (sha256 43117bec…) is this one's first 19 bytes. Rows 45 and 46
// were added with the gossip repair paths and are pinned as first encoded.
var goldenFrames = []struct {
	tag    byte
	typ    string
	length int
	sha256 string
}{
	{1, "core.gossipPayload", 54, "5428725a1fc250eeb4008d52c6b0a43f952c146c49a860a5555e8128b75fc5cf"},
	{2, "core.walkPayload", 375, "0d45d4bfc22f8de8bd867700ca00518343b8194b9bb7fdd2ef2f8672228f7816"},
	{3, "core.walkAttachment", 259, "2b65fdc344c7d642f7a1772c7d94f25f5bfba8a3dea68780419fe70ce9e12a6e"},
	{4, "core.backwardPayload", 261, "68f66b4ba6de842ca2ce2b028eb9335c101ed4ca8805f2c91bbe70cf5babce71"},
	{5, "core.walkResult", 181, "d55e066a94dd27d68d58e39dddfe6bfd0115bbe892a9ce74f0ad157ad30a88ef"},
	{6, "core.neighborUpdatePayload", 111, "f8133c3c896b6100af74cef464b9b6c71745c0878dd7b4715f004d9b448c5e62"},
	{7, "core.setNeighborPayload", 92, "dbef9f9c049ccf0b7c705e29e0010e563b126aaf9afda722a9a0771c12073c8a"},
	{8, "core.cycleAssignPayload", 171, "0e0dae510161b99c88d0f7c0338394a7429486cac82611afa9407ed89b27345a"},
	{9, "core.exchangeConfirmPayload", 199, "0a843016788820b9d7a99700dc2b07ad35968289c9e8e200d444ed413dcfe6a4"},
	{10, "core.exchangeCancelPayload", 35, "0bcd1c86df10449421f43a04d34f8518e7b44371df43d61a792113cad55ef3b2"},
	{11, "core.mergeRequestPayload", 83, "4083680c20b2875be3e36ab7a336e79082d641214b259beb8c6537b7010f8357"},
	{12, "core.mergeAcceptPayload", 111, "74c0790c62aa614bf6cd61f0c329469a543f4179d52e122481f495ef84775519"},
	{13, "core.mergeRejectPayload", 4, "c61bc2b6bf6d05f4629399c352dcd5acd3844ee8f37e34eb0429f74b599c41c4"},
	{14, "core.snapshotPayload", 859, "69aef5a21873a108a24b546dae75d8b98a5d1b567eef98b7a8b43775ff630f74"},
	{15, "core.joinRedirectPayload", 357, "e18d39fd6504715bcc3647b3a5e3b1190b20173746dcf21ca61ca5abcc363fe9"},
	{16, "core.bcastOp", 52, "be5b9360da3b2a8fe636655c026432b3546ff93e1ffc1d7beb05fb5c18206f07"},
	{17, "core.joinOp", 45, "155d97f536ff4899051d794b6eb973862e9078b6ed4738d90edc2ccf58897b80"},
	{18, "core.leaveOp", 19, "a6582e5adf8feff6cda4e653c0fade51dcdee132891f0a175db12d206ef15e1c"},
	{19, "core.renounceOp", 53, "c240214400691437e88e440962d812719de722cc39d39f2a1a5d6220871bf741"},
	{20, "core.evictVoteOp", 27, "ce8f8810edd2f815d5ec55562a3fec4e4ac2f644ddce043dc8aea33962084808"},
	{21, "core.inputVoteOp", 59, "29116c6c89e5a9318d0cbfe5c3503abc9d538d0c38933d12a1d3a506ddbd8809"},
	{22, "core.splitOp", 19, "cc0c86cce78846e283e6e3b42c0863f3982da41988cc3122187a08f5248218f4"},
	{23, "core.walkStartOp", 178, "110ef9ff93570decb08c0da5e03215b63fd1bf150baf920b57f1c660c62c09a1"},
	{24, "core.shuffleStartOp", 19, "1f5ca4639167f24aaf60d64d91ad1040b42cf656d9c5a3ecd96d818ab22e7628"},
	{25, "core.walkTimeoutOp", 35, "d3a676b1f549c79c7420a84326290ac7aef62b77af6277f8c44b56d65fff006e"},
	{26, "core.mergeStartOp", 27, "0b9b8a90042bd3ebef4d0e395bea4b48f3c6630b969a18ac1d90e4578320cbda"},
	{27, "core.SMREnvelope", 102, "38b2f49d19d3aca905265742012c3ba3805be413b7e23b5016208dbd569ced57"},
	{28, "core.Heartbeat", 87, "56e3e85d0cc8fcab2d9c07c3e6c84390419233e568639407c94c9760d38df30a"},
	{29, "core.JoinContact", 31, "e05b87b5a52bbd49faebc2805cbf3b48a3964507fd55dcc0c5b9072399450d34"},
	{30, "core.ContactInfo", 111, "71a84564ce6cf531c3d6bef5bc993e1caa78b78eebc15880744a2828fbb33ed4"},
	{31, "core.JoinRequest", 53, "89b4d7fe8a7b17a7188d37b1364a0d0b733c99aa0372e6e666cb129d0d9b3e2a"},
	{32, "core.Renounce", 53, "f4ef681747923ea509b0188730e3fdb9d8af7292db63f932306c0f212e5eea4f"},
	{33, "group.GroupMsg", 99, "4b762a923451a6bbdde2b7d8223618db51b92588679adad6c00f55150ad01a56"}, // re-pinned for the compact header: 114 bytes before (TestOldLayoutGroupMsgFrameRejected)
	{34, "dolev.SlotMsg", 115, "74bcf036144d8687daa9b599cad49559d130043075da70c5f3e6b2647ef94db1"},
	{35, "pbft.Request", 42, "fa66a0032b9ee10865c4d044b27e6623013c842a993400a898acb2b3e59b0227"},
	{36, "pbft.PrePrepare", 117, "12dd0653c18a19fdc8092c5d620a7fe0dea32d244f33b9e6b0abed759d5eb85d"},
	{37, "pbft.Prepare", 67, "52e46bcf6145fe38a02c5252d9b82c9365ee8a574bf2bda5ceca89421c7676af"},
	{38, "pbft.Commit", 67, "2a56321bb01f6fa859e195fac1b89568e93f50753969e26a67acf65ef06040bc"},
	{39, "pbft.Checkpoint", 59, "3ed8e37388ffccaefe86ecf1240466cf669e96b0e095ceccd9c673a46bf902b6"},
	{40, "pbft.ViewChange", 129, "d9047420929720b65386c1d1870ba59e6b4dd1c4f45a09b4f1e62e1fab570669"},
	{41, "pbft.NewView", 275, "a6f3ff4054f6500c870bb3f78b7e4cff24b6fed221a762fd44146f67de0dd16c"},
	{45, "core.PayloadPull", 71, "f7c32ed5a7e2c3aa06a85f389c9368b83b45f654cdfcde3c0e4607cfaa176d42"},
	{46, "core.PayloadPush", 25, "006b2eb414c7f449371fea7d7a8489bb9570eb9a24739f0466b07f4eefb6ea8c"},
}

// TestWireGoldenFrames is the byte-identity proof for the table-driven codec:
// every row's populated value encodes to the committed frame of the encoder it
// replaced, and that frame decodes back to the value.
func TestWireGoldenFrames(t *testing.T) {
	values := map[string]any{}
	for _, v := range append(fullPayloadValues(), fullMessageValues()...) {
		values[fmt.Sprintf("%T", v)] = v
	}
	if len(goldenFrames) != len(wireRows) || len(values) != len(wireRows) {
		t.Fatalf("%d golden frames and %d populated values for %d table rows", len(goldenFrames), len(values), len(wireRows))
	}
	for _, g := range goldenFrames {
		v, ok := values[g.typ]
		if !ok {
			t.Fatalf("no populated value of type %s", g.typ)
		}
		b, ok := encodeWire(v, classAny)
		if !ok {
			t.Fatalf("%s: not wire-codable", g.typ)
		}
		if sum := sha256.Sum256(b); b[1] != g.tag || len(b) != g.length || hex.EncodeToString(sum[:]) != g.sha256 {
			t.Errorf("%s: frame (tag %d, %d bytes, sha256 %x) differs from the golden one (tag %d, %d bytes, %s)",
				g.typ, b[1], len(b), sum, g.tag, g.length, g.sha256)
			continue
		}
		got, err := decodeWire(b, classAny)
		if err != nil || !reflect.DeepEqual(got, v) {
			t.Errorf("%s: golden frame decodes to %+v (err %v), want %+v", g.typ, got, err, v)
		}
	}
}

// edgeFrames are the cases one shared walk could get wrong where two
// hand-written halves could not: lists and byte strings that are empty, nil or
// absent, and fields that are on the wire only behind a flag. Each frame is
// pinned (length and SHA-256) to what the MarshalWire half of the last commit
// that had one produced for in, and want is what its UnmarshalWire half read
// back: an empty list as nil (snapshot digests and DeepEqual depend on it), an
// empty byte string and a zero-member composition as empty, never nil. The
// "GroupMsg form" rows pin one frame of each header form, with epochs of 1,
// 2, 3 and 10 varint bytes.
type edgeFrame struct {
	name     string
	in, want any
	length   int
	sha256   string
}

var edgeFrames = func() []edgeFrame {
	noMembers := group.Composition{Members: []ids.Identity{}}
	noKey := ids.Identity{PubKey: []byte{}}
	gm := func(payload, attach []byte) group.GroupMsg {
		return group.GroupMsg{SrcGroup: 1, Kind: kindGossip, Payload: payload, Attach: attach}
	}
	gossip := encodePayload(gossipPayload{BcastID: wcDigest(1), Origin: 4, Data: []byte("payload")})
	derived := func(srcEpoch, dstEpoch uint64, payload []byte) group.GroupMsg {
		return group.GroupMsg{SrcGroup: 7, SrcEpoch: srcEpoch, DstGroup: 9, DstEpoch: dstEpoch, Kind: kindGossip,
			MsgID: crypto.Hash(gossip), PayloadDigest: crypto.Hash(gossip), Payload: payload}
	}
	walkHop := group.GroupMsg{SrcGroup: 7, SrcEpoch: ^uint64(0), DstGroup: 9, DstEpoch: 9, Kind: kindWalk,
		MsgID: wcDigest(6), PayloadDigest: crypto.Hash([]byte("walk")), Payload: []byte("walk"), Attach: []byte("chain")}
	return []edgeFrame{
		{"walkPayload, empty lists",
			walkPayload{WalkID: wcDigest(1), Rands: []uint64{}, Path: []group.Key{}},
			walkPayload{WalkID: wcDigest(1), Origin: noMembers, NewGroup: noMembers, Joiner: noKey, JoinerSig: []byte{}, Member: noKey},
			152, "5b353e149d2813f36597707be13815c91b098f015955ef6485c2f98f7f9def08"},
		{"walkAttachment, empty chain",
			walkAttachment{Chain: []overlay.StepCert{}},
			walkAttachment{StepSig: overlay.CertSig{Sig: []byte{}}},
			19, "70b989b19d148ce74d7ec9c06e0adf544224a5afea0c1dc3d00ff8ef6b9123f5"},
		{"joinRedirectPayload, a zero-member composition and no signatures in the chain",
			joinRedirectPayload{Chain: []overlay.StepCert{{Next: wcComp(1, 1, 0), Sigs: []overlay.CertSig{}}}},
			joinRedirectPayload{Target: noMembers, Chain: []overlay.StepCert{{Next: group.Composition{GroupID: 1, Epoch: 1, Members: []ids.Identity{}}}}},
			91, "bed478c9693e3ee71f592147457b5b97934597d05c20307a72e2270372fce629"},
		{"stateSnapshot without a shuffle, empty lists",
			snapshotPayload{State: stateSnapshot{Comp: wcComp(7, 3, 2), NbrsBytes: []byte{1}, AppliedOps: []crypto.Digest{}, PendingJoins: []pendingJoin{}}},
			snapshotPayload{State: stateSnapshot{Comp: wcComp(7, 3, 2), NbrsBytes: []byte{1}}},
			126, "35ed6692225c147842bb1a65651e9f15fd22c53a596deb1e70b3e4c8bfc974c0"},
		{"stateSnapshot with a shuffle that has nobody left",
			snapshotPayload{State: stateSnapshot{Comp: wcComp(7, 3, 2), HasShuffle: true, Shuffle: shuffleState{Epoch: 2, Remaining: []ids.Identity{}}}},
			snapshotPayload{State: stateSnapshot{Comp: wcComp(7, 3, 2), NbrsBytes: []byte{}, HasShuffle: true, Shuffle: shuffleState{Epoch: 2, ActiveMember: noKey}}},
			193, "fc2fa0b6f19fb804b8e7b55b4394344d750edac65f921afe86d7fad0266b87b6"}, // re-pinned like golden row 14: 209 bytes before
		{"GroupMsg, nil Payload and Attach", gm(nil, nil), gm(nil, nil),
			23, "573fa5017a500ae8e94db077de578a00f0b0b2b3496b0b25a82ddb7f5b2bd6a8"}, // re-pinned like golden row 33: 102 bytes before
		{"GroupMsg, empty Payload and Attach", gm([]byte{}, []byte{}), gm([]byte{}, []byte{}),
			31, "6860fb139b2d76c93fba90519541dcd52baccfed1e68956c96f65ad22918c859"}, // 110 before
		{"GroupMsg, Payload only", gm([]byte{1}, nil), gm([]byte{1}, nil),
			28, "611876ee11cecfc7489c5c8cf5320a8924b29b2ae624c80ca7ba07f4640eddaf"}, // 107 before
		{"GroupMsg, Attach only", gm(nil, []byte{2}), gm(nil, []byte{2}),
			28, "0cdb15775017b3ec7a85c12c10ab15b05becd8a05565f1d859d69bcfe676d8ff"}, // 107 before
		{"GroupMsg form: a bare carrier", carrierMsg(), carrierMsg(),
			45, "64f0007dfb41f60746f912f3940f6695df6aa2bab9ce3a3dc23c7e532562a474"},
		{"GroupMsg form: a derived digest-only copy", derived(127, 128, nil), derived(127, 128, nil),
			56, "64d3afd1deefb99e875eb96166ea94c16c678798c36d9d9a5efb71a4bdbe32c5"},
		{"GroupMsg form: a derived full copy", derived(1<<20, 0, gossip), derived(1<<20, 0, gossip),
			115, "a10974670b142312f80050779251cd8cc09247afc4e05dc14451a3eab25b15a3"},
		{"GroupMsg form: full IDs with an attachment", walkHop, walkHop,
			113, "92802df29438864acd2608453fb69b8cdc9bf7f1a619657766998c8bbf49f26a"},
		{"ContactInfo, zero-member composition",
			ContactInfo{Comp: group.Composition{GroupID: 5, Epoch: 9}},
			ContactInfo{Comp: group.Composition{GroupID: 5, Epoch: 9, Members: []ids.Identity{}}},
			27, "28b488d9d05100e568becf3ff849296058c10a9cfc96439a2ce97b5b2de636e0"},
		{"SlotMsg, empty lists",
			dolev.SlotMsg{GroupID: 1, Ops: []smr.Operation{}, Sigs: []dolev.SigEntry{}},
			dolev.SlotMsg{GroupID: 1},
			43, "27d65b45c8105dc3c0986eb1aac87e28fd1c6d11580c98894f444e719a4042fd"},
		{"NewView, empty lists two levels down",
			pbft.NewView{GroupID: 1, ViewChanges: []pbft.ViewChange{{Prepared: []pbft.PreparedEntry{{Batch: []smr.Operation{}}}}}},
			pbft.NewView{GroupID: 1, ViewChanges: []pbft.ViewChange{{Prepared: []pbft.PreparedEntry{{}}, Sig: []byte{}}}},
			135, "41d7d61066da39bb94d82a25d3b0dd95aea3774c4572ca91bf139e9cd560e01a"},
	}
}()

// TestWireEdgeFrames: see edgeFrames.
func TestWireEdgeFrames(t *testing.T) {
	for _, c := range edgeFrames {
		b, ok := encodeWire(c.in, classAny)
		if !ok {
			t.Fatalf("%s: not wire-codable", c.name)
		}
		if sum := sha256.Sum256(b); len(b) != c.length || hex.EncodeToString(sum[:]) != c.sha256 {
			t.Errorf("%s: frame (%d bytes, sha256 %x) differs from the pinned one (%d bytes, %s)", c.name, len(b), sum, c.length, c.sha256)
			continue
		}
		got, err := decodeWire(b, classAny)
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: decodes to\n %#v (err %v), want\n %#v", c.name, got, err, c.want)
			continue
		}
		if again, _ := encodeWire(got, classAny); !bytes.Equal(again, b) {
			t.Errorf("%s: the decoded value re-encodes to different bytes", c.name)
		}
	}
}

// populate fills v with pseudo-random content of the shapes a decoder hands
// back, so that encode → decode must reproduce it exactly: lists are nil or
// non-empty, byte strings and a composition's members are non-nil, the shuffle
// fields are zero unless HasShuffle, and an SMREnvelope holds an SMR engine
// message. Fields reflection cannot set (GroupMsg.hashed) never cross a wire.
func populate(v reflect.Value, rng *rand.Rand) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 1)
	case reflect.Uint8, reflect.Uint64:
		v.SetUint(rng.Uint64() >> (64 - v.Type().Bits()))
	case reflect.Int:
		v.SetInt(rng.Int63() - 1<<62)
	case reflect.String:
		b := make([]byte, rng.Intn(7))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		v.SetString(string(b))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			populate(v.Index(i), rng)
		}
	case reflect.Slice:
		n := rng.Intn(4)
		if n == 0 && v.Type().Elem().Kind() != reflect.Uint8 {
			return // an empty list is nil
		}
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			populate(v.Index(i), rng)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				populate(f, rng)
			}
		}
		switch p := v.Addr().Interface().(type) {
		case *group.Composition:
			if p.Members == nil {
				p.Members = []ids.Identity{}
			}
		case *stateSnapshot:
			if !p.HasShuffle {
				p.Shuffle = shuffleState{}
			}
		}
	case reflect.Interface:
		var smrRows []*wireRow
		for i := range wireRows {
			if wireRows[i].class == classSMRMsg {
				smrRows = append(smrRows, &wireRows[i])
			}
		}
		inner := reflect.New(reflect.TypeOf(smrRows[rng.Intn(len(smrRows))].proto)).Elem()
		populate(inner, rng)
		v.Set(inner)
	default:
		panic(fmt.Sprintf("populate: no rule for %v", v.Type()))
	}
}

// TestWireRowsRoundTrip takes every row of the table through encode → decode →
// DeepEqual → re-encode on reflect-populated values from a fixed seed: a row
// cannot exist without a round trip, and a field added to a type is covered
// the moment it is declared.
func TestWireRowsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := range wireRows {
		r := &wireRows[i]
		for iter := 0; iter < 25; iter++ {
			pv := reflect.New(reflect.TypeOf(r.proto)).Elem()
			populate(pv, rng)
			v := pv.Interface()
			b, ok := encodeWire(v, classAny)
			if !ok || b[1] != r.tag {
				t.Fatalf("%T: not encoded under its row's tag %d", v, r.tag)
			}
			got, err := decodeWire(b, classAny)
			if err != nil || !reflect.DeepEqual(got, v) {
				t.Fatalf("%T: round trip gives\n %#v (err %v), want\n %#v", v, got, err, v)
			}
			if again, _ := encodeWire(got, classAny); !bytes.Equal(again, b) {
				t.Fatalf("%T: the decoded value re-encodes to different bytes", v)
			}
		}
	}
}

// TestWireTruncatedFramesRejected: every golden frame cut at every length is
// refused with an error, never a panic and never a shorter value.
func TestWireTruncatedFramesRejected(t *testing.T) {
	for _, v := range append(fullPayloadValues(), fullMessageValues()...) {
		b := encodePayload(v)
		for n := 0; n < len(b); n++ {
			if got, err := decodeWire(b[:n:n], classAny); err == nil {
				t.Fatalf("%T: the first %d of %d bytes decode to %+v", v, n, len(b), got)
			}
		}
	}
}

// forgedCountFrame is a frame of a type whose body is (or ends in) a
// composition, claiming 2^40 members and carrying none.
func forgedCountFrame(tag byte) []byte {
	var e wire.Encoder
	e.Byte(wireEnvMagic)
	e.Byte(tag)
	e.Byte(wireEnvV1)
	e.Uint64(5)
	e.Uint64(9)
	e.Uint64(1 << 40)
	return e.Bytes()
}

// TestForgedMemberCountRejected: a member count over the decoder's bound used
// to end the composition without an error, so these frames decoded as an
// empty composition {GroupID 5, Epoch 9}.
func TestForgedMemberCountRejected(t *testing.T) {
	for _, tag := range []byte{wkContactInfo, wkNeighborUpdate, wkMergeRequest, wkMergeAccept} {
		if v, err := decodeWire(forgedCountFrame(tag), classAny); err == nil {
			t.Errorf("tag %d: a composition of 2^40 members decoded to %+v", tag, v)
		}
	}
	// The same for the cycle count of a snapshot's neighbour view.
	var e wire.Encoder
	e.Uint64(1 << 40)
	snap := newGroupState(wcComp(1, 1, 3), overlay.NewNeighbors(2, wcComp(1, 1, 3))).buildSnapshot()
	snap.NbrsBytes = e.Bytes()
	if st, err := restoreSnapshot(snap); err == nil {
		t.Errorf("a neighbour view of 2^40 cycles restored to %+v", st.nbrs)
	}
}

// listFrame is a frame of a type whose body ends in one list — Heartbeat's
// after its group and epoch — of n elements written by elem: hostile frames
// past the list's bound, which the encoder refuses to write.
func listFrame(tag byte, n int, elem func(e *wire.Encoder, i int)) []byte {
	var e wire.Encoder
	e.Byte(wireEnvMagic)
	e.Byte(tag)
	e.Byte(wireEnvV1)
	if tag == wkHeartbeat {
		e.Uint64(5)
		e.Uint64(9)
	}
	e.ListLen(n)
	for i := 0; i < n; i++ {
		elem(&e, i)
	}
	return e.Bytes()
}

func digestElem(e *wire.Encoder, i int) { e.Bytes32(wcDigest(byte(i))) }

func payloadElem(e *wire.Encoder, i int) { e.VarBytes([]byte{byte(i)}) }

// TestRepairListsBounded: a Heartbeat lists at most maxHeartbeatDigests
// digests, a PayloadPull at most maxPullDigests, and a PayloadPush as many
// payloads; one element more is refused whole.
func TestRepairListsBounded(t *testing.T) {
	for _, c := range []struct {
		tag   byte
		bound int
		elem  func(*wire.Encoder, int)
	}{
		{wkHeartbeat, maxHeartbeatDigests, digestElem},
		{wkPayloadPull, maxPullDigests, digestElem},
		{wkPayloadPush, maxPullDigests, payloadElem},
	} {
		if _, err := decodeWire(listFrame(c.tag, c.bound, c.elem), classNodeMsg); err != nil {
			t.Errorf("tag %d: a list at its bound %d: %v", c.tag, c.bound, err)
		}
		if v, err := decodeWire(listFrame(c.tag, c.bound+1, c.elem), classNodeMsg); err == nil {
			t.Errorf("tag %d: a list of %d past its bound decoded to %T", c.tag, c.bound+1, v)
		}
	}
}

// TestGossipViewMatchesWalk holds decodeGossipView, the one reader written
// apart from its type's walk, to that walk: on well-formed, truncated,
// extended and foreign frames it fails exactly when decodeKind does and
// otherwise returns an equal payload.
func TestGossipViewMatchesWalk(t *testing.T) {
	var frames [][]byte
	for _, p := range []gossipPayload{
		{},
		{BcastID: wcDigest(1), Origin: 4, Data: []byte("payload")},
		{BcastID: wcDigest(2), Origin: 1 << 63, Data: make([]byte, 4096)},
	} {
		b := encodePayload(p)
		frames = append(frames, b, append(append([]byte(nil), b...), 0))
		for n := 0; n < len(b) && n < 64; n++ {
			frames = append(frames, b[:n:n])
		}
	}
	frames = append(frames, encodePayload(bcastOp{BcastID: wcDigest(3), Data: []byte("x")}), encodePayload(walkPayload{}))
	for _, b := range frames {
		want, wantErr := decodeKind(kindGossip, b)
		got, err := decodeGossipView(b)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("frame %x…(%d bytes): view err %v, walk err %v", b[:min(len(b), 8)], len(b), err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("frame of %d bytes: view %+v, walk %+v", len(b), got, want)
		}
	}
}

// TestOldLayoutGossipFrameRejected is the migration guarantee for the
// gossipPayload layout change: a frame from a peer that still appends the
// Int64 Hops field is refused for its trailing bytes by both gossip decoders,
// not read as a shorter payload. The frame is rebuilt here and checked against
// the hash goldenFrames committed for it while that layout was current.
func TestOldLayoutGossipFrameRejected(t *testing.T) {
	var e wire.Encoder
	e.Byte(wireEnvMagic)
	e.Byte(wkGossip)
	e.Byte(wireEnvV1)
	e.Bytes32(wcDigest(1))
	e.Uint64(4)
	e.VarBytes([]byte("payload"))
	e.Int64(3) // Hops
	oldGossipFrame := e.Bytes()
	const oldSHA = "ec9f437021fe1085669bd8318d5f328f5a2267867c48c5ac3d31bc8cdc447f4a"
	if sum := sha256.Sum256(oldGossipFrame); len(oldGossipFrame) != 62 || hex.EncodeToString(sum[:]) != oldSHA {
		t.Fatalf("rebuilt frame (%d bytes, %x) is not the old golden one", len(oldGossipFrame), sum)
	}
	if v, err := decodeKind(kindGossip, oldGossipFrame); !errors.Is(err, wire.ErrTrailingBytes) {
		t.Errorf("decodeKind took an old-layout frame: %+v, err %v", v, err)
	}
	if v, err := decodeGossipView(oldGossipFrame); !errors.Is(err, wire.ErrTrailingBytes) {
		t.Errorf("decodeGossipView took an old-layout frame: %+v, err %v", v, err)
	}
	// The current layout of the same broadcast passes both, with equal fields.
	want := gossipPayload{BcastID: wcDigest(1), Origin: 4, Data: []byte("payload")}
	cur := encodePayload(want)
	if v, err := decodeKind(kindGossip, cur); err != nil || !reflect.DeepEqual(v, want) {
		t.Errorf("decodeKind(current) = %+v, %v", v, err)
	}
	view, err := decodeGossipView(cur)
	if err != nil || !reflect.DeepEqual(view, want) {
		t.Fatalf("decodeGossipView(current) = %+v, %v", view, err)
	}
	if &view.Data[0] != &cur[len(cur)-len(view.Data)] {
		t.Error("decodeGossipView copied Data")
	}
	if _, err := decodeGossipView(encodePayload(walkPayload{})); err == nil {
		t.Error("decodeGossipView took another kind's frame")
	}
}

// TestWireTableInvariants pins what the deleted hand-kept lists and their two
// analyzers used to keep consistent, now properties of the one table: the
// committed tag list, one row per type, the class of each tag range, one
// payload row per group kind (the carriers kindBatch and kindRaw aside), and
// the carrier allowlist, both sides spelled out so a flipped bool fails.
func TestWireTableInvariants(t *testing.T) {
	types := map[reflect.Type]bool{}
	var tags []int
	for _, r := range wireRows {
		tags = append(tags, int(r.tag))
		types[reflect.TypeOf(r.proto)] = true
		var want wireClass
		switch {
		case r.tag <= wkJoinRedirect:
			want = classPayload
		case r.tag <= wkMergeStartOp:
			want = classOp
		case r.tag <= wkGroupMsg, r.tag >= wkPayloadPull:
			want = classNodeMsg
		default:
			want = classSMRMsg
		}
		if r.class != want {
			t.Errorf("tag %d (%T): class %d, want %d", r.tag, r.proto, r.class, want)
		}
		if (r.kind != 0) != (r.class == classPayload && r.tag != wkWalkAttachment) {
			t.Errorf("tag %d (%T): group kind %d; exactly the payloads other than walkAttachment have one", r.tag, r.proto, r.kind)
		}
		if rowByTag[r.tag] == nil || rowByTag[r.tag].tag != r.tag || rowByType[reflect.TypeOf(r.proto)] != rowByTag[r.tag] {
			t.Errorf("tag %d (%T): tag and type indexes disagree", r.tag, r.proto)
		}
	}
	slices.Sort(tags)
	var want []int
	for tag := 1; tag <= 41; tag++ {
		want = append(want, tag)
	}
	want = append(want, 45, 46)
	if !slices.Equal(tags, want) {
		t.Errorf("table tags = %v, want exactly 1..41 and 45..46", tags)
	}
	if len(types) != len(wireRows) {
		t.Errorf("%d distinct Go types in %d rows", len(types), len(wireRows))
	}
	for tag := 42; tag < int(RawTagMin); tag++ {
		if rowByTag[tag] != nil && !slices.Contains(want, tag) {
			t.Errorf("tag %d has a row: 42–44 are retired, and a new tag needs this test's list extended", tag)
		}
	}

	carrierOK := []group.Kind{kindGossip, kindWalk, kindWalkBackward, kindNeighborUpdate,
		kindSetNeighbor, kindCycleAssign, kindExchangeConfirm, kindExchangeCancel}
	standaloneOnly := []group.Kind{kindWalkResult, kindMergeRequest, kindMergeAccept,
		kindMergeReject, kindSnapshot, kindJoinRedirect}
	for k := 0; k < len(rowByKind); k++ {
		kind := group.Kind(k)
		rows := 0
		for _, r := range wireRows {
			if r.kind == kind && kind != 0 { // kind 0 is a row's "no group kind"
				rows++
			}
		}
		r := rowByKind[kind]
		switch {
		case slices.Contains(carrierOK, kind):
			if rows != 1 || r == nil || !r.carrierOK {
				t.Errorf("kind %d: %d rows, carrier-deliverable %v; want one row a carrier may deliver", kind, rows, r != nil && r.carrierOK)
			}
		case slices.Contains(standaloneOnly, kind):
			if rows != 1 || r == nil || r.carrierOK {
				t.Errorf("kind %d: %d rows, carrier-deliverable %v; want one row a carrier may not deliver", kind, rows, r != nil && r.carrierOK)
			}
		default:
			// 0, the carriers kindBatch and kindRaw (their payloads are a batch
			// frame and an extension frame), the retired 17–19, and everything
			// never assigned.
			if rows != 0 || r != nil {
				t.Errorf("kind %d has a row; only kindGossip..kindJoinRedirect carry enveloped engine payloads", kind)
			}
		}
	}
	if len(carrierOK)+len(standaloneOnly) != int(kindRaw)-2 {
		t.Errorf("the two lists above cover %d kinds, want every kind in kindGossip..kindRaw but kindBatch and kindRaw",
			len(carrierOK)+len(standaloneOnly))
	}
}

// TestWireDocTagTable keeps the tag table of docs/WIRE.md in step with the
// code's: every (tag, type) pair of either must be in the other.
func TestWireDocTagTable(t *testing.T) {
	doc, err := os.ReadFile("../../docs/WIRE.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "Current engine assignments")
	if !ok {
		t.Fatal("docs/WIRE.md: no \"Current engine assignments\" table")
	}
	section, _, _ = strings.Cut(section, "\n\n**")
	inDoc := map[int]string{}
	for _, m := range regexp.MustCompile(`\|\s*(\d+)\s*\|\s*([\w.]+)\s*\|`).FindAllStringSubmatch(section, -1) {
		tag, _ := strconv.Atoi(m[1])
		if prev, dup := inDoc[tag]; dup {
			t.Errorf("docs/WIRE.md lists tag %d twice (%s, %s)", tag, prev, m[2])
		}
		inDoc[tag] = m[2]
	}
	inCode := map[int]string{}
	for _, r := range wireRows {
		inCode[int(r.tag)] = strings.TrimPrefix(reflect.TypeOf(r.proto).String(), "core.")
	}
	if !reflect.DeepEqual(inDoc, inCode) {
		t.Errorf("docs/WIRE.md tag table and wireRows differ:\n doc  %v\n code %v", inDoc, inCode)
	}
}

// TestWireEnvelopeRejectsHostileInput pins the decoder's failure modes.
func TestWireEnvelopeRejectsHostileInput(t *testing.T) {
	good := encodePayload(gossipPayload{BcastID: wcDigest(1), Origin: 1, Data: []byte("x")})

	if _, err := decodeWire(nil, classAny); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, err := decodeWire(good[:2], classAny); err == nil {
		t.Fatal("headerless frame accepted")
	}
	bad := append([]byte(nil), good...)
	bad[2] = 99
	if _, err := decodeWire(bad, classAny); err == nil {
		t.Fatal("unsupported version accepted")
	}
	bad = append([]byte(nil), good...)
	bad[1] = 250
	if _, err := decodeWire(bad, classAny); err == nil {
		t.Fatal("unknown kind tag accepted")
	}
	if _, err := decodeWire(good[:len(good)-1], classAny); err == nil {
		t.Fatal("truncated frame accepted")
	}
	if _, err := decodeWire(append(append([]byte(nil), good...), 0), classAny); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// Only SMR engine messages nest in an SMREnvelope: not another envelope,
	// not a node-level message.
	envelope := func(inner []byte) []byte {
		var e wire.Encoder
		e.Byte(wireEnvMagic)
		e.Byte(wkSMREnvelope)
		e.Byte(wireEnvV1)
		e.Uint64(1)
		e.Uint64(1)
		e.VarBytes(inner)
		return e.Bytes()
	}
	slot := envelope(encodePayload(dolev.SlotMsg{GroupID: 1, Epoch: 1}))
	if _, err := decodeWire(slot, classAny); err != nil {
		t.Fatalf("SMR envelope around a slot message: %v", err)
	}
	for _, inner := range [][]byte{slot, encodePayload(Heartbeat{GroupID: 1, Epoch: 1}), encodePayload(snapshotPayload{})} {
		if v, err := decodeWire(envelope(inner), classAny); err == nil {
			t.Fatalf("SMR envelope around a tag-%d frame accepted: %+v", inner[1], v)
		}
	}
}

// TestDecodeEntryPointsRefuseForeignFrames: each typed entry point refuses a
// well-formed frame of another class, kind or type from its header alone — the
// frames here are headers without a body, so reaching a body decoder would
// report a short buffer instead.
func TestDecodeEntryPointsRefuseForeignFrames(t *testing.T) {
	header := func(tag byte) []byte { return []byte{wireEnvMagic, tag, wireEnvV1} }
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || strings.Contains(err.Error(), "short buffer") {
			t.Errorf("%s: err = %v, want a refusal before the body is read", what, err)
		}
	}
	for _, tag := range []byte{wkGossip, wkHeartbeat, wkSMREnvelope, wkSlotMsg} {
		_, err := decodeWire(header(tag), classOp)
		refused(fmt.Sprintf("tag %d as an SMR op", tag), err)
	}
	for _, tag := range []byte{wkMergeRequest, wkSnapshot, wkBcastOp, wkWalkAttachment} {
		_, err := decodeKind(kindGossip, header(tag))
		refused(fmt.Sprintf("tag %d under kindGossip", tag), err)
	}
	for _, kind := range []group.Kind{0, kindBatch, kindRaw, 17, 200} {
		_, err := decodeKind(kind, header(wkGossip))
		refused(fmt.Sprintf("a gossip frame under kind %d", kind), err)
		_, err = decodeKind(kind, header(wkBcastOp))
		refused(fmt.Sprintf("an op frame under kind %d", kind), err)
	}
	_, err := decodeAs[walkResult](header(wkSnapshot))
	refused("a snapshot frame as walkResult", err)
	_, err = decodeAs[walkAttachment](header(wkJoinRedirect))
	refused("a redirect frame as walkAttachment", err)
	_, err = decodeWire(header(wkGossip), classExt)
	refused("an engine frame as an extension frame", err)

	// The matching frame gets through each of them.
	if _, err := decodeKind(kindMergeReject, encodePayload(mergeRejectPayload{Busy: true})); err != nil {
		t.Errorf("a merge-reject frame under kindMergeReject: %v", err)
	}
	if p, err := decodeAs[mergeRejectPayload](encodePayload(mergeRejectPayload{Busy: true})); err != nil || !p.Busy {
		t.Errorf("a merge-reject frame as mergeRejectPayload: %+v, %v", p, err)
	}
	if _, err := decodeWire(encodePayload(splitOp{GroupID: 1}), classOp); err != nil {
		t.Errorf("a split op as an SMR op: %v", err)
	}
}

// FuzzDecodePayload: arbitrary bytes must never panic the decoder, through
// any of its entry points. The seeds are one populated frame per table row
// plus the hostile shapes.
func FuzzDecodePayload(f *testing.F) {
	for _, v := range append(fullPayloadValues(), fullMessageValues()...) {
		f.Add(encodePayload(v))
	}
	f.Add(legacyGobEnvelope)
	for _, b := range retiredTreeEnvelopes {
		f.Add(b)
	}
	f.Add([]byte{wireEnvMagic})
	f.Add([]byte{wireEnvMagic, wkGossip, wireEnvV1})
	f.Add([]byte{wireEnvMagic, wkSnapshot, wireEnvV1, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(forgedCountFrame(wkContactInfo))
	f.Add(listFrame(wkHeartbeat, maxHeartbeatDigests+1, digestElem))
	f.Add(listFrame(wkPayloadPush, 2, payloadElem))
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
	for _, m := range groupMsgEdgeValues() {
		f.Add(encodePayload(m))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := decodeWire(data, classAny)
		if err != nil {
			v = nil
		} else if _, ok := encodeWire(v, classAny); !ok {
			// Whatever decoded is an engine type by construction and must
			// re-encode without panicking.
			t.Fatalf("decoded %T is not wire-codable", v)
		}
		// The narrower entry points accept a subset of that, and only what
		// they name.
		if op, err := decodeWire(data, classOp); err == nil && (v == nil || rowByType[reflect.TypeOf(op)].class != classOp) {
			t.Fatalf("op-only decode accepted %T (any-class decode: %T)", op, v)
		}
		for k := group.Kind(0); k <= kindRaw+4; k++ {
			if p, err := decodeKind(k, data); err == nil && (v == nil || rowByKind[k] != rowByType[reflect.TypeOf(p)]) {
				t.Fatalf("decode by kind %d accepted %T (any-class decode: %T)", k, p, v)
			}
		}
	})
}
