package core

// Coverage for the engine side of the unified egress scheduler: multi-kind
// batch carriers (gossip + walk + raw in one frame), flush-before-state-
// replacement for the walk and churn kinds (mirroring the PR-1 gossip
// guarantees), receiver-side dispatch including the raw allowlist, and the
// adaptive window's zero-latency idle path in the asynchronous engine.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"atum/internal/actor"
	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/overlay"
	"atum/internal/smr"
	"atum/internal/wire"
)

// egressTestMsg is a raw-message type registered in the wire extension
// range for these tests (tag 0xF0 is reserved for in-repo test codecs).
type egressTestMsg struct {
	Seq  uint64
	Body []byte
}

func (m *egressTestMsg) Wire(c wire.Codec) {
	c.Uint64(&m.Seq)
	c.VarBytes(&m.Body)
}

// RegisterRawMessage is idempotent for the same (tag, type) pair.
func registerEgressTestMsg() { RegisterRawMessage[egressTestMsg](0xF0) }

// TestRawExtensionRoundTrip pins the extension-tag frame format: registered
// types round-trip through the envelope codec, unregistered tags fail.
func TestRawExtensionRoundTrip(t *testing.T) {
	registerEgressTestMsg()
	msg := egressTestMsg{Seq: 42, Body: []byte("tier-2")}
	b, ok := encodeWire(msg, classExt)
	if !ok {
		t.Fatal("registered raw type not encodable")
	}
	if b[0] != wireEnvMagic || b[1] != 0xF0 || b[2] != wireEnvV1 {
		t.Fatalf("extension frame header = % x", b[:3])
	}
	v, err := decodeWire(b, classAny)
	if err != nil {
		t.Fatalf("decode extension frame: %v", err)
	}
	if !reflect.DeepEqual(v, msg) {
		t.Fatalf("round trip mismatch: %+v != %+v", v, msg)
	}
	// MessageCodec (the TCP transport codec) must cover it too.
	if _, ok := (MessageCodec{}).EncodeMessage(msg); !ok {
		t.Fatal("registered raw type not covered by MessageCodec")
	}
	// Unregistered extension tags are rejected, not crashed on.
	bad := append([]byte(nil), b...)
	bad[1] = 0xEF
	if _, err := decodeWire(bad, classAny); err == nil {
		t.Fatal("unregistered extension tag accepted")
	}
	// Unregistered types are not encodable.
	type unregistered struct{ X int }
	if _, ok := encodeWire(unregistered{}, classAny); ok {
		t.Fatal("unregistered type claimed wire-codable")
	}
}

// sendFields returns the fields of struct type typ that can reach a transport:
// a value with a Send(ids.NodeID, actor.Message) method, or a function of
// that shape.
func sendFields(typ reflect.Type) []string {
	send := reflect.TypeOf(func(ids.NodeID, actor.Message) {})
	var out []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type == send {
			out = append(out, f.Name)
			continue
		}
		for _, t := range []reflect.Type{f.Type, reflect.PointerTo(f.Type)} {
			m, ok := t.MethodByName("Send")
			if !ok {
				continue
			}
			in := 1 // a concrete type's method takes its receiver first
			if t.Kind() == reflect.Interface {
				in = 0
			}
			if m.Type.NumIn() == in+2 && m.Type.In(in) == send.In(0) && m.Type.In(in+1) == send.In(1) {
				out = append(out, f.Name)
				break
			}
		}
	}
	return out
}

// TestNodeHoldsNoTransport: the engine hands its actor.Env to the egress port
// at Start and keeps only the clock, timers, the log and the address book, so
// every send leaves through the port. No field of Node can reach a transport.
func TestNodeHoldsNoTransport(t *testing.T) {
	if got := sendFields(reflect.TypeOf(struct {
		env  actor.Env
		hook sendHook
		fn   func(ids.NodeID, actor.Message)
	}{})); len(got) != 3 {
		t.Fatalf("the check finds %v, want env, hook and fn: it would miss a transport", got)
	}
	if got := sendFields(reflect.TypeOf(Node{})); len(got) != 0 {
		t.Fatalf("Node fields %v can send past the egress port", got)
	}
}

// TestBatchCarriesThreeKinds pins the acceptance bar for the unified
// scheduler: gossip, walk, and raw items bound for the same destination
// leave in ONE batch carrier, and the receiver dispatches each correctly —
// votable kinds into its inbox, the raw item to OnRawMessage.
func TestBatchCarriesThreeKinds(t *testing.T) {
	registerEgressTestMsg()
	self := ids.NodeID(1)
	comp := testComp(7, 3, 1, 2, 3)
	nbr := testComp(9, 1, 4, 5, 6)
	n, env := memberNode(t, self, comp, nbr)

	// One gossip payload, one walk hop, one raw message, same destination.
	gossip := encodePayload(gossipPayload{BcastID: crypto.Hash([]byte("g")), Origin: self, Data: []byte("x")})
	n.sendGroup(comp, nbr, kindGossip, crypto.Hash(gossip), gossip)
	n.sendGroup(comp, nbr, kindWalk,
		walkMsgID(crypto.Hash([]byte("w")), 0, nbr.GroupID),
		encodePayload(walkPayload{WalkID: crypto.Hash([]byte("w")), Purpose: PurposeJoin,
			StepsLeft: 1, Rands: []uint64{1, 2}, Origin: comp.Clone()}))
	rawFrame, ok := encodeWire(egressTestMsg{Seq: 7, Body: []byte("raw")}, classExt)
	if !ok {
		t.Fatal("raw frame")
	}
	n.egress.EnqueueGroup(comp, nbr,
		group.BatchItem{Kind: kindRaw, MsgID: crypto.Hash(rawFrame), Payload: rawFrame}, true)

	if d, i := n.egress.Pending(); d != 1 || i != 3 {
		t.Fatalf("pending = %d/%d, want one destination holding all 3 kinds", d, i)
	}
	n.egress.FlushDeferred()

	var carrier group.GroupMsg
	found := false
	for _, m := range groupSends(env) {
		if m.Kind == kindBatch && m.Payload != nil {
			carrier, found = m, true
		}
	}
	if !found {
		t.Fatal("no full-payload batch carrier sent at the round tick")
	}
	inner, err := group.UnpackBatch(carrier)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[group.Kind]int{}
	for _, im := range inner {
		kinds[im.Kind]++
	}
	if kinds[kindGossip] != 1 || kinds[kindWalk] != 1 || kinds[kindRaw] != 1 {
		t.Fatalf("carrier kinds = %v, want one each of gossip/walk/raw", kinds)
	}

	// Receiver side: a member of the destination vgroup unpacks the carrier.
	// Raw items are dispatched to OnRawMessage without any voting; votable
	// kinds enter the inbox (observable: a majority of senders accepts them).
	var gotRaw []any
	recv, _ := memberNode(t, 4, nbr, comp)
	recv.cfg.Callbacks.OnRawMessage = func(_ ids.NodeID, msg any) { gotRaw = append(gotRaw, msg) }
	delivered := 0
	recv.cfg.Callbacks.Deliver = func(Delivery) { delivered++ }
	for _, sender := range comp.Members {
		recv.routeGroupMsg(sender.ID, carrier)
	}
	if len(gotRaw) != len(comp.Members) {
		t.Fatalf("raw item delivered %d times, want once per carrier copy (%d)", len(gotRaw), len(comp.Members))
	}
	if m, ok := gotRaw[0].(egressTestMsg); !ok || m.Seq != 7 {
		t.Fatalf("raw item decoded as %#v", gotRaw[0])
	}
	if delivered != 1 {
		t.Fatalf("inner gossip delivered %d times, want exactly 1 (majority-matched)", delivered)
	}
}

// TestEgressFlushesWalkAndChurnKindsBeforeReconfigure is the satellite
// regression test: pending walk and neighbor-update traffic must flush
// before the epoch bump, stamped with the enqueue-time composition — the
// same guarantee PR 1 established for gossip, now holding for every kind
// the scheduler carries.
func TestEgressFlushesWalkAndChurnKindsBeforeReconfigure(t *testing.T) {
	self := ids.NodeID(1)
	comp := testComp(7, 3, 1, 2, 3)
	nbr := testComp(9, 1, 4, 5, 6)
	n, env := memberNode(t, self, comp, nbr)

	n.sendGroup(comp, nbr, kindWalk,
		walkMsgID(crypto.Hash([]byte("w2")), 0, nbr.GroupID),
		encodePayload(walkPayload{WalkID: crypto.Hash([]byte("w2")), Purpose: PurposeJoin,
			StepsLeft: 2, Rands: []uint64{3, 4}, Origin: comp.Clone()}))
	n.sendGroup(comp, nbr, kindSetNeighbor,
		setNbrMsgID(comp, nbr.GroupID, 0, overlay.Pred),
		encodePayload(setNeighborPayload{Cycle: 0, Dir: overlay.Pred, Comp: comp.Clone()}))
	if d, i := n.egress.Pending(); d != 1 || i != 2 {
		t.Fatalf("pending = %d/%d, want 1/2", d, i)
	}

	joiner := ids.Identity{ID: 42, Addr: "t:42"}
	n.reconfigure(append(ids.CloneIdentities(comp.Members), joiner), causeJoin)
	if n.st.comp.Epoch != 4 {
		t.Fatalf("epoch = %d, want 4", n.st.comp.Epoch)
	}

	if sent := groupSends(env); len(sent) != 0 {
		t.Fatalf("%d group messages left before the round tick", len(sent))
	}
	n.egress.FlushDeferred()
	kinds := map[group.Kind]bool{}
	for _, m := range groupSends(env) {
		if m.Kind != kindBatch {
			continue
		}
		if m.SrcEpoch != 3 {
			t.Errorf("carrier stamped epoch %d, want the enqueue-time epoch 3", m.SrcEpoch)
		}
		inner, err := group.UnpackBatch(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, im := range inner {
			kinds[im.Kind] = true
		}
	}
	if !kinds[kindWalk] || !kinds[kindSetNeighbor] {
		t.Fatalf("flushed kinds = %v, want walk and setNeighbor out before the bump", kinds)
	}
}

// TestEgressFlushesBeforeMergeDissolve covers the remaining state-teardown
// path: a dissolving vgroup's pending egress traffic — including the gap-
// closing setNeighbor messages it emits while dissolving — leaves stamped
// with the dissolving composition before n.st is torn down.
func TestEgressFlushesBeforeMergeDissolve(t *testing.T) {
	self := ids.NodeID(1)
	comp := testComp(7, 3, 1, 2)
	nbr := testComp(9, 1, 4, 5, 6)
	n, env := memberNode(t, self, comp, nbr)
	absorber := testComp(9, 1, 4, 5, 6)

	// Queue a gossip payload, then dissolve mid-window.
	originGossip(n, Delivery{BcastID: crypto.Hash([]byte("pre-merge")), Origin: self, Data: []byte("x")})
	n.st.walkOrigins = append(n.st.walkOrigins, walkOrigin{
		WalkID: crypto.Hash([]byte("m")), Purpose: PurposeMerge, OriginComp: comp.Clone(),
	})
	n.applyMergeAccept(mergeAcceptPayload{Absorber: absorber.Clone()})

	if n.st != nil {
		t.Fatal("dissolve did not tear down the group state")
	}
	if d, i := n.egress.Pending(); d != 0 || i != 0 {
		t.Fatalf("pending after dissolve = %d/%d, want drained", d, i)
	}
	n.egress.FlushDeferred()
	sawGossip, sawSetNbr := false, false
	for _, m := range groupSends(env) {
		if m.SrcGroup != comp.GroupID || m.SrcEpoch != comp.Epoch {
			t.Errorf("dissolve-time message stamped %v/%d, want %v/%d",
				m.SrcGroup, m.SrcEpoch, comp.GroupID, comp.Epoch)
		}
		switch m.Kind {
		case kindGossip:
			sawGossip = true
		case kindSetNeighbor:
			sawSetNbr = true
		case kindBatch:
			inner, err := group.UnpackBatch(m)
			if err != nil {
				t.Fatal(err)
			}
			for _, im := range inner {
				switch im.Kind {
				case kindGossip:
					sawGossip = true
				case kindSetNeighbor:
					sawSetNbr = true
				}
			}
		}
	}
	if !sawGossip || !sawSetNbr {
		t.Fatalf("dissolve drained gossip=%v setNeighbor=%v, want both", sawGossip, sawSetNbr)
	}
}

// TestAsyncIdleBroadcastBypassesWindow pins the adaptive window's idle path
// in the asynchronous engine: the first gossip forward to a quiet neighbor
// transmits at enqueue time — no queueing, no timer, no added latency
// relative to the unbatched engine.
func TestAsyncIdleBroadcastBypassesWindow(t *testing.T) {
	self := ids.NodeID(1)
	comp := testComp(7, 3, 1, 2, 3)
	nbr := testComp(9, 1, 4, 5, 6)
	n, env := memberNode(t, self, comp, nbr, func(cfg *Config) { cfg.Mode = smr.ModeAsync })

	originGossip(n, Delivery{BcastID: crypto.Hash([]byte("idle-1")), Origin: self, Data: []byte("x")})
	if d, _ := n.egress.Pending(); d != 0 {
		t.Fatal("idle async broadcast was queued behind a window")
	}
	sent := 0
	for _, s := range env.sent {
		if m, ok := s.msg.(group.GroupMsg); ok && m.Kind == kindGossip {
			sent++
		}
	}
	if sent != nbr.N() {
		t.Fatalf("idle async broadcast sent %d copies immediately, want %d", sent, nbr.N())
	}

	// A same-instant burst, by contrast, coalesces behind the widened window.
	for i := 0; i < 4; i++ {
		originGossip(n, Delivery{
			BcastID: crypto.Hash([]byte(fmt.Sprintf("burst-%d", i))),
			Origin:  self, Data: []byte("y"),
		})
	}
	if _, items := n.egress.Pending(); items < 3 {
		t.Fatalf("burst queued %d items, want >= 3 coalescing behind the window", items)
	}
}

// TestSendRawRegisteredTypeBatches: raw messages ride the scheduler (bursts
// coalesce).
func TestSendRawRegisteredTypeBatches(t *testing.T) {
	registerEgressTestMsg()
	self := ids.NodeID(1)
	comp := testComp(7, 3, 1, 2, 3)
	nbr := testComp(9, 1, 4, 5, 6)
	n, env := memberNode(t, self, comp, nbr)

	// First send to an idle node: immediate, as a kindRaw group message.
	n.SendRawWith(4, egressTestMsg{Seq: 1, Body: []byte("a")}, SendOpts{})
	if len(env.sent) != 1 {
		t.Fatalf("idle SendRaw sent %d messages, want 1", len(env.sent))
	}
	if m, ok := env.sent[0].msg.(group.GroupMsg); !ok || m.Kind != kindRaw {
		t.Fatalf("idle SendRaw framed as %T, want kindRaw group message", env.sent[0].msg)
	}
	// A burst coalesces: only the leading send leaves before the window.
	for i := 0; i < 5; i++ {
		n.SendRawWith(4, egressTestMsg{Seq: uint64(2 + i), Body: []byte("b")}, SendOpts{})
	}
	if len(env.sent) >= 6 {
		t.Fatalf("burst SendRaw sent %d messages, want coalescing", len(env.sent))
	}
	if _, items := n.egress.Pending(); items < 4 {
		t.Fatalf("burst pending %d items, want >= 4", items)
	}
}

// TestRawNeverEntersInbox: a hostile batch carrier must not smuggle
// non-allowlisted kinds (e.g. snapshots) into the inbox, and raw items must
// not be votable.
func TestRawNeverEntersInbox(t *testing.T) {
	self := ids.NodeID(4)
	comp := testComp(9, 1, 4, 5, 6)
	src := testComp(7, 3, 1, 2, 3)
	n, _ := memberNode(t, self, comp, src)

	snapItem := group.BatchItem{
		Kind:    kindSnapshot,
		MsgID:   crypto.Hash([]byte("sneak")),
		Payload: []byte{0x01},
	}
	items := []group.BatchItem{snapItem}
	var carrier group.GroupMsg
	capture := func(_ ids.NodeID, msg actor.Message) {
		if m, ok := msg.(group.GroupMsg); ok {
			carrier = m
		}
	}
	group.SendBatchToNode(capture, src, 1, self, kindBatch, crypto.Hash([]byte("b")), items)
	for _, sender := range src.Members {
		n.handleBatch(sender.ID, carrier)
	}
	// The snapshot share must not have been observed: no tally, no phase
	// change, nothing accepted (the allowlist stops it at the door).
	if len(n.snaps) != 0 || n.inbox.Len() != 0 || n.phase != phaseMember {
		t.Fatal("non-allowlisted kind leaked through a batch carrier")
	}
}

// TestUnregisteredKindsNeverReachInbox: a kind outside the registry — never
// assigned (0, 200) or retired (17–19, which an old tree-on peer still sends)
// — buys neither an inbox entry nor a handler, standalone or inside a
// carrier. Every copy carries a well-formed gossip payload from a majority of
// the source vgroup, so the kind is the only thing wrong with it.
func TestUnregisteredKindsNeverReachInbox(t *testing.T) {
	self := ids.NodeID(4)
	comp := testComp(9, 1, 4, 5, 6)
	src := testComp(7, 3, 1, 2, 3)
	n, _ := memberNode(t, self, comp, src)
	var delivered []string
	n.cfg.Callbacks.Deliver = func(d Delivery) { delivered = append(delivered, string(d.Data)) }

	stray := []group.Kind{0, 17, 18, 19, 200}
	item := func(kind group.Kind, data string) group.BatchItem {
		payload := encodePayload(gossipPayload{BcastID: crypto.Hash([]byte(data)), Origin: 1, Data: []byte(data)})
		return group.BatchItem{Kind: kind, MsgID: crypto.Hash(payload), Payload: payload}
	}

	before := n.inbox.Len()
	for _, kind := range stray {
		it := item(kind, fmt.Sprintf("standalone-%d", kind))
		for _, sender := range src.Members {
			n.routeGroupMsg(sender.ID, group.GroupMsg{
				SrcGroup: src.GroupID, SrcEpoch: src.Epoch,
				DstGroup: comp.GroupID, DstEpoch: comp.Epoch,
				Kind: it.Kind, MsgID: it.MsgID,
				PayloadDigest: crypto.Hash(it.Payload), Payload: it.Payload,
			})
		}
	}
	if got := n.inbox.Len(); got != before {
		t.Errorf("standalone unregistered kinds left %d inbox entries", got-before)
	}
	if len(delivered) != 0 {
		t.Errorf("standalone unregistered kinds reached a handler: delivered %q", delivered)
	}

	var items []group.BatchItem
	for _, kind := range stray {
		items = append(items, item(kind, fmt.Sprintf("carried-%d", kind)))
	}
	gossip := item(kindGossip, "carried-gossip")
	items = append(items, gossip)
	for _, sender := range src.Members {
		var carrier group.GroupMsg
		group.SendBatchToNode(func(_ ids.NodeID, m actor.Message) {
			carrier = m.(group.GroupMsg)
		}, src, sender.ID, self, kindBatch, crypto.Hash([]byte("carrier")), items)
		n.routeGroupMsg(sender.ID, carrier)
	}
	if got := n.inbox.Len(); got != before || !n.delivered.has(gossip.MsgID) {
		t.Errorf("carrier left %d inbox entries, its gossip item delivered %v: want no entry, the digest in the index",
			got-before, n.delivered.has(gossip.MsgID))
	}
	if len(delivered) != 1 || delivered[0] != "carried-gossip" {
		t.Errorf("carrier delivered %q, want only its gossip item", delivered)
	}
}

// TestGossipCopyUnderAnotherMsgIDDropped: a gossip message is identified by
// its payload digest, so a copy whose MsgID is anything else comes from no
// correct member — and no SettleAll would ever cover the entry it opened. A whole
// source vgroup sends such copies, well-formed otherwise, standalone and inside
// a carrier next to a proper one: they buy no inbox entry and reach no handler.
func TestGossipCopyUnderAnotherMsgIDDropped(t *testing.T) {
	self := ids.NodeID(4)
	comp := testComp(9, 1, 4, 5, 6)
	src := testComp(7, 3, 1, 2, 3)
	n, _ := memberNode(t, self, comp, src)
	var delivered []string
	n.cfg.Callbacks.Deliver = func(d Delivery) { delivered = append(delivered, string(d.Data)) }
	item := func(data string, proper bool) group.BatchItem {
		payload := encodePayload(gossipPayload{BcastID: crypto.Hash([]byte(data)), Origin: 1, Data: []byte(data)})
		it := group.BatchItem{Kind: kindGossip, MsgID: crypto.Hash([]byte("id of " + data)), Payload: payload}
		if proper {
			it.MsgID = crypto.Hash(payload)
		}
		return it
	}

	before := n.inbox.Len()
	it := item("standalone", false)
	for _, sender := range src.Members {
		n.routeGroupMsg(sender.ID, group.GroupMsg{
			SrcGroup: src.GroupID, SrcEpoch: src.Epoch,
			DstGroup: comp.GroupID, DstEpoch: comp.Epoch,
			Kind: it.Kind, MsgID: it.MsgID,
			PayloadDigest: crypto.Hash(it.Payload), Payload: it.Payload,
		})
	}
	if got := n.inbox.Len(); got != before || len(delivered) != 0 {
		t.Errorf("standalone: %d inbox entries, delivered %q; want neither", got-before, delivered)
	}

	items := []group.BatchItem{item("carried", false), item("carried-proper", true)}
	for _, sender := range src.Members {
		var carrier group.GroupMsg
		group.SendBatchToNode(func(_ ids.NodeID, m actor.Message) {
			carrier = m.(group.GroupMsg)
		}, src, sender.ID, self, kindBatch, crypto.Hash([]byte("carrier")), items)
		n.routeGroupMsg(sender.ID, carrier)
	}
	if got := n.inbox.Len(); got != before || !n.delivered.has(items[1].MsgID) || n.delivered.digests.len() != 1 {
		t.Errorf("carrier left %d inbox entries, %d digests delivered: want no entry, the item identified by its digest in the index alone",
			got-before, n.delivered.digests.len())
	}
	if len(delivered) != 1 || delivered[0] != "carried-proper" {
		t.Errorf("carrier delivered %q, want only the item identified by its digest", delivered)
	}
}

// TestKindTagMismatchDropped: the carrier allowlist and the inbox are keyed by
// the group kind, so a payload whose envelope tag is not that kind's table row
// must not reach the handler of the type it really holds. A source-vgroup
// majority sends kindGossip items that carry a merge request (whose handler
// proposes an input vote) and a snapshot (whose handler parks it), standalone
// and inside a carrier: nothing is proposed, tallied or delivered, and the
// well-formed gossip item sharing the carrier still is.
func TestKindTagMismatchDropped(t *testing.T) {
	self := ids.NodeID(4)
	comp := testComp(9, 1, 4, 5, 6)
	src := testComp(7, 3, 1, 2, 3)
	n, _ := memberNode(t, self, comp, src)
	rec := &recordingReplica{}
	n.replica = rec
	var delivered []string
	n.cfg.Callbacks.Deliver = func(d Delivery) { delivered = append(delivered, string(d.Data)) }

	// Identified as gossip is, by the payload digest, so that the tag is the
	// only thing wrong with them; label keeps the two rounds' payloads apart.
	mismatched := func(label uint64) []group.BatchItem {
		merge := encodePayload(mergeRequestPayload{From: testComp(src.GroupID, src.Epoch+label, 1, 2, 3)})
		snapshot := encodePayload(snapshotPayload{State: stateSnapshot{Comp: src.Clone(), WalkSeq: label}})
		return []group.BatchItem{
			{Kind: kindGossip, MsgID: crypto.Hash(merge), Payload: merge},
			{Kind: kindGossip, MsgID: crypto.Hash(snapshot), Payload: snapshot},
		}
	}
	check := func(when string, wantDelivered ...string) {
		t.Helper()
		if len(rec.proposed) != 0 {
			t.Errorf("%s: %d operations proposed, want none (a merge request under kindGossip reached voteInput)", when, len(rec.proposed))
		}
		if len(n.snaps) != 0 {
			t.Errorf("%s: %d snapshots tallied, want none (a snapshot under kindGossip reached the snapshot table)", when, len(n.snaps))
		}
		if !slices.Equal(delivered, wantDelivered) {
			t.Errorf("%s: delivered %q, want %q", when, delivered, wantDelivered)
		}
	}

	for _, it := range mismatched(1) {
		for _, sender := range src.Members {
			n.routeGroupMsg(sender.ID, group.GroupMsg{
				SrcGroup: src.GroupID, SrcEpoch: src.Epoch,
				DstGroup: comp.GroupID, DstEpoch: comp.Epoch,
				Kind: it.Kind, MsgID: it.MsgID,
				PayloadDigest: crypto.Hash(it.Payload), Payload: it.Payload,
			})
		}
	}
	check("standalone")

	carried := encodePayload(gossipPayload{BcastID: crypto.Hash([]byte("carried-gossip")), Origin: 1, Data: []byte("carried-gossip")})
	items := append(mismatched(2), group.BatchItem{Kind: kindGossip, MsgID: crypto.Hash(carried), Payload: carried})
	for _, sender := range src.Members {
		var carrier group.GroupMsg
		group.SendBatchToNode(func(_ ids.NodeID, m actor.Message) {
			carrier = m.(group.GroupMsg)
		}, src, sender.ID, self, kindBatch, crypto.Hash([]byte("carrier")), items)
		n.routeGroupMsg(sender.ID, carrier)
	}
	check("inside a carrier", "carried-gossip")
}

// TestApplyCommittedRefusesNonOps: operation data is decoded as an SMR op or
// not at all — a node-level message or a group payload in its place is
// dropped before the transition function (or OnApply) sees it.
func TestApplyCommittedRefusesNonOps(t *testing.T) {
	comp := testComp(9, 1, 4, 5, 6)
	n, _ := memberNode(t, 4, comp, testComp(7, 3, 1, 2, 3))
	var applied []string
	n.cfg.Callbacks.OnApply = func(_, _ uint64, _ [32]byte, what string) { applied = append(applied, what) }
	for _, v := range []any{
		Heartbeat{GroupID: comp.GroupID, Epoch: comp.Epoch},
		gossipPayload{BcastID: crypto.Hash([]byte("x")), Origin: 5, Data: []byte("x")},
	} {
		n.applyCommitted(smr.Operation{Proposer: 5, OpID: 1, Data: encodePayload(v)})
	}
	if len(applied) != 0 {
		t.Fatalf("non-op data reached the transition function: %q", applied)
	}
	n.applyCommitted(smr.Operation{Proposer: 5, OpID: 2, Data: encodePayload(splitOp{GroupID: comp.GroupID, Epoch: comp.Epoch})})
	if len(applied) != 1 {
		t.Fatalf("a real op was applied %d times, want once", len(applied))
	}
}

// TestRawItemRejectsEngineFrames: a kindRaw payload must be an extension-tag
// frame — a hostile peer must not reach OnRawMessage with engine-internal
// payload types (nor buy decode work on them) through the raw path.
func TestRawItemRejectsEngineFrames(t *testing.T) {
	self := ids.NodeID(4)
	comp := testComp(9, 1, 4, 5, 6)
	src := testComp(7, 3, 1, 2, 3)
	n, _ := memberNode(t, self, comp, src)
	var got []any
	n.cfg.Callbacks.OnRawMessage = func(_ ids.NodeID, msg any) { got = append(got, msg) }

	engineFrame := encodePayload(snapshotPayload{})
	n.handleRawItem(1, engineFrame)
	n.handleRawItem(1, []byte{0x01, 0x02})
	n.handleRawItem(1, nil)
	if len(got) != 0 {
		t.Fatalf("engine/garbage frames reached OnRawMessage: %#v", got)
	}

	registerEgressTestMsg()
	extFrame, _ := encodeWire(egressTestMsg{Seq: 1}, classExt)
	n.handleRawItem(1, extFrame)
	if len(got) != 1 {
		t.Fatal("extension frame did not reach OnRawMessage")
	}
}

// TestSendRoutesByWireRow: every group kind leaves a vgroup by one way, the
// group queue, and the wire table's carrierOK column is the receiver's
// allowlist. Three checks:
//   - every kind a sendGroup call site of this package passes, and gossip,
//     which forwardGossip hands Port.Group itself, has a row a carrier may
//     deliver (the call sites are read from the source);
//   - sent to one neighbour in one round, all of those kinds arrive in one
//     carrier, and the receiver's handleBatch refuses none of them;
//   - the receiver refuses each node-addressed kind (walk result, snapshot,
//     join redirect) inside a carrier: those leave through ToNode, Chained and
//     ChainedTo, never through sendGroup, and their handlers assume a
//     standalone copy.
func TestSendRoutesByWireRow(t *testing.T) {
	carried := map[string]group.Kind{"kindGossip": kindGossip, "kindWalk": kindWalk,
		"kindWalkBackward": kindWalkBackward, "kindNeighborUpdate": kindNeighborUpdate,
		"kindSetNeighbor": kindSetNeighbor, "kindCycleAssign": kindCycleAssign,
		"kindExchangeConfirm": kindExchangeConfirm, "kindExchangeCancel": kindExchangeCancel,
		"kindMergeRequest": kindMergeRequest, "kindMergeAccept": kindMergeAccept, "kindMergeReject": kindMergeReject}
	nodeAddressed := []group.Kind{kindWalkResult, kindSnapshot, kindJoinRedirect}

	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	sites := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(x ast.Node) bool {
			call, _ := x.(*ast.CallExpr)
			if call == nil {
				return true
			}
			if sel, _ := call.Fun.(*ast.SelectorExpr); sel == nil || sel.Sel.Name != "sendGroup" {
				return true
			}
			sites++
			kind, _ := call.Args[2].(*ast.Ident)
			if kind == nil || carried[kind.Name] == 0 {
				t.Errorf("%s: sendGroup passes %s, not a kind of this test's carried list", name, types.ExprString(call.Args[2]))
			}
			return true
		})
	}
	if sites < 10 {
		t.Fatalf("found %d sendGroup call sites: the source scan is broken", sites)
	}
	for name, kind := range carried {
		if r := rowByKind[kind]; r == nil || !r.carrierOK {
			t.Errorf("%s: a vgroup sends it, and its row does not let a carrier deliver it", name)
		}
	}

	comp := testComp(7, 3, 1, 2, 3)
	nbr := testComp(9, 1, 4, 5, 6)
	sender, senderEnv := memberNode(t, 1, comp, nbr)
	for _, kind := range carried {
		r := rowByKind[kind]
		sender.sendGroup(comp, nbr, kind, crypto.Hash([]byte{byte(kind)}), encodePayload(r.proto))
	}
	if early := len(groupSends(senderEnv)); early != 0 {
		t.Fatalf("%d copies left before the tick", early)
	}
	sender.egress.FlushDeferred()
	recv, recvEnv := memberNode(t, 4, nbr, comp)
	var carriers []group.GroupMsg
	for _, s := range senderEnv.sent {
		if s.to != 4 {
			continue
		}
		m := s.msg.(group.GroupMsg)
		if m.Kind == kindBatch {
			carriers = append(carriers, m)
		}
		recv.Receive(1, m)
	}
	if len(carriers) != 1 {
		t.Fatalf("%d carriers reached the receiver, want one holding every kind", len(carriers))
	}
	var kinds []group.Kind
	group.EachInBatch(carriers[0], func(im group.GroupMsg) { kinds = append(kinds, im.Kind) })
	if len(kinds) != len(carried) {
		t.Errorf("the carrier holds kinds %v, want all %d", kinds, len(carried))
	}
	for _, line := range recvEnv.logs {
		if strings.Contains(line, "not batchable") {
			t.Errorf("receiver refused a carried item: %s", line)
		}
	}

	var items []group.BatchItem
	for _, kind := range nodeAddressed {
		items = append(items, group.BatchItem{Kind: kind, MsgID: crypto.Hash([]byte{byte(kind)}),
			Payload: encodePayload(rowByKind[kind].proto)})
	}
	hdr := group.GroupMsg{SrcGroup: comp.GroupID, SrcEpoch: comp.Epoch, DstGroup: nbr.GroupID, DstEpoch: nbr.Epoch}
	smuggled, _ := group.Copy(hdr, kindBatch, items, group.CopyRule{Full: true})
	recvEnv.logs = nil
	recv.Receive(1, smuggled)
	for _, kind := range nodeAddressed {
		want := fmt.Sprintf("kind %d is not batchable", kind)
		if !slices.ContainsFunc(recvEnv.logs, func(l string) bool { return strings.Contains(l, want) }) {
			t.Errorf("kind %d inside a carrier was not refused; logs %q", kind, recvEnv.logs)
		}
	}
}
