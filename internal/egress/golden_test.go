package egress

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
	"time"

	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/wire"
)

// goldenStreamSHA256 is the digest of every (recipient, copy) the script in
// TestPortOutputGolden makes one port send, in send order.
const goldenStreamSHA256 = "6bf74ae02daf0d715598dbcdc758e20a41021db544d7bd0dbac46a1accb530f8"

// TestPortOutputGolden drives one port — member 101 of a four-member vgroup,
// and the last of another — through a script that takes every path a copy
// leaves by, and pins what it sends byte for byte: each recipient and the
// copy's wire encoding (GroupMsg.Wire), hashed as one stream. The paths:
//
//   - a plain group flush (one item) and a carrier flush, from a majority
//     member and from a minority one, with a payload-less item among them;
//   - an origin-hop gossip item, with its bytes and without, alone and in a
//     carrier;
//   - relayed hops where 101 speaks first (its source's GroupID is below the
//     destination's): a carrier whose copy toward one served member is lean
//     at the tick (that member already holds every relayed payload) and
//     toward the other parks and leaves after two lags holding one of them; a
//     lone relayed item whose two parked copies leave, one toward a holder
//     and one not; and a parked copy that FlushAll sends;
//   - a relayed carrier where 101 speaks second: it waits one lag whole, then
//     its served copies leave with every item, built under Holds, and the
//     rest get the lean copy of what the link rule (Withdraw) leaves;
//   - ToNode from a majority member and from a minority one;
//   - Chained, ChainedTo and GroupAttach;
//   - a one-item and a many-item raw node flush.
//
// Any change to a copy's bytes, its recipient, the destination order or the
// number of copies moves the digest; so does a change to what is withheld.
func TestPortOutputGolden(t *testing.T) {
	const lag = 3 * time.Millisecond
	env := &portEnv{now: time.Second, rng: rand.New(rand.NewSource(7))}
	held := map[ids.NodeID]map[crypto.Digest]bool{}
	withdrawn := map[crypto.Digest]bool{}
	never := func() bool { return false }
	p := NewPort(Config{MaxBatch: 64, MaxBytes: 1 << 20, MaxWindow: 5 * time.Millisecond, Limit: 8,
		Now: env.Now, Arm: func(time.Duration) {}},
		Rules{Self: 101, Sync: true, Carrier: 15, CarrierOK: func(k group.Kind) bool { return k != 9 },
			MuteGroup: never, MuteDirect: never,
			Holds:    func(_ group.Key, m ids.NodeID, d crypto.Digest) bool { return held[m][d] },
			Withdraw: func(_ group.Composition, it group.BatchItem) bool { return withdrawn[it.Digest] },
			RelayLag: lag})
	p.Start(env)

	members := func(first ids.NodeID, n int) []ids.Identity {
		var out []ids.Identity
		for i := 0; i < n; i++ {
			out = append(out, ids.Identity{ID: first + ids.NodeID(i)})
		}
		return out
	}
	major := group.Composition{GroupID: 1, Epoch: 3, Members: members(101, 4)} // 101 is index 0
	minor := group.Composition{GroupID: 4, Epoch: 1, Members: members(98, 4)}  // 101 is index 3
	upper := group.Composition{GroupID: 5, Epoch: 2, Members: members(101, 4)} // 101 is index 0
	dst := group.Composition{GroupID: 2, Epoch: 300, Members: members(201, 8)}
	// served lists the members of dst 101 is the RelaySender of, from src.
	served := func(src group.Composition) []ids.NodeID {
		var out []ids.NodeID
		for j, m := range dst.Members {
			if group.RelaySender(src, dst, j) == 0 {
				out = append(out, m.ID)
			}
		}
		return out
	}
	mine, mineUp := served(major), served(upper)
	if len(mine) != 2 || len(mineUp) == 0 {
		t.Fatalf("member 101 relays to %d members of dst from major and %d from upper, the script wants 2 and some", len(mine), len(mineUp))
	}

	ordinary := func(tag string) group.BatchItem {
		return group.BatchItem{Kind: 3, MsgID: crypto.Hash([]byte("id-" + tag)), Payload: []byte("body-" + tag)}
	}
	gossip := func(tag string, relay, bytes bool) group.BatchItem {
		payload := []byte("gossip-" + tag)
		d := crypto.Hash(payload)
		it := group.BatchItem{Kind: 2, MsgID: d, Digest: d, DerivedID: true, Payload: payload, Relay: relay}
		if !bytes {
			it.Payload = nil
		}
		return it
	}
	raw := func(tag string) group.BatchItem {
		payload := []byte("raw-" + tag)
		return group.BatchItem{Kind: 16, MsgID: crypto.Hash(payload), Payload: payload, DerivedID: true}
	}
	round := func(src group.Composition, items ...group.BatchItem) {
		for _, it := range items {
			p.Group(src, dst, it)
		}
		p.FlushDeferred()
	}
	hold := func(member ids.NodeID, items ...group.BatchItem) {
		held[member] = map[crypto.Digest]bool{}
		for _, it := range items {
			held[member][it.Digest] = true
		}
	}

	// Plain and carrier flushes from a majority and a minority member; kind 9
	// is kept off carriers and leaves alone.
	nilPayload := ordinary("digest-only")
	nilPayload.Digest, nilPayload.Payload = crypto.Hash(nilPayload.Payload), nil
	round(major, ordinary("a"))
	round(minor, ordinary("b"))
	round(major, ordinary("c"), nilPayload, ordinary("d"))
	round(minor, ordinary("e"), ordinary("f"))
	alone := ordinary("alone")
	alone.Kind = 9
	round(major, alone)
	// The origin hop: a gossip vote with the bytes and one without, alone and
	// together.
	round(major, gossip("origin-1", false, true))
	round(major, gossip("origin-2", false, false))
	round(major, gossip("origin-3", false, true), gossip("origin-4", false, false))

	// A relayed carrier: mine[0] holds every relayed payload at the tick,
	// mine[1] comes to hold one of them while its copy is parked.
	r1, r2, r3 := gossip("relay-1", true, true), gossip("relay-2", true, true), gossip("relay-3", true, true)
	hold(mine[0], r1, r2, r3)
	round(major, r1, ordinary("beside"), r2, r3)
	hold(mine[1], r2)
	env.now += 2*lag - 1
	p.OnTimer() // not yet due
	env.now++
	p.OnTimer()
	// A lone relayed item parked toward both: one comes to hold it, one not.
	r4 := gossip("relay-4", true, true)
	hold(mine[0])
	hold(mine[1])
	round(major, r4)
	hold(mine[0], r4)
	env.now += 2 * lag
	p.OnTimer()
	// A relayed carrier and a relayed vote without bytes, sent by FlushAll
	// before the lag is up.
	round(major, gossip("relay-5", true, true), gossip("relay-6", true, false))
	p.FlushAll()
	if p.Parked() != 0 {
		t.Fatalf("%d batches still parked after FlushAll", p.Parked())
	}
	// A relayed carrier toward the lower GroupID: it waits one lag whole.
	// Meanwhile dst's votes make relay-7 redundant on the link, every member
	// comes to hold it, and one served member relay-8 too.
	r7, r8 := gossip("relay-7", true, true), gossip("relay-8", true, true)
	round(upper, r7, ordinary("turn"), r8)
	withdrawn[r7.Digest] = true
	for _, m := range dst.Members {
		hold(m.ID, r7)
	}
	hold(mineUp[0], r7, r8)
	env.now += lag - 1
	p.OnTimer() // not yet due
	env.now++
	p.OnTimer()

	// Node-addressed group messages and the certificate-mode sends.
	p.ToNode(major, 42, 5, crypto.Hash([]byte("snap-1")), []byte("snapshot-1"))
	p.ToNode(minor, 42, 5, crypto.Hash([]byte("snap-2")), []byte("snapshot-2"))
	p.Chained(major, dst, 6, crypto.Hash([]byte("walk")), []byte("walk-hop"), []byte("chain-a"))
	p.ChainedTo(major, 43, 7, crypto.Hash([]byte("reply")), []byte("walk-reply"), []byte("chain-b"))
	p.GroupAttach(major, dst, ordinary("attach-1"), []byte("share-1"))
	p.GroupAttach(minor, dst, ordinary("attach-2"), []byte("share-2"))

	// Raw traffic: the first item leaves alone at once, the rest as a carrier.
	env.now += time.Second
	for _, tag := range []string{"x", "y", "z"} {
		if err := p.EnqueueNodeWith(major, 44, raw(tag), ClassData, 0); err != nil {
			t.Fatal(err)
		}
	}
	p.FlushAll()

	h := sha256.New()
	for i, m := range env.sent {
		b := wire.Encode(m.Wire)
		h.Write(binary.BigEndian.AppendUint64(nil, uint64(env.to[i])))
		h.Write(binary.BigEndian.AppendUint32(nil, uint32(len(b))))
		h.Write(b)
	}
	if got, want := len(env.sent), 125; got != want {
		t.Errorf("the script sent %d copies, want %d", got, want)
	}
	if got, want := p.Withheld(), uint64(8); got != want {
		t.Errorf("the script withheld %d relayed payloads, want %d", got, want)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenStreamSHA256 {
		t.Errorf("the port's output stream hashes to\n %s\nwant\n %s", got, goldenStreamSHA256)
	}
}
