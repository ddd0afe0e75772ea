package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/wire"
)

// addressedIdentity is node id with an address and a public key of its own.
func addressedIdentity(id uint64) ids.Identity {
	return ids.Identity{
		ID:     ids.NodeID(id),
		Addr:   fmt.Sprintf("10.0.%d.%d:7000", id/256, id%256),
		PubKey: simScheme().NewSigner(fmt.Appendf(nil, "share-test-%d", id)).Public(),
	}
}

// addressedComp is a composition of addressedIdentity members.
func addressedComp(gid ids.GroupID, epoch uint64, members ...uint64) group.Composition {
	c := group.Composition{GroupID: gid, Epoch: epoch, Members: make([]ids.Identity, len(members))}
	for i, m := range members {
		c.Members[i] = addressedIdentity(m)
	}
	ids.SortIdentities(c.Members)
	return c
}

// decoded returns c as a node receives it: decoded from its encoding, so
// every member's address and key are bytes of their own.
func decoded(t testing.TB, c group.Composition) group.Composition {
	t.Helper()
	var out group.Composition
	d := wire.NewDecoder(wire.Encode(c.Wire))
	out.Wire(d.Codec())
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	return out
}

// sharesBytes reports whether a and b hold their address and key in the same
// memory.
func sharesBytes(a, b ids.Identity) bool {
	return unsafe.StringData(a.Addr) == unsafe.StringData(b.Addr) &&
		unsafe.SliceData(a.PubKey) == unsafe.SliceData(b.PubKey)
}

// TestLearnCompSharesMembersAcrossEpochs: two epochs of one vgroup, each
// decoded on its own, are learned; every member the two name is held once —
// its address and key in the same bytes — and the newcomer keeps its own. The
// decoded list is never written: the shared composition gets a fresh one.
// Learning either epoch again returns the stored composition.
func TestLearnCompSharesMembersAcrossEpochs(t *testing.T) {
	n, _ := memberNode(t, 1, testComp(7, 3, 1, 2, 3), testComp(9, 1, 4, 5, 6))
	first := n.learnComp(decoded(t, addressedComp(9, 2, 4, 5, 6, 7)))
	in := decoded(t, addressedComp(9, 3, 4, 5, 7, 8))
	before := make([]*byte, len(in.Members))
	for i, m := range in.Members {
		before[i] = unsafe.SliceData(m.PubKey)
	}
	next := n.learnComp(in)

	if !next.Equal(in) {
		t.Fatalf("learnComp returned %v, want a composition Equal to its input", next.Members)
	}
	if unsafe.SliceData(next.Members) == unsafe.SliceData(in.Members) {
		t.Fatal("the shared composition kept the decoded member list")
	}
	for i, m := range in.Members {
		if unsafe.SliceData(m.PubKey) != before[i] {
			t.Fatalf("the decoded member list was written at %d", i)
		}
	}
	for _, m := range next.Members {
		i := first.Index(m.ID)
		if shared := i >= 0 && sharesBytes(first.Members[i], m); shared != (m.ID != 8) {
			t.Errorf("member %v shares its bytes with epoch 2: %v, want %v", m.ID, shared, m.ID != 8)
		}
	}
	if cap(next.Members) != len(next.Members) {
		t.Errorf("the shared list holds %d slots for %d members", cap(next.Members), len(next.Members))
	}
	for _, c := range []group.Composition{first, next} {
		again := n.learnComp(decoded(t, c))
		stored, _ := n.comps.exact(c.Key())
		if unsafe.SliceData(again.Members) != unsafe.SliceData(c.Members) || unsafe.SliceData(stored.Members) != unsafe.SliceData(c.Members) {
			t.Errorf("learning epoch %d again did not return the stored composition", c.Epoch)
		}
	}
}

// TestLearnCompKeepsEachKeyOfOneNodeID: compositions naming one NodeID under
// two keys — a re-keying, honest or Byzantine — each keep their own key, and
// each verifies a signature under that key and not under the other. So does a
// neighbour composition naming one of the node's own fellow members under
// another key.
func TestLearnCompKeepsEachKeyOfOneNodeID(t *testing.T) {
	own := addressedComp(7, 3, 1, 2, 3)
	n, _ := memberNode(t, 1, own, testComp(9, 1, 4, 5, 6))
	n.st.comp = n.learnComp(decoded(t, own))
	signerA, signerB := simScheme().NewSigner([]byte("key a")), simScheme().NewSigner([]byte("key b"))
	withKey := func(c group.Composition, id ids.NodeID, s crypto.Signer) group.Composition {
		c.Members[c.Index(id)].PubKey = s.Public()
		return decoded(t, c)
	}
	a := n.learnComp(withKey(addressedComp(9, 2, 4, 5, 6), 5, signerA))
	b := n.learnComp(withKey(addressedComp(9, 3, 4, 5, 6), 5, signerB))
	c := n.learnComp(withKey(addressedComp(11, 1, 2, 20, 21), 2, signerB))

	msg := []byte("signed under one key")
	sigA, sigB := signerA.Sign(msg), signerB.Sign(msg)
	for _, tc := range []struct {
		name     string
		comp     group.Composition
		id       ids.NodeID
		own, not []byte
	}{
		{"epoch 2's n5", a, 5, sigA, sigB},
		{"epoch 3's n5", b, 5, sigB, sigA},
		{"g11's n2", c, 2, sigB, nil},
	} {
		stored, ok := n.comps.exact(tc.comp.Key())
		if !ok {
			t.Fatalf("%s: composition %v not stored", tc.name, tc.comp.Key())
		}
		key := stored.Members[stored.Index(tc.id)].PubKey
		if !simScheme().Verify(key, msg, tc.own) {
			t.Errorf("%s: its own signature does not verify under its stored key", tc.name)
		}
		if tc.not != nil && simScheme().Verify(key, msg, tc.not) {
			t.Errorf("%s: the other key's signature verifies under its stored key", tc.name)
		}
	}
	if key := n.st.comp.Members[n.st.comp.Index(2)].PubKey; !simScheme().Verify(key, msg, simScheme().NewSigner([]byte("share-test-2")).Sign(msg)) {
		t.Error("the own composition's n2 lost its key")
	}
	if !sharesBytes(a.Members[a.Index(4)], b.Members[b.Index(4)]) {
		t.Error("n4, under one key in both epochs, is not shared")
	}
}

// TestReconfiguredMemberListsAreExactLength: each reconfiguration builds a
// member list of exactly the new composition's length — no append slack is
// kept for the composition's life — and so does every composition stored.
func TestReconfiguredMemberListsAreExactLength(t *testing.T) {
	n, _ := memberNode(t, 1, testComp(7, 3, 1, 2, 3), testComp(9, 1, 4, 5, 6))
	check := func(step string) {
		t.Helper()
		if c := n.st.comp; cap(c.Members) != len(c.Members) {
			t.Errorf("after %s: %d members in %d slots", step, len(c.Members), cap(c.Members))
		}
		for _, list := range n.comps.byGroup {
			for _, c := range list {
				if cap(c.Members) != len(c.Members) {
					t.Errorf("after %s: stored %v/%d holds %d members in %d slots", step, c.GroupID, c.Epoch, len(c.Members), cap(c.Members))
				}
			}
		}
	}
	join := func(id uint64) {
		n.st.pendingJoins = append(n.st.pendingJoins, pendingJoin{Joiner: addressedIdentity(id), Expected: true})
		n.processPendingJoins()
	}
	epoch := n.st.comp.Epoch
	join(10)
	check("a join")
	n.applyLeave(leaveOp{GroupID: 7, Node: 10})
	check("a leave")
	walk := crypto.Hash([]byte("exchange"))
	n.st.pendingExch = append(n.st.pendingExch, pendingExchange{WalkID: walk, Partner: n.st.comp.Members[1], Member: addressedIdentity(20)})
	n.applyExchangeConfirm(exchangeConfirmPayload{WalkID: walk})
	check("an exchange")
	n.applyEvict(evictVoteOp{GroupID: 7, Target: 3, Epoch: n.st.comp.Epoch})
	check("an eviction")
	from := decoded(t, addressedComp(11, 5, 30, 31, 32))
	n.applyMergeRequest(from.Key(), crypto.Hash([]byte("merge")), mergeRequestPayload{From: from})
	check("a merge")
	join(40)
	join(41)
	if n.st.comp.N() <= n.cfg.Params.GMax || n.st.comp.Epoch != epoch+7 {
		t.Fatalf("%d members at epoch %d before the split, want more than %d at %d", n.st.comp.N(), n.st.comp.Epoch, n.cfg.Params.GMax, epoch+7)
	}
	n.applySplit(splitOp{GroupID: 7, Epoch: n.st.comp.Epoch})
	if n.st.comp.N() > n.cfg.Params.GMax {
		t.Fatalf("no split: %d members", n.st.comp.N())
	}
	check("a split")
}

// TestCompositionStoreBytesPerMember weighs the heap a node's composition
// store holds per member slot when it learns 13 vgroups × 4 epochs of 7
// members each, one member changed per epoch — about what a node of the
// benchmark's workloads holds — every composition decoded on its own as it
// arrives from the network.
func TestCompositionStoreBytesPerMember(t *testing.T) {
	const groups, epochs, size = 13, 4, 7
	var frames [][]byte
	for g := range groups {
		base := uint64(1000 * (g + 1))
		members := make([]uint64, size)
		for i := range members {
			members[i] = base + uint64(i)
		}
		for e := range epochs {
			if e > 0 {
				members[e%size] = base + uint64(size+e) // one member leaves, one joins
			}
			c := addressedComp(ids.GroupID(100+g), uint64(e+1), members...)
			frames = append(frames, wire.Encode(c.Wire))
		}
	}
	// The least of three fills, each into a fresh node: goroutines other tests
	// left running only ever add to a fill's count. Two collections before
	// each fill empty the sync.Pool victim caches.
	least := math.Inf(1)
	for range 3 {
		n, _ := memberNode(t, 1, testComp(7, 3, 1, 2, 3), testComp(9, 1, 4, 5, 6))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		for _, f := range frames {
			var c group.Composition
			c.Wire(wire.NewDecoder(f).Codec())
			n.learnComp(c)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(n)
		least = min(least, float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/(groups*epochs*size))
	}
	t.Logf("the composition store holds %.1f B per member slot", least)
	if least > 84 {
		t.Errorf("the composition store holds %.1f B per member slot, want at most 84", least)
	}
}
