package overlay

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/wire"
)

func comp(gid ids.GroupID, epoch uint64, members ...uint64) group.Composition {
	c := group.Composition{GroupID: gid, Epoch: epoch}
	for _, m := range members {
		c.Members = append(c.Members, ids.Identity{ID: ids.NodeID(m), PubKey: []byte{byte(m)}})
	}
	ids.SortIdentities(c.Members)
	return c
}

func TestLinkIndexCoversAllLinks(t *testing.T) {
	hc := 4
	seen := make(map[Link]bool)
	for i := 0; i < 2*hc; i++ {
		seen[LinkIndex(i, hc)] = true
	}
	if len(seen) != 2*hc {
		t.Fatalf("LinkIndex produced %d distinct links, want %d", len(seen), 2*hc)
	}
	// Wraps around.
	if LinkIndex(2*hc, hc) != LinkIndex(0, hc) {
		t.Error("LinkIndex should wrap modulo 2*hc")
	}
}

func TestNewNeighborsSelfLoop(t *testing.T) {
	self := comp(1, 1, 1)
	n := NewNeighbors(3, self)
	if n.NumCycles() != 3 {
		t.Fatalf("NumCycles = %d", n.NumCycles())
	}
	for c := 0; c < 3; c++ {
		if n.At(Link{Cycle: c, Dir: Pred}).GroupID != 1 || n.At(Link{Cycle: c, Dir: Succ}).GroupID != 1 {
			t.Error("bootstrap neighbors should be self on every cycle")
		}
	}
	if got := n.Distinct(1); len(got) != 0 {
		t.Errorf("Distinct(self) = %v, want empty", got)
	}
}

func TestNeighborsSetAndUpdate(t *testing.T) {
	self := comp(1, 1, 1)
	n := NewNeighbors(2, self)
	b := comp(2, 1, 5, 6, 7)
	n.Set(Link{Cycle: 0, Dir: Succ}, b)
	n.Set(Link{Cycle: 1, Dir: Pred}, b)

	newer := comp(2, 3, 5, 6)
	if changed := n.UpdateGroup(newer); changed != 2 {
		t.Fatalf("UpdateGroup changed %d links, want 2", changed)
	}
	if n.At(Link{Cycle: 0, Dir: Succ}).Epoch != 3 {
		t.Error("update not applied")
	}
	// Older epochs never overwrite newer ones.
	stale := comp(2, 2, 5)
	if changed := n.UpdateGroup(stale); changed != 0 {
		t.Errorf("stale update changed %d links, want 0", changed)
	}
	got := n.Distinct(1)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("Distinct = %v, want [2]", got)
	}
}

func TestNeighborsWireRoundTrip(t *testing.T) {
	n := NewNeighbors(2, comp(1, 1, 1, 2))
	n.Set(Link{Cycle: 1, Dir: Succ}, comp(7, 9, 4, 5, 6))
	var out Neighbors
	d := wire.NewDecoder(wire.Encode(n.Wire))
	out.Wire(d.Codec())
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if !out.At(Link{Cycle: 1, Dir: Succ}).Equal(n.At(Link{Cycle: 1, Dir: Succ})) {
		t.Error("round trip mismatch")
	}
	if out.NumCycles() != 2 {
		t.Error("cycle count mismatch")
	}
}

func TestGraphStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := NewGraph(64, 3, rng)
	for v := 0; v < g.V(); v++ {
		nb := g.Neighbors(v)
		if len(nb) != 6 {
			t.Fatalf("vertex %d has %d neighbors, want 6", v, len(nb))
		}
	}
	// Each cycle is Hamiltonian: following succ pointers visits all vertices.
	for c := 0; c < 3; c++ {
		visited := make(map[int]bool)
		cur := 0
		for i := 0; i < g.V(); i++ {
			visited[cur] = true
			cur = g.Neighbor(cur, Link{Cycle: c, Dir: Succ})
		}
		if len(visited) != g.V() {
			t.Fatalf("cycle %d visits %d/%d vertices", c, len(visited), g.V())
		}
		if cur != 0 {
			t.Fatalf("cycle %d does not close", c)
		}
	}
}

func TestGraphPredSuccInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := NewGraph(32, 2, rng)
	f := func(v uint8, c uint8) bool {
		vertex := int(v) % 32
		cycle := int(c) % 2
		s := g.Neighbor(vertex, Link{Cycle: cycle, Dir: Succ})
		return g.Neighbor(s, Link{Cycle: cycle, Dir: Pred}) == vertex
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGraphLogarithmicDiameter(t *testing.T) {
	// The H-graph has logarithmic diameter w.h.p. (paper §3.2, [51]).
	rng := rand.New(rand.NewSource(3))
	for _, v := range []int{32, 128, 512} {
		g := NewGraph(v, 3, rng)
		d := g.Diameter()
		bound := int(3*math.Log2(float64(v))) + 2
		if d > bound {
			t.Errorf("diameter(%d vertices) = %d, want <= %d", v, d, bound)
		}
	}
}

func TestWalkWithRandsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := NewGraph(100, 4, rng)
	rands := []uint64{4, 9, 1, 7, 3, 2}
	a := g.WalkWithRands(5, rands)
	b := g.WalkWithRands(5, rands)
	if a != b {
		t.Error("WalkWithRands must be deterministic")
	}
	if got := g.WalkWithRands(5, nil); got != 5 {
		t.Error("empty walk should stay put")
	}
}

func TestWalkEndpointSpread(t *testing.T) {
	// Long walks on a well-connected H-graph should spread endpoints widely.
	rng := rand.New(rand.NewSource(5))
	g := NewGraph(64, 4, rng)
	counts := make([]int, 64)
	for i := 0; i < 6400; i++ {
		counts[g.Walk(0, 12, rng)]++
	}
	zero := 0
	for _, c := range counts {
		if c == 0 {
			zero++
		}
	}
	if zero > 3 {
		t.Errorf("%d of 64 vertices never reached by 6400 walks", zero)
	}
}

// --- certificate chains ---

func TestCertChainVerify(t *testing.T) {
	scheme := crypto.SimScheme{}
	signers := make(map[ids.NodeID]crypto.Signer)
	mkComp := func(gid ids.GroupID, members ...uint64) group.Composition {
		c := group.Composition{GroupID: gid, Epoch: 1}
		for _, m := range members {
			id := ids.NodeID(m)
			if _, ok := signers[id]; !ok {
				signers[id] = scheme.NewSigner([]byte(fmt.Sprintf("cert-%d", m)))
			}
			c.Members = append(c.Members, ids.Identity{ID: id, PubKey: signers[id].Public()})
		}
		ids.SortIdentities(c.Members)
		return c
	}
	origin := mkComp(1, 1, 2, 3)
	hop1 := mkComp(2, 4, 5, 6)
	hop2 := mkComp(3, 7, 8, 9)
	walkID := crypto.Hash([]byte("walk"))

	endorse := func(step int, by group.Composition, next group.Composition, k int) []CertSig {
		var sigs []CertSig
		for i := 0; i < k; i++ {
			m := by.Members[i]
			sigs = append(sigs, SignStep(signers[m.ID], m.ID, walkID, step, next))
		}
		return sigs
	}

	chain := []StepCert{
		{Next: hop1, Sigs: endorse(0, origin, hop1, 2)},
		{Next: hop2, Sigs: endorse(1, hop1, hop2, 2)},
	}
	final, err := VerifyChain(scheme, origin, walkID, chain)
	if err != nil {
		t.Fatalf("VerifyChain: %v", err)
	}
	if final.GroupID != 3 {
		t.Errorf("final group = %v, want 3", final.GroupID)
	}

	// Insufficient endorsements fail.
	bad := []StepCert{{Next: hop1, Sigs: endorse(0, origin, hop1, 1)}}
	if _, err := VerifyChain(scheme, origin, walkID, bad); err == nil {
		t.Error("chain with minority endorsement verified")
	}

	// Tampered composition fails.
	tampered := []StepCert{{Next: hop2, Sigs: endorse(0, origin, hop1, 2)}}
	if _, err := VerifyChain(scheme, origin, walkID, tampered); err == nil {
		t.Error("tampered chain verified")
	}

	// Duplicate signatures do not double-count.
	dup := []StepCert{{Next: hop1, Sigs: append(endorse(0, origin, hop1, 1), endorse(0, origin, hop1, 1)...)}}
	if _, err := VerifyChain(scheme, origin, walkID, dup); err == nil {
		t.Error("duplicated single endorsement verified")
	}

	// Empty chain returns the origin itself.
	final, err = VerifyChain(scheme, origin, walkID, nil)
	if err != nil || final.GroupID != origin.GroupID {
		t.Error("empty chain should verify to origin")
	}
}

func TestCertChainSizeLinearInLength(t *testing.T) {
	c := comp(2, 1, 1, 2, 3, 4, 5)
	cert := StepCert{Next: c, Sigs: []CertSig{{Node: 1, Sig: make([]byte, 32)}}}
	one := ChainWireSize([]StepCert{cert})
	ten := ChainWireSize([]StepCert{cert, cert, cert, cert, cert, cert, cert, cert, cert, cert})
	if ten != 10*one {
		t.Errorf("chain size should be linear: 1=%d 10=%d", one, ten)
	}
}
