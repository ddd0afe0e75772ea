// Package overlay implements Atum's overlay layer structures (paper §3.2):
// the H-graph — a multigraph of vgroups composed of a constant number of
// random Hamiltonian cycles [51] — plus the per-vgroup neighbor view the
// protocol replicates, and random-walk certificate chains (§5.1).
//
// The protocol machinery that *uses* these structures (gossip, walks,
// shuffling, split/merge) lives in internal/core; this package also provides
// a standalone pure-graph H-graph model used by the Fig. 4 configuration
// guideline simulation.
package overlay

import (
	"fmt"
	"math/rand"

	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/wire"
)

// Direction distinguishes the two neighbors a vgroup has on each cycle.
type Direction uint8

// Cycle directions. Enums start at 1 so the zero value is detectably unset.
const (
	// Pred is the predecessor neighbor on a cycle.
	Pred Direction = iota + 1
	// Succ is the successor neighbor on a cycle.
	Succ
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case Pred:
		return "pred"
	case Succ:
		return "succ"
	default:
		return "dir?"
	}
}

// Link identifies one incident edge of a vgroup: a cycle index and a
// direction on that cycle. A vgroup in an H-graph with hc cycles has
// exactly 2·hc incident links (with multiplicity).
type Link struct {
	Cycle int
	Dir   Direction
}

// LinkIndex enumerates links deterministically: cycle-major, pred first.
func LinkIndex(i, hc int) Link {
	if hc <= 0 {
		return Link{}
	}
	i %= 2 * hc
	if i < 0 {
		i += 2 * hc
	}
	d := Pred
	if i%2 == 1 {
		d = Succ
	}
	return Link{Cycle: i / 2, Dir: d}
}

// Neighbors is a vgroup's local view of the H-graph: its predecessor and
// successor composition on every cycle. It is part of the replicated vgroup
// state, so all members hold identical copies.
type Neighbors struct {
	Preds []group.Composition
	Succs []group.Composition
}

// NewNeighbors returns a Neighbors view for hc cycles where the group is its
// own neighbor on every cycle (the bootstrap topology: a single vgroup forms
// a self-loop on each cycle).
func NewNeighbors(hc int, self group.Composition) Neighbors {
	n := Neighbors{
		Preds: make([]group.Composition, hc),
		Succs: make([]group.Composition, hc),
	}
	for c := 0; c < hc; c++ {
		n.Preds[c] = self
		n.Succs[c] = self
	}
	return n
}

// NumCycles returns the number of cycles in the view.
func (n Neighbors) NumCycles() int { return len(n.Preds) }

// At returns the neighbor composition on a link.
func (n Neighbors) At(l Link) group.Composition {
	if l.Cycle < 0 || l.Cycle >= n.NumCycles() {
		return group.Composition{}
	}
	if l.Dir == Pred {
		return n.Preds[l.Cycle]
	}
	return n.Succs[l.Cycle]
}

// Set replaces the neighbor composition on a link.
func (n *Neighbors) Set(l Link, c group.Composition) {
	if l.Cycle < 0 || l.Cycle >= n.NumCycles() {
		return
	}
	if l.Dir == Pred {
		n.Preds[l.Cycle] = c
	} else {
		n.Succs[l.Cycle] = c
	}
}

// UpdateGroup replaces every occurrence of the given group (any epoch) with
// the new composition and returns how many links changed. This is how
// neighbor reconfiguration notifications are applied.
func (n *Neighbors) UpdateGroup(c group.Composition) int {
	changed := 0
	for i := range n.Preds {
		if n.Preds[i].GroupID == c.GroupID && n.Preds[i].Epoch < c.Epoch {
			n.Preds[i] = c
			changed++
		}
		if n.Succs[i].GroupID == c.GroupID && n.Succs[i].Epoch < c.Epoch {
			n.Succs[i] = c
			changed++
		}
	}
	return changed
}

// Distinct returns the distinct neighbor group IDs (excluding self).
func (n Neighbors) Distinct(self ids.GroupID) []ids.GroupID {
	seen := make(map[ids.GroupID]bool)
	var out []ids.GroupID
	add := func(c group.Composition) {
		if c.GroupID != self && c.GroupID != 0 && !seen[c.GroupID] {
			seen[c.GroupID] = true
			out = append(out, c.GroupID)
		}
	}
	for i := range n.Preds {
		add(n.Preds[i])
		add(n.Succs[i])
	}
	return out
}

// Clone returns a deep copy, for a view that leaves for the application. The
// view itself holds its compositions by reference: they are never written.
func (n Neighbors) Clone() Neighbors {
	out := Neighbors{
		Preds: make([]group.Composition, len(n.Preds)),
		Succs: make([]group.Composition, len(n.Succs)),
	}
	for i := range n.Preds {
		out.Preds[i] = n.Preds[i].Clone()
		out.Succs[i] = n.Succs[i].Clone()
	}
	return out
}

// maxCycles bounds the cycle count a decoder takes from its input.
const maxCycles = 64

// Wire walks a Neighbors view in wire order: the cycle count, then each
// cycle's predecessor and successor.
func (n *Neighbors) Wire(c wire.Codec) {
	hc := c.Count(len(n.Preds), maxCycles)
	if c.Decoding() {
		n.Preds = make([]group.Composition, hc)
		n.Succs = make([]group.Composition, hc)
	}
	for i := range n.Preds {
		n.Preds[i].Wire(c)
		n.Succs[i].Wire(c)
	}
}

// --- Pure-graph H-graph model (Fig. 4 simulation, diameter checks) ---

// Graph is an H-graph over V vertices: hc independent random Hamiltonian
// cycles. Vertices model vgroups; the multigraph degree is 2·hc.
type Graph struct {
	v      int
	hc     int
	cycles [][]int // cycles[c][i] = vertex at position i of cycle c
	pos    [][]int // pos[c][vertex] = position of vertex in cycle c
}

// NewGraph builds an H-graph with v vertices and hc uniformly random
// Hamiltonian cycles.
func NewGraph(v, hc int, rng *rand.Rand) *Graph {
	if v < 1 || hc < 1 {
		panic(fmt.Sprintf("overlay: invalid H-graph dimensions v=%d hc=%d", v, hc))
	}
	g := &Graph{v: v, hc: hc,
		cycles: make([][]int, hc),
		pos:    make([][]int, hc),
	}
	for c := 0; c < hc; c++ {
		perm := rng.Perm(v)
		g.cycles[c] = perm
		g.pos[c] = make([]int, v)
		for i, vertex := range perm {
			g.pos[c][vertex] = i
		}
	}
	return g
}

// V returns the number of vertices.
func (g *Graph) V() int { return g.v }

// HC returns the number of cycles.
func (g *Graph) HC() int { return g.hc }

// Neighbor returns the neighbor of vertex on the given link.
func (g *Graph) Neighbor(vertex int, l Link) int {
	cyc := g.cycles[l.Cycle]
	p := g.pos[l.Cycle][vertex]
	if l.Dir == Succ {
		return cyc[(p+1)%g.v]
	}
	return cyc[(p-1+g.v)%g.v]
}

// Neighbors returns all 2·hc neighbors of a vertex, with multiplicity.
func (g *Graph) Neighbors(vertex int) []int {
	out := make([]int, 0, 2*g.hc)
	for i := 0; i < 2*g.hc; i++ {
		out = append(out, g.Neighbor(vertex, LinkIndex(i, g.hc)))
	}
	return out
}

// Walk performs a random walk of the given length from start, choosing a
// uniformly random incident link at each step, and returns the endpoint.
func (g *Graph) Walk(start, length int, rng *rand.Rand) int {
	cur := start
	for i := 0; i < length; i++ {
		cur = g.Neighbor(cur, LinkIndex(rng.Intn(2*g.hc), g.hc))
	}
	return cur
}

// WalkWithRands performs a walk consuming pre-generated random numbers, the
// way Atum's bulk-RNG walks do (§5.1).
func (g *Graph) WalkWithRands(start int, rands []uint64) int {
	cur := start
	for _, r := range rands {
		cur = g.Neighbor(cur, LinkIndex(int(r%uint64(2*g.hc)), g.hc))
	}
	return cur
}

// Diameter computes the exact diameter by BFS from every vertex.
// Intended for tests at moderate sizes.
func (g *Graph) Diameter() int {
	maxDist := 0
	dist := make([]int, g.v)
	queue := make([]int, 0, g.v)
	for s := 0; s < g.v; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(u) {
				if dist[w] < 0 {
					dist[w] = dist[u] + 1
					if dist[w] > maxDist {
						maxDist = dist[w]
					}
					queue = append(queue, w)
				}
			}
		}
	}
	return maxDist
}
