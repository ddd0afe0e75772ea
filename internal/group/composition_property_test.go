package group

// Property tests on the composition type, whose canonical encoding the whole
// group layer leans on: digests key group-message majorities, so any
// encode/decode asymmetry or ordering sensitivity would silently break
// message acceptance.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"atum/internal/ids"
	"atum/internal/wire"
)

// genComposition builds a pseudo-random composition from quick's inputs.
func genComposition(gid uint64, epoch uint64, memberSeeds []uint16) Composition {
	c := Composition{GroupID: ids.GroupID(gid%1024 + 1), Epoch: epoch % 1024}
	seen := make(map[ids.NodeID]bool)
	for i, s := range memberSeeds {
		if len(c.Members) == 24 {
			break
		}
		id := ids.NodeID(s%512 + 1)
		if seen[id] {
			continue
		}
		seen[id] = true
		pk := []byte{byte(s), byte(s >> 8), byte(i)}
		c.Members = append(c.Members, ids.Identity{ID: id, Addr: "x", PubKey: pk})
	}
	ids.SortIdentities(c.Members)
	return c
}

func TestCompositionWireRoundTripProperty(t *testing.T) {
	property := func(gid, epoch uint64, memberSeeds []uint16) bool {
		c := genComposition(gid, epoch, memberSeeds)
		var out Composition
		d := wire.NewDecoder(wire.Encode(c.Wire))
		out.Wire(d.Codec())
		if d.Finish() != nil {
			return false
		}
		return c.Equal(out) && out.Equal(c)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCompositionDigestPermutationInvariant(t *testing.T) {
	// Digest must not depend on the order identities were collected in:
	// every member sorts before digesting, so shuffled inputs of the same
	// set produce the same digest.
	property := func(gid, epoch uint64, memberSeeds []uint16, permSeed int64) bool {
		c := genComposition(gid, epoch, memberSeeds)
		shuffled := c.Clone()
		rng := rand.New(rand.NewSource(permSeed))
		rng.Shuffle(len(shuffled.Members), func(i, j int) {
			shuffled.Members[i], shuffled.Members[j] = shuffled.Members[j], shuffled.Members[i]
		})
		ids.SortIdentities(shuffled.Members)
		return c.Digest() == shuffled.Digest()
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCompositionDigestSensitivity(t *testing.T) {
	// Any change — group, epoch, membership — must change the digest.
	base := genComposition(5, 9, []uint16{10, 20, 30, 40})
	mut := []Composition{}

	c := base.Clone()
	c.GroupID++
	mut = append(mut, c)

	c = base.Clone()
	c.Epoch++
	mut = append(mut, c)

	c = base.Clone()
	c.Members = c.Members[:len(c.Members)-1]
	mut = append(mut, c)

	c = base.Clone()
	c.Members[0].PubKey = []byte("evil")
	mut = append(mut, c)

	for i, m := range mut {
		if m.Digest() == base.Digest() {
			t.Fatalf("mutation %d did not change the digest", i)
		}
	}
}

func TestCompositionMajorityProperty(t *testing.T) {
	// Majority is strictly more than half, and two majorities always
	// intersect — the quorum property group messages rely on.
	property := func(memberSeeds []uint16) bool {
		c := genComposition(1, 1, memberSeeds)
		n, maj := c.N(), c.Majority()
		if n == 0 {
			return maj == 1 // degenerate: empty composition still needs one
		}
		if 2*maj <= n {
			return false // not a strict majority
		}
		return 2*maj-n >= 1 // any two majorities overlap in >= 1 member
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCompositionCloneIndependent(t *testing.T) {
	property := func(gid, epoch uint64, memberSeeds []uint16) bool {
		c := genComposition(gid, epoch, memberSeeds)
		if c.N() == 0 {
			return true
		}
		cl := c.Clone()
		cl.Members[0].PubKey = append([]byte(nil), 0xFF, 0xEE)
		cl.Members[0].ID += 1000
		return c.Equal(genComposition(gid, epoch, memberSeeds)) && !c.Equal(cl)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
