// Package group implements Atum's group layer (paper §3.1): the volatile
// group (vgroup) composition record, and group messages — the reliable
// communication primitive for pairs of vgroups.
//
// A group message from vgroup A to vgroup B is a message every correct node
// of A sends to every node of B; a node of B accepts it once a majority of
// A's (epoch-stamped) composition delivered matching content. Because every
// vgroup is kept robust (a correct majority) by the overlay layer, an
// accepted group message is guaranteed to originate from A's collective
// state, not from any individual faulty member.
package group

import (
	"atum/internal/crypto"
	"atum/internal/ids"
	"atum/internal/wire"
)

// Composition is the identity of one vgroup at one point in its life:
// its ID, its reconfiguration epoch, and its (canonically sorted) members.
type Composition struct {
	GroupID ids.GroupID
	Epoch   uint64
	Members []ids.Identity
}

// N returns the group size.
func (c Composition) N() int { return len(c.Members) }

// Majority returns the group-message acceptance threshold: ⌊N/2⌋+1.
func (c Composition) Majority() int { return c.N()/2 + 1 }

// Index returns the member index of id, or -1.
func (c Composition) Index(id ids.NodeID) int { return ids.FindIdentity(c.Members, id) }

// Contains reports whether id is a member.
func (c Composition) Contains(id ids.NodeID) bool { return c.Index(id) >= 0 }

// IsZero reports whether this is the zero composition.
func (c Composition) IsZero() bool {
	return c.GroupID == 0 && c.Epoch == 0 && len(c.Members) == 0
}

// Clone returns a deep copy.
func (c Composition) Clone() Composition {
	return Composition{GroupID: c.GroupID, Epoch: c.Epoch, Members: ids.CloneIdentities(c.Members)}
}

// maxMembers bounds the member count a decoder takes from its input.
const maxMembers = 1 << 16

// Wire walks a composition's fields in wire order; the encoding is canonical,
// so composition digests agree across members. A decoded composition has
// non-nil Members even when it has none.
func (c *Composition) Wire(w wire.Codec) {
	wire.U64(w, &c.GroupID)
	w.Uint64(&c.Epoch)
	n := w.Count(len(c.Members), maxMembers)
	if w.Decoding() {
		c.Members = make([]ids.Identity, n)
	}
	for i := range c.Members {
		c.Members[i].Wire(w)
	}
}

// Digest returns the canonical digest identifying this composition.
func (c Composition) Digest() crypto.Digest {
	var e wire.Encoder
	c.Wire(e.Codec())
	return crypto.Hash(e.Bytes())
}

// Equal reports deep equality of two compositions.
func (c Composition) Equal(o Composition) bool {
	if c.GroupID != o.GroupID || c.Epoch != o.Epoch || len(c.Members) != len(o.Members) {
		return false
	}
	for i := range c.Members {
		if !c.Members[i].Equal(o.Members[i]) {
			return false
		}
	}
	return true
}

// Key identifies a composition by (GroupID, Epoch) — the granularity at
// which group messages are matched.
type Key struct {
	GroupID ids.GroupID
	Epoch   uint64
}

// Wire walks a Key's fields in wire order.
func (k *Key) Wire(c wire.Codec) {
	wire.U64(c, &k.GroupID)
	c.Uint64(&k.Epoch)
}

// Key returns the composition's key.
func (c Composition) Key() Key { return Key{GroupID: c.GroupID, Epoch: c.Epoch} }
