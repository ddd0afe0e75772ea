// Package ids defines the identifier types shared by every layer of Atum:
// node identifiers, volatile-group identifiers, and the node identity record
// (address + public key) that group compositions are made of.
package ids

import (
	"fmt"
	"sort"

	"atum/internal/wire"
)

// NodeID uniquely identifies a node in the system. In the simulated runtime
// it is assigned by the harness; in the real runtime it is derived from the
// node's public key.
type NodeID uint64

// String implements fmt.Stringer.
func (n NodeID) String() string { return fmt.Sprintf("n%d", uint64(n)) }

// GroupID uniquely identifies a volatile group. Group IDs are never reused:
// splits mint fresh IDs, merges retire one of the two.
type GroupID uint64

// String implements fmt.Stringer.
func (g GroupID) String() string { return fmt.Sprintf("g%d", uint64(g)) }

// Identity is the public identity of a node: everything another node needs
// to contact and authenticate it.
type Identity struct {
	ID     NodeID
	Addr   string // network address (host:port) in the real runtime; informational in simulation
	PubKey []byte // public key for signature verification
}

// Equal reports whether two identities denote the same node with the same key.
func (id Identity) Equal(other Identity) bool {
	if id.ID != other.ID || id.Addr != other.Addr || len(id.PubKey) != len(other.PubKey) {
		return false
	}
	for i := range id.PubKey {
		if id.PubKey[i] != other.PubKey[i] {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer.
func (id Identity) String() string { return id.ID.String() }

// Wire walks an identity's fields in wire order. The encoding is canonical:
// every layer that hashes or signs identities (compositions, join requests,
// walk certificates) relies on all members producing identical bytes.
func (id *Identity) Wire(c wire.Codec) {
	wire.U64(c, &id.ID)
	c.String(&id.Addr)
	c.VarBytes(&id.PubKey)
}

// SortIdentities sorts a slice of identities by NodeID in place.
// Group compositions are canonically ordered this way so that every member
// derives identical member indices.
func SortIdentities(list []Identity) {
	sort.Slice(list, func(i, j int) bool { return list[i].ID < list[j].ID })
}

// IdentityIDs extracts the NodeIDs of a list of identities, preserving order.
func IdentityIDs(list []Identity) []NodeID {
	out := make([]NodeID, len(list))
	for i, id := range list {
		out[i] = id.ID
	}
	return out
}

// FindIdentity returns the index of the identity with the given NodeID,
// or -1 if absent.
func FindIdentity(list []Identity, id NodeID) int {
	for i := range list {
		if list[i].ID == id {
			return i
		}
	}
	return -1
}

// Without returns the identities of list other than id, in order, in a new
// slice.
func Without(list []Identity, id NodeID) []Identity {
	var out []Identity
	for _, m := range list {
		if m.ID != id {
			out = append(out, m)
		}
	}
	return out
}

// CloneIdentities returns a deep copy of the identity slice. Compositions are
// shared across protocol layers; copies keep ownership boundaries clean.
func CloneIdentities(list []Identity) []Identity {
	if list == nil {
		return nil
	}
	out := make([]Identity, len(list))
	copy(out, list)
	for i := range out {
		if out[i].PubKey != nil {
			pk := make([]byte, len(out[i].PubKey))
			copy(pk, out[i].PubKey)
			out[i].PubKey = pk
		}
	}
	return out
}
