// Fixture for kindcover: a miniature kind registry exercising every
// coverage rule — class membership, disjointness, payload-registry
// completeness, and carrier exemption.
package core

import "atum/internal/group"

const (
	kindAlpha  group.Kind = iota + 1 // batchable, fully wired: clean
	kindBeta                         // unbatched, fully wired: clean
	kindBatch                        // want "carrier kind kindBatch must not have a kindPayloads entry"
	kindRaw                          // carrier without payload entry: clean
	kindOrphan                       // want "kindOrphan belongs to no dispatch set"
	kindDouble                       // want "kindDouble belongs to 2 dispatch sets"
	kindNoPay                        // want "kindNoPay has no kindPayloads entry"
)

var batchableKinds = map[group.Kind]bool{
	kindAlpha:  true,
	kindDouble: true,
	kindNoPay:  true,
}

var unbatchedKinds = map[group.Kind]bool{
	kindBeta:   true,
	kindDouble: true,
}

var kindPayloads = map[group.Kind]any{
	kindAlpha:  struct{}{},
	kindBeta:   struct{}{},
	kindOrphan: struct{}{},
	kindDouble: struct{}{},
	kindBatch:  struct{}{}, // reported at the kindBatch const decl
}
