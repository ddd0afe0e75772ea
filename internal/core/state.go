package core

import (
	"fmt"
	"slices"

	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/overlay"
	"atum/internal/wire"
)

// reconfigCause tags why a membership change happened; it decides the
// post-reconfiguration action (paper: shuffle after join/leave/evict/merge,
// but not after the shuffle's own exchanges or after splits).
type reconfigCause int

const (
	causeJoin reconfigCause = iota + 1
	causeLeave
	causeEvict
	causeExchange
	causeSplit
	causeMerge
)

func (c reconfigCause) String() string {
	switch c {
	case causeJoin:
		return "join"
	case causeLeave:
		return "leave"
	case causeEvict:
		return "evict"
	case causeExchange:
		return "exchange"
	case causeSplit:
		return "split"
	case causeMerge:
		return "merge"
	default:
		return "cause?"
	}
}

// pendingJoin is one queued admission.
type pendingJoin struct {
	Joiner ids.Identity
	Sig    []byte
	// Expected is true when this vgroup was already selected by a join walk
	// for this joiner — it is admitted directly, without another walk.
	Expected bool
}

// walkOrigin tracks a random walk this vgroup originated and whose result it
// awaits. Replicated state.
type walkOrigin struct {
	WalkID     crypto.Digest
	Purpose    WalkPurpose
	OriginComp group.Composition // our composition when the walk started
	Joiner     ids.Identity
	JoinerSig  []byte
	Member     ids.Identity
	ShuffleSeq int
}

// expectedJoiner is a joiner this vgroup agreed to accommodate (selected by
// a join walk); it expires with the walk timeout machinery.
type expectedJoiner struct {
	WalkID crypto.Digest
	Joiner ids.Identity
}

// pendingExchange is an accepted-but-unconfirmed shuffle exchange at the
// partner side; the group stays busy until confirm or cancel.
type pendingExchange struct {
	WalkID     crypto.Digest
	OriginComp group.Composition
	Partner    ids.Identity // our member going out
	Member     ids.Identity // their member coming in
}

// shuffleState drives the whole-group shuffle that follows a membership
// change (§3.2): members are exchanged one at a time with partners selected
// by random walks.
type shuffleState struct {
	Epoch        uint64
	Remaining    []ids.Identity
	ActiveWalk   crypto.Digest
	ActiveMember ids.Identity
	ActiveSeq    int
}

// groupState is the replicated per-vgroup state: every correct member holds
// an identical copy, maintained exclusively by the deterministic transition
// function over SMR-committed operations.
type groupState struct {
	comp group.Composition
	nbrs overlay.Neighbors

	// busy marks an in-progress reconfiguration negotiation (shuffle,
	// merge, accepted exchange); busy vgroups reject incoming exchange and
	// merge requests, which is what suppresses exchanges under load
	// (Fig. 13, §7).
	busy bool

	pendingJoins    []pendingJoin
	expectedJoiners []expectedJoiner
	walkOrigins     []walkOrigin
	pendingExch     []pendingExchange
	shuffle         *shuffleState
	mergeAttempt    int
	// walkSeq is a monotonic counter making every walkStartOp content
	// unique; it never resets, so re-proposed walks are never mistaken for
	// duplicates of completed ones.
	walkSeq uint64

	// votes tallies vote-op endorsements by content digest (reset each
	// epoch). fired marks thresholds already acted on.
	votes map[crypto.Digest]map[ids.NodeID]bool
	fired map[crypto.Digest]bool

	// appliedOps content-dedups operations across epochs. It is REPLICATED
	// state (snapshot-included): members that joined the vgroup at
	// different times must still skip exactly the same duplicates, or the
	// epoch barrier forks. FIFO-bounded by appliedQ.
	appliedOps map[crypto.Digest]bool
	appliedQ   []crypto.Digest
}

// maxAppliedOps bounds the replicated dedup window.
const maxAppliedOps = 8192

func newGroupState(comp group.Composition, nbrs overlay.Neighbors) *groupState {
	return &groupState{
		comp:       comp,
		nbrs:       nbrs,
		votes:      make(map[crypto.Digest]map[ids.NodeID]bool),
		fired:      make(map[crypto.Digest]bool),
		appliedOps: make(map[crypto.Digest]bool),
	}
}

// markAppliedOp records an op content digest; false means duplicate.
func (st *groupState) markAppliedOp(d crypto.Digest) bool {
	if st.appliedOps[d] {
		return false
	}
	st.appliedOps[d] = true
	st.appliedQ = append(st.appliedQ, d)
	if len(st.appliedQ) > maxAppliedOps {
		drop := st.appliedQ[0]
		st.appliedQ = st.appliedQ[1:]
		delete(st.appliedOps, drop)
	}
	return true
}

func (st *groupState) resetVotes() {
	st.votes = make(map[crypto.Digest]map[ids.NodeID]bool)
	st.fired = make(map[crypto.Digest]bool)
}

func (st *groupState) findWalk(id crypto.Digest) int {
	for i := range st.walkOrigins {
		if st.walkOrigins[i].WalkID == id {
			return i
		}
	}
	return -1
}

func (st *groupState) removeWalk(id crypto.Digest) {
	if i := st.findWalk(id); i >= 0 {
		st.walkOrigins = append(st.walkOrigins[:i], st.walkOrigins[i+1:]...)
	}
}

func (st *groupState) findExpected(j ids.NodeID) int {
	for i := range st.expectedJoiners {
		if st.expectedJoiners[i].Joiner.ID == j {
			return i
		}
	}
	return -1
}

func (st *groupState) findPendingExch(id crypto.Digest) int {
	for i := range st.pendingExch {
		if st.pendingExch[i].WalkID == id {
			return i
		}
	}
	return -1
}

// stateSnapshot is the deterministic serialization of groupState sent to
// freshly admitted members (join, exchange, merge). It is wire-encoded (all
// fields are map-free, so the bytes are identical across members) and
// validated by the receiving node against a majority of the admitting
// composition.
type stateSnapshot struct {
	Comp            group.Composition
	NbrsBytes       []byte // canonical wire encoding of overlay.Neighbors
	Busy            bool
	PendingJoins    []pendingJoin
	ExpectedJoiners []expectedJoiner
	WalkOrigins     []walkOrigin
	PendingExch     []pendingExchange
	Shuffle         shuffleState
	HasShuffle      bool
	MergeAttempt    int
	WalkSeq         uint64
	// AppliedOps is the replicated dedup window in commit order (a slice,
	// not a map: iteration order would break the byte-identical snapshot
	// requirement).
	AppliedOps []crypto.Digest
}

// buildSnapshot captures the current replicated state.
func (st *groupState) buildSnapshot() stateSnapshot {
	snap := stateSnapshot{
		Comp:            st.comp,
		NbrsBytes:       wire.Encode(st.nbrs.Wire),
		Busy:            st.busy,
		PendingJoins:    append([]pendingJoin(nil), st.pendingJoins...),
		ExpectedJoiners: append([]expectedJoiner(nil), st.expectedJoiners...),
		WalkOrigins:     append([]walkOrigin(nil), st.walkOrigins...),
		PendingExch:     append([]pendingExchange(nil), st.pendingExch...),
		MergeAttempt:    st.mergeAttempt,
		WalkSeq:         st.walkSeq,
	}
	if st.shuffle != nil {
		snap.Shuffle = *st.shuffle
		snap.Shuffle.Remaining = append([]ids.Identity(nil), st.shuffle.Remaining...)
		snap.HasShuffle = true
	}
	snap.AppliedOps = append([]crypto.Digest(nil), st.appliedQ...)
	return snap
}

// restoreSnapshot rebuilds replicated state from a snapshot.
func restoreSnapshot(snap stateSnapshot) (*groupState, error) {
	var nbrs overlay.Neighbors
	d := wire.NewDecoder(snap.NbrsBytes)
	nbrs.Wire(d.Codec())
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("core: snapshot neighbors: %w", err)
	}
	st := newGroupState(snap.Comp, nbrs)
	st.busy = snap.Busy
	st.pendingJoins = append([]pendingJoin(nil), snap.PendingJoins...)
	st.expectedJoiners = append([]expectedJoiner(nil), snap.ExpectedJoiners...)
	st.walkOrigins = append([]walkOrigin(nil), snap.WalkOrigins...)
	st.pendingExch = append([]pendingExchange(nil), snap.PendingExch...)
	st.mergeAttempt = snap.MergeAttempt
	st.walkSeq = snap.WalkSeq
	if snap.HasShuffle {
		sh := snap.Shuffle
		sh.Remaining = append([]ids.Identity(nil), snap.Shuffle.Remaining...)
		st.shuffle = &sh
	}
	for _, d := range snap.AppliedOps {
		st.markAppliedOp(d)
	}
	return st, nil
}

// prfRands derives n agreed-upon random numbers from a seed digest — the
// bulk RNG of §5.1: all walk randomness is fixed before the walk starts, so
// no individual member (or later relay) can bias it.
func prfRands(seed crypto.Digest, n int) []uint64 {
	out := make([]uint64, 0, n)
	cur := seed
	for i := 0; i < n; i++ {
		cur = crypto.HashUint64(cur, uint64(i))
		out = append(out, uint64(cur.Seed()))
	}
	return out
}

// prfPick picks an index in [0, n) from a seed digest and salt.
func prfPick(seed crypto.Digest, salt uint64, n int) int {
	if n <= 0 {
		return 0
	}
	d := crypto.HashUint64(seed, salt)
	v := uint64(d.Seed())
	return int(v % uint64(n))
}

// prfShuffleIdentities deterministically permutes identities from a seed.
func prfShuffleIdentities(seed crypto.Digest, list []ids.Identity) []ids.Identity {
	out := slices.Clone(list)
	for i := len(out) - 1; i > 0; i-- {
		j := prfPick(seed, uint64(i)*2654435761, i+1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}
