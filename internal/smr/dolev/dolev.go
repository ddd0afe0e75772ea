// Package dolev implements the synchronous SMR engine of Atum: the
// Dolev-Strong authenticated Byzantine agreement protocol [32], pipelined
// into a round-based replicated log.
//
// Time is divided into lockstep rounds (driven by the host through Tick).
// In round r every member with pending operations starts an authenticated
// broadcast of its batch — the "slot" (r, sender). Slot messages carry a
// growing signature chain: a message accepted in relative round k must carry
// at least k+1 valid signatures from distinct members, the first being the
// slot's sender. On first acceptance of a value a correct member appends its
// own signature and relays to everyone, which yields the classic invariant:
// if any correct member accepts a value by relative round f, every correct
// member accepts it by round f+1.
//
// A member verifies each value's chain once, when it first accepts it. A copy
// of a value the slot already holds is dropped by content (same ops) before
// it is hashed or verified, and a slot holds at most two values: any further
// value is dropped the same way, since two already prove the sender
// equivocated and this member has relayed both.
//
// A slot finalizes f+1 rounds after it started, where f = ⌊(g−1)/2⌋. If
// exactly one value was accepted, its batch commits; if the sender
// equivocated (≥2 values) or no value arrived, the slot commits nothing.
// Slots finalize in deterministic (round, member index) order, so all
// correct members observe the same committed sequence.
//
// Tolerates f = ⌊(g−1)/2⌋ Byzantine members under the synchrony assumption
// that any message sent in round r arrives before round r+1 — in Atum this
// holds because round length (1–1.5 s in the paper) vastly exceeds
// intra-datacenter latency.
package dolev

import (
	"bytes"
	"sort"

	"atum/internal/actor"
	"atum/internal/crypto"
	"atum/internal/ids"
	"atum/internal/smr"
	"atum/internal/wire"
)

// SigEntry is one link of a Dolev-Strong signature chain.
type SigEntry struct {
	Node ids.NodeID
	Sig  []byte
}

// SlotMsg is a (possibly relayed) authenticated-broadcast message for slot
// (StartRound, Sender).
type SlotMsg struct {
	GroupID    ids.GroupID
	Epoch      uint64
	StartRound uint64
	Sender     ids.NodeID
	Ops        []smr.Operation
	Sigs       []SigEntry
}

// Wire walks a SlotMsg's fields in wire order (byte-level transport framing).
func (m *SlotMsg) Wire(c wire.Codec) {
	wire.U64(c, &m.GroupID)
	c.Uint64(&m.Epoch)
	c.Uint64(&m.StartRound)
	wire.U64(c, &m.Sender)
	wire.List(c, &m.Ops, (*smr.Operation).Wire)
	wire.List(c, &m.Sigs, (*SigEntry).Wire)
}

// Wire walks a SigEntry's fields in wire order.
func (s *SigEntry) Wire(c wire.Codec) {
	wire.U64(c, &s.Node)
	c.VarBytes(&s.Sig)
}

// WireSize implements actor.Sizer for the bandwidth model.
func (m SlotMsg) WireSize() int {
	size := 8 * 5
	for _, op := range m.Ops {
		size += 16 + len(op.Data)
	}
	for _, s := range m.Sigs {
		size += 8 + len(s.Sig)
	}
	return size
}

type slotKey struct {
	startRound uint64
	sender     ids.NodeID
}

type slotValue struct {
	digest crypto.Digest
	ops    []smr.Operation
	sigs   []SigEntry // chain as first accepted, before appending our own
}

type slotState struct {
	// accepted values keyed by batch digest; more than one means the
	// sender equivocated and the slot will commit nothing.
	accepted map[crypto.Digest]*slotValue
}

// Replica is a Dolev-Strong SMR member. It implements smr.Replica.
type Replica struct {
	cfg     smr.Config
	f       int
	selfIdx int
	round   uint64
	started bool
	stopped bool
	// birthRound is the round at the first Tick. Members admitted
	// mid-lifecycle (state transfer in flight) may accept buffered slots
	// that started before their birth with shorter signature chains: the
	// in-time members already ran the full relay protocol on those slots,
	// and the host delivers the buffered copies faithfully.
	birthRound uint64

	pendingOps []smr.Operation
	nextSlot   map[slotKey]bool // slots we already broadcast (self)
	slots      map[slotKey]*slotState
}

var _ smr.Replica = (*Replica)(nil)

// New creates a replica for one epoch configuration.
func New(cfg smr.Config) *Replica {
	return &Replica{
		cfg:      cfg,
		f:        smr.SyncF(cfg.N()),
		selfIdx:  cfg.SelfIndex(),
		nextSlot: make(map[slotKey]bool),
		slots:    make(map[slotKey]*slotState),
	}
}

// F returns the number of faults this replica's configuration tolerates.
func (r *Replica) F() int { return r.f }

func (r *Replica) memberIndex(id ids.NodeID) int {
	return ids.FindIdentity(r.cfg.Members, id)
}

// Propose implements smr.Replica. The operation is broadcast at the next
// round boundary.
func (r *Replica) Propose(op smr.Operation) {
	if r.stopped {
		return
	}
	r.pendingOps = append(r.pendingOps, op)
}

// Stop implements smr.Replica.
func (r *Replica) Stop() { r.stopped = true }

// HandleTimer implements smr.Replica; the synchronous engine has no timers.
func (r *Replica) HandleTimer(any) {}

// Tick implements smr.Replica: advances to the given round, finalizing every
// slot whose f+1 relay rounds have elapsed (in deterministic (round, member)
// order — ranges rather than a single round, so replicas created mid-epoch
// or experiencing round jumps stay consistent), then broadcasting any
// pending batch.
func (r *Replica) Tick(round uint64) {
	if r.stopped {
		return
	}
	if r.started && round <= r.round {
		return
	}
	if !r.started {
		r.birthRound = round
	}
	r.round = round
	r.started = true

	// Finalize all slots started at least f+1 rounds ago.
	if round >= uint64(r.f)+1 {
		due := round - uint64(r.f) - 1
		var keys []slotKey
		for k := range r.slots {
			if k.startRound <= due {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].startRound != keys[j].startRound {
				return keys[i].startRound < keys[j].startRound
			}
			return r.memberIndex(keys[i].sender) < r.memberIndex(keys[j].sender)
		})
		for _, key := range keys {
			st := r.slots[key]
			if len(st.accepted) == 1 {
				for _, v := range st.accepted {
					for _, op := range v.ops {
						r.cfg.Commit(op)
					}
				}
			} else if len(st.accepted) > 1 {
				r.cfg.Logln("dolev %v/%d: sender %v equivocated in slot %d",
					r.cfg.GroupID, r.cfg.Epoch, key.sender, key.startRound)
			}
			delete(r.slots, key)
			if r.stopped {
				return // a committed op retired this replica (epoch barrier)
			}
		}
	}

	// Broadcast our pending batch as a new slot.
	if len(r.pendingOps) == 0 {
		return
	}
	ops := r.pendingOps
	r.pendingOps = nil
	digest := smr.OpsDigest(r.cfg.GroupID, r.cfg.Epoch, round, r.cfg.Self, ops)
	sig := r.cfg.Signer.Sign(digest[:])
	msg := SlotMsg{
		GroupID:    r.cfg.GroupID,
		Epoch:      r.cfg.Epoch,
		StartRound: round,
		Sender:     r.cfg.Self,
		Ops:        ops,
		Sigs:       []SigEntry{{Node: r.cfg.Self, Sig: sig}},
	}
	// Accept our own value locally, then send to all peers.
	r.accept(msg, digest)
	for _, m := range r.cfg.Members {
		if m.ID != r.cfg.Self {
			r.cfg.Send(m.ID, msg)
		}
	}
}

// Receive implements smr.Replica. A value's chain is verified once, when the
// value is first accepted: a copy of a value the slot already holds, and any
// value beyond the two that prove an equivocation, is dropped before it is
// hashed or verified.
func (r *Replica) Receive(_ ids.NodeID, raw actor.Message) {
	if r.stopped {
		return
	}
	msg, ok := raw.(SlotMsg)
	if !ok {
		return
	}
	if msg.GroupID != r.cfg.GroupID || msg.Epoch != r.cfg.Epoch {
		return
	}
	if msg.StartRound > r.round {
		// With aligned round boundaries and sub-round latency this cannot
		// happen for honest senders; hosts initialize replicas with the
		// current round via Tick. Drop defensively.
		return
	}
	elapsed := r.round - msg.StartRound
	preBirth := msg.StartRound < r.birthRound
	if elapsed > uint64(r.f) && !preBirth {
		return // slot already finalized (or will be before we could relay)
	}
	if preBirth {
		// Catch-up acceptance: require only a valid chain, not the full
		// elapsed-length one (the relay protocol already completed among
		// the in-time members).
		elapsed = 0
	}
	if st, ok := r.slots[slotKey{startRound: msg.StartRound, sender: msg.Sender}]; ok && !st.admits(msg.Ops) {
		return
	}
	digest := smr.OpsDigest(msg.GroupID, msg.Epoch, msg.StartRound, msg.Sender, msg.Ops)
	if !r.verifyChain(msg, digest, elapsed) {
		r.cfg.Logln("dolev %v/%d: REJECT chain slot(%d,%v) sigs=%d elapsed=%d prebirth=%v", r.cfg.GroupID, r.cfg.Epoch, msg.StartRound, msg.Sender, len(msg.Sigs), elapsed, preBirth)
		return
	}
	r.accept(msg, digest)
	if !preBirth {
		r.relay(msg, digest)
	}
}

// admits reports whether a value with these ops may still change the slot:
// it is not one the slot holds, and the slot holds fewer than two values (two
// already make it commit nothing, and this member has relayed both). The ops
// are compared by content, which is exact: the slot key, group and epoch fix
// the rest of the digest.
func (st *slotState) admits(ops []smr.Operation) bool {
	for _, v := range st.accepted {
		if sameOps(v.ops, ops) {
			return false
		}
	}
	return len(st.accepted) < 2
}

func sameOps(a, b []smr.Operation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Proposer != b[i].Proposer || a[i].OpID != b[i].OpID || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

// verifyChain checks the Dolev-Strong acceptance rule: at relative round k,
// a message needs ≥ k+1 valid signatures from distinct members over the
// batch digest, the first from the slot's sender.
func (r *Replica) verifyChain(msg SlotMsg, digest crypto.Digest, elapsed uint64) bool {
	if len(msg.Sigs) == 0 || msg.Sigs[0].Node != msg.Sender {
		return false
	}
	if uint64(len(msg.Sigs)) < elapsed+1 {
		return false
	}
	if ids.FindIdentity(r.cfg.Members, msg.Sender) < 0 {
		return false
	}
	for i, entry := range msg.Sigs {
		if inChain(msg.Sigs[:i], entry.Node) {
			return false
		}
		idx := ids.FindIdentity(r.cfg.Members, entry.Node)
		if idx < 0 {
			return false
		}
		if !r.cfg.Scheme.Verify(r.cfg.Members[idx].PubKey, digest[:], entry.Sig) {
			return false
		}
	}
	return true
}

func inChain(sigs []SigEntry, id ids.NodeID) bool {
	for _, e := range sigs {
		if e.Node == id {
			return true
		}
	}
	return false
}

func (r *Replica) accept(msg SlotMsg, digest crypto.Digest) {
	key := slotKey{startRound: msg.StartRound, sender: msg.Sender}
	st, ok := r.slots[key]
	if !ok {
		st = &slotState{accepted: make(map[crypto.Digest]*slotValue)}
		r.slots[key] = st
	}
	if _, seen := st.accepted[digest]; seen {
		return
	}
	st.accepted[digest] = &slotValue{digest: digest, ops: msg.Ops, sigs: msg.Sigs}
}

// relay appends our signature and forwards to members not yet in the chain.
func (r *Replica) relay(msg SlotMsg, digest crypto.Digest) {
	if inChain(msg.Sigs, r.cfg.Self) {
		return // we already signed this value; everyone will get it
	}
	sig := r.cfg.Signer.Sign(digest[:])
	out := msg
	out.Sigs = make([]SigEntry, 0, len(msg.Sigs)+1)
	out.Sigs = append(out.Sigs, msg.Sigs...)
	out.Sigs = append(out.Sigs, SigEntry{Node: r.cfg.Self, Sig: sig})
	for _, m := range r.cfg.Members {
		if m.ID == r.cfg.Self || inChain(msg.Sigs, m.ID) {
			continue
		}
		r.cfg.Send(m.ID, out)
	}
}
