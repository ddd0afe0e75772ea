// Package pbft implements the asynchronous (eventually synchronous) SMR
// engine of Atum: a PBFT-style three-phase protocol [20] with view changes
// and stable checkpoints, tolerating f = ⌊(g−1)/3⌋ Byzantine members.
//
// Differences from Castro-Liskov PBFT, motivated by the in-vgroup setting:
//
//   - Clients are the members themselves; a Request is broadcast to all
//     replicas (it doubles as the backup's view-change trigger), and there
//     are no separate client replies — execution invokes the commit callback
//     at every replica.
//   - Normal-case messages rely on the authenticated point-to-point channels
//     of the node layer (PBFT's MAC variant); view changes are signed, since
//     they are forwarded as transferable proof inside NewView.
//   - Reconfiguration is not handled here: membership changes retire the
//     whole replica and start a fresh epoch (SMART-style [55]), which is how
//     the paper's Async implementation reconfigures vgroups.
package pbft

import (
	"sort"
	"time"

	"atum/internal/actor"
	"atum/internal/crypto"
	"atum/internal/ids"
	"atum/internal/smr"
)

const (
	// checkpointInterval is the number of executions between checkpoints.
	checkpointInterval = 16
	// windowSize bounds how far sequence assignment may run ahead of the
	// stable checkpoint (PBFT's high-water mark L).
	windowSize = 128
	// DefaultRequestTimeout is the default progress timeout before a
	// replica votes to change views.
	DefaultRequestTimeout = 2 * time.Second
	// maxTimeoutFactor caps view-change timeout doubling at this multiple
	// of the configured request timeout.
	maxTimeoutFactor = 16
)

// Options tunes a replica beyond smr.Config.
type Options struct {
	// RequestTimeout is how long a replica waits for a pending request to
	// execute before voting for a view change. Doubles on each failed
	// view change attempt. Defaults to DefaultRequestTimeout.
	RequestTimeout time.Duration
}

type reqKey struct {
	proposer ids.NodeID
	opID     uint64
}

// voteKey buckets prepare/commit votes by the (view, digest) they endorse,
// so votes arriving before the matching pre-prepare are never lost.
type voteKey struct {
	view   uint64
	digest crypto.Digest
}

type entry struct {
	view        uint64
	seq         uint64
	digest      crypto.Digest
	batch       []smr.Operation
	prePrepared bool
	prepares    map[voteKey]map[ids.NodeID]bool
	commits     map[voteKey]map[ids.NodeID]bool
	// commitFor is the key this replica sent its Commit for, zero before it
	// sends one; no pre-prepared key is zero, since view 0's digests are
	// checked against their batches. An entry's view only rises, so only its
	// current key is ever asked about.
	commitFor voteKey
	executed  bool
}

func (e *entry) key() voteKey { return voteKey{view: e.view, digest: e.digest} }

func addVote(m map[voteKey]map[ids.NodeID]bool, k voteKey, from ids.NodeID) {
	set, ok := m[k]
	if !ok {
		set = make(map[ids.NodeID]bool)
		m[k] = set
	}
	set[from] = true
}

// timer payloads
type progressTimeout struct {
	view uint64
	gen  uint64
}

type viewChangeTimeout struct {
	attempt uint64
}

// Replica is a PBFT replica for one epoch configuration. It implements
// smr.Replica.
type Replica struct {
	cfg  smr.Config
	opts Options

	f int
	n int
	// quorum is the generalized strong-quorum size ⌈(n+f+1)/2⌉. The
	// textbook 2f+1 only guarantees quorum intersection when n = 3f+1;
	// volatile groups routinely run with n between gmin and gmax, where
	// 2f+1 quorums can be disjoint (n=6, f=1: two halves of 3 commit
	// independently under a partition). Any two quorums of this size share
	// ≥ f+1 members — at least one correct — restoring PBFT's safety
	// argument for every group size.
	quorum  int
	stopped bool

	view         uint64
	inViewChange bool
	vcTarget     uint64 // view we are trying to install while inViewChange

	entries  map[uint64]*entry
	nextSeq  uint64 // primary: next sequence number to assign (last assigned)
	lastExec uint64

	stableSeq   uint64
	checkpoints map[uint64]map[ids.NodeID]crypto.Digest

	// pending holds the requests we know of that have not executed; those
	// naming this replica are its own proposals (Receive drops a Request
	// whose op names a member other than its sender), re-sent on view
	// change.
	pending  map[reqKey]smr.Operation
	executed map[reqKey]bool
	assigned map[reqKey]bool // primary only: assigned a seq in the current view

	viewChanges map[uint64]map[ids.NodeID]ViewChange
	timerArmed  bool
	timerGen    uint64 // invalidates armed progress timers on progress/view change
	curTimeout  time.Duration
	vcAttempts  uint64
	newViewSent map[uint64]bool
	// futurePP buffers pre-prepares that arrive for a view we have not
	// installed yet (the primary of view v+1 starts proposing the moment it
	// forms NewView; slower replicas replay the buffer on installation).
	futurePP map[uint64][]PrePrepare
}

// futureViewHorizon bounds how far ahead pre-prepares are buffered.
const futureViewHorizon = 8

var _ smr.Replica = (*Replica)(nil)

// New creates a PBFT replica.
func New(cfg smr.Config, opts Options) *Replica {
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = DefaultRequestTimeout
	}
	return &Replica{
		cfg:         cfg,
		opts:        opts,
		f:           smr.AsyncF(cfg.N()),
		n:           cfg.N(),
		quorum:      (cfg.N() + smr.AsyncF(cfg.N()) + 2) / 2, // ⌈(n+f+1)/2⌉
		entries:     make(map[uint64]*entry),
		checkpoints: make(map[uint64]map[ids.NodeID]crypto.Digest),
		pending:     make(map[reqKey]smr.Operation),
		executed:    make(map[reqKey]bool),
		assigned:    make(map[reqKey]bool),
		viewChanges: make(map[uint64]map[ids.NodeID]ViewChange),
		curTimeout:  opts.RequestTimeout,
		newViewSent: make(map[uint64]bool),
		futurePP:    make(map[uint64][]PrePrepare),
	}
}

// Stop implements smr.Replica.
func (r *Replica) Stop() { r.stopped = true }

// Tick implements smr.Replica; the asynchronous engine is not round-driven.
func (r *Replica) Tick(uint64) {}

func (r *Replica) primaryOf(view uint64) ids.NodeID {
	return r.cfg.Members[int(view%uint64(r.n))].ID
}

func (r *Replica) isPrimary() bool { return r.primaryOf(r.view) == r.cfg.Self }

func (r *Replica) broadcast(msg actor.Message) {
	for _, m := range r.cfg.Members {
		if m.ID != r.cfg.Self {
			r.cfg.Send(m.ID, msg)
		}
	}
}

// Propose implements smr.Replica.
func (r *Replica) Propose(op smr.Operation) {
	if r.stopped {
		return
	}
	key := reqKey{proposer: op.Proposer, opID: op.OpID}
	if r.executed[key] {
		return
	}
	req := Request{GroupID: r.cfg.GroupID, Epoch: r.cfg.Epoch, Op: op}
	r.broadcast(req)
	r.handleRequest(req)
}

// Receive implements smr.Replica.
func (r *Replica) Receive(from ids.NodeID, raw actor.Message) {
	if r.stopped {
		return
	}
	if ids.FindIdentity(r.cfg.Members, from) < 0 {
		return // not a member of this configuration
	}
	switch msg := raw.(type) {
	case Request:
		// A member requests its own ops only.
		if msg.GroupID == r.cfg.GroupID && msg.Epoch == r.cfg.Epoch && msg.Op.Proposer == from {
			r.handleRequest(msg)
		}
	case PrePrepare:
		if msg.GroupID == r.cfg.GroupID && msg.Epoch == r.cfg.Epoch {
			r.handlePrePrepare(from, msg)
		}
	case Prepare:
		if msg.GroupID == r.cfg.GroupID && msg.Epoch == r.cfg.Epoch {
			r.handlePrepare(from, msg)
		}
	case Commit:
		if msg.GroupID == r.cfg.GroupID && msg.Epoch == r.cfg.Epoch {
			r.handleCommit(from, msg)
		}
	case Checkpoint:
		if msg.GroupID == r.cfg.GroupID && msg.Epoch == r.cfg.Epoch {
			r.handleCheckpoint(from, msg)
		}
	case ViewChange:
		if msg.GroupID == r.cfg.GroupID && msg.Epoch == r.cfg.Epoch {
			r.handleViewChange(from, msg)
		}
	case NewView:
		if msg.GroupID == r.cfg.GroupID && msg.Epoch == r.cfg.Epoch {
			r.handleNewView(from, msg)
		}
	}
}

// HandleTimer implements smr.Replica.
func (r *Replica) HandleTimer(data any) {
	if r.stopped {
		return
	}
	switch t := data.(type) {
	case progressTimeout:
		if t.gen != r.timerGen {
			return // invalidated by progress or a view change
		}
		r.timerArmed = false
		if t.view != r.view || r.inViewChange {
			r.maybeArmTimer()
			return
		}
		if len(r.pending) == 0 {
			return
		}
		// No progress on pending requests within the timeout: vote to
		// replace the primary.
		r.startViewChange(r.view + 1)
	case viewChangeTimeout:
		if !r.inViewChange || t.attempt != r.vcAttempts {
			return
		}
		// The view change itself stalled; escalate with doubled timeout.
		// The doubling is capped: during a long outage attempts keep
		// failing, and an unbounded exponent would make the first
		// post-heal attempt wait minutes or hours — the cap bounds
		// recovery time at the cost of a few redundant view changes.
		if r.curTimeout < maxTimeoutFactor*r.opts.RequestTimeout {
			r.curTimeout *= 2
		}
		r.startViewChange(r.vcTarget + 1)
	}
}

func (r *Replica) handleRequest(req Request) {
	key := reqKey{proposer: req.Op.Proposer, opID: req.Op.OpID}
	if r.executed[key] {
		return
	}
	if _, ok := r.pending[key]; !ok {
		r.pending[key] = req.Op
		r.maybeArmTimer()
	}
	if r.isPrimary() && !r.inViewChange && !r.assigned[key] {
		r.assigned[key] = true
		r.assignSeq([]smr.Operation{req.Op})
	}
}

// assignSeq lets the primary order a batch at the next sequence number.
func (r *Replica) assignSeq(batch []smr.Operation) {
	if r.nextSeq < r.lastExec {
		r.nextSeq = r.lastExec
	}
	if r.nextSeq >= r.stableSeq+windowSize {
		return // window full; will be re-proposed after checkpointing
	}
	r.nextSeq++
	seq := r.nextSeq
	// The digest covers the batch only; the (view, seq) binding lives in the
	// message fields, as in PBFT.
	digest := smr.OpsDigest(r.cfg.GroupID, r.cfg.Epoch, 0, 0, batch)
	pp := PrePrepare{
		GroupID: r.cfg.GroupID, Epoch: r.cfg.Epoch,
		View: r.view, Seq: seq, Digest: digest, Batch: batch,
	}
	r.broadcast(pp)
	r.acceptPrePrepare(pp)
}

func (r *Replica) handlePrePrepare(from ids.NodeID, msg PrePrepare) {
	if from != r.primaryOf(msg.View) {
		return // only the primary may pre-prepare
	}
	if msg.View > r.view || (msg.View == r.view && r.inViewChange) {
		// Sent by the primary of a view we have not installed yet; buffer
		// and replay after NewView is verified.
		if msg.View < r.view+futureViewHorizon && len(r.futurePP[msg.View]) < 4*windowSize {
			r.futurePP[msg.View] = append(r.futurePP[msg.View], msg)
		}
		return
	}
	if msg.View < r.view {
		return
	}
	if msg.Seq <= r.stableSeq || msg.Seq > r.stableSeq+windowSize {
		return
	}
	want := smr.OpsDigest(r.cfg.GroupID, r.cfg.Epoch, 0, 0, msg.Batch)
	if want != msg.Digest {
		return // digest does not match the batch: primary is faulty
	}
	if e, ok := r.entries[msg.Seq]; ok && e.prePrepared && e.view == msg.View && e.digest != msg.Digest {
		return // conflicting pre-prepare in the same view: primary is faulty
	}
	r.acceptPrePrepare(msg)
	// A backup's Prepare answers the primary's PrePrepare.
	prep := Prepare{GroupID: r.cfg.GroupID, Epoch: r.cfg.Epoch,
		View: msg.View, Seq: msg.Seq, Digest: msg.Digest}
	r.broadcast(prep)
	r.recordPrepare(r.cfg.Self, prep)
}

func (r *Replica) getEntry(seq uint64) *entry {
	e, ok := r.entries[seq]
	if !ok {
		e = &entry{seq: seq,
			prepares: make(map[voteKey]map[ids.NodeID]bool),
			commits:  make(map[voteKey]map[ids.NodeID]bool),
		}
		r.entries[seq] = e
	}
	return e
}

func (r *Replica) acceptPrePrepare(msg PrePrepare) {
	e := r.getEntry(msg.Seq)
	if e.executed {
		return
	}
	if e.prePrepared && e.view >= msg.View {
		if e.view == msg.View && e.digest == msg.Digest {
			return // duplicate
		}
		if e.view > msg.View {
			return // a newer view already owns this slot
		}
		return // same-view conflict: filtered earlier, ignore defensively
	}
	e.view = msg.View
	e.digest = msg.Digest
	e.batch = msg.Batch
	e.prePrepared = true
	// The primary's pre-prepare counts as its prepare.
	addVote(e.prepares, e.key(), r.primaryOf(msg.View))
	r.checkPrepared(e)
	r.tryExecute()
}

func (r *Replica) handlePrepare(from ids.NodeID, msg Prepare) {
	// Votes are bucketed by (view, digest), so recording a vote for a view
	// we have not installed yet is safe — it only counts once a matching
	// pre-prepare binds the entry. This lets slightly-desynchronized
	// replicas cross view changes without losing quorum votes.
	if msg.View < r.view {
		return
	}
	if msg.Seq <= r.stableSeq || msg.Seq > r.stableSeq+windowSize {
		return
	}
	r.recordPrepare(from, msg)
}

func (r *Replica) recordPrepare(from ids.NodeID, msg Prepare) {
	e := r.getEntry(msg.Seq)
	addVote(e.prepares, voteKey{view: msg.View, digest: msg.Digest}, from)
	r.checkPrepared(e)
}

// checkPrepared sends Commit once the entry has a prepare quorum (including
// the primary's implicit prepare).
func (r *Replica) checkPrepared(e *entry) {
	if !e.prePrepared {
		return
	}
	k := e.key()
	if e.commitFor == k || len(e.prepares[k]) < r.quorum {
		return
	}
	e.commitFor = k
	cm := Commit{GroupID: r.cfg.GroupID, Epoch: r.cfg.Epoch,
		View: e.view, Seq: e.seq, Digest: e.digest}
	r.broadcast(cm)
	r.recordCommit(r.cfg.Self, cm)
}

func (r *Replica) handleCommit(from ids.NodeID, msg Commit) {
	if msg.View < r.view {
		return
	}
	if msg.Seq <= r.stableSeq || msg.Seq > r.stableSeq+windowSize {
		return
	}
	r.recordCommit(from, msg)
}

func (r *Replica) recordCommit(from ids.NodeID, msg Commit) {
	e := r.getEntry(msg.Seq)
	addVote(e.commits, voteKey{view: msg.View, digest: msg.Digest}, from)
	r.tryExecute()
}

// prepared reports PBFT's prepared predicate for an entry.
func (r *Replica) prepared(e *entry) bool {
	return e.prePrepared && len(e.prepares[e.key()]) >= r.quorum
}

// tryExecute executes committed entries in sequence order.
func (r *Replica) tryExecute() {
	for {
		e, ok := r.entries[r.lastExec+1]
		if !ok || e.executed {
			return
		}
		if !r.prepared(e) || len(e.commits[e.key()]) < r.quorum {
			return
		}
		e.executed = true
		r.lastExec++
		for _, op := range e.batch {
			key := reqKey{proposer: op.Proposer, opID: op.OpID}
			if r.executed[key] {
				continue
			}
			r.executed[key] = true
			delete(r.pending, key)
			r.cfg.Commit(op)
		}
		// Progress resets the view-change clock.
		r.resetTimer()
		if r.lastExec%checkpointInterval == 0 {
			r.sendCheckpoint()
		}
	}
}

// resetTimer invalidates any armed progress timer and re-arms it if
// unexecuted requests remain.
func (r *Replica) resetTimer() {
	r.timerGen++
	r.timerArmed = false
	r.maybeArmTimer()
}

// maybeArmTimer arms the progress timer when unexecuted requests exist.
func (r *Replica) maybeArmTimer() {
	if r.timerArmed || r.inViewChange || len(r.pending) == 0 || r.stopped {
		return
	}
	r.timerArmed = true
	r.cfg.SetTimer(r.curTimeout, progressTimeout{view: r.view, gen: r.timerGen})
}

// --- checkpoints ---

func (r *Replica) stateDigest(seq uint64) crypto.Digest {
	// The engine layers deterministic state on top of the op sequence, so a
	// digest over (group, epoch, seq) identifies the executed prefix.
	return crypto.Derive("pbft-ckpt", nil, uint64(r.cfg.GroupID), r.cfg.Epoch, seq)
}

func (r *Replica) sendCheckpoint() {
	cp := Checkpoint{GroupID: r.cfg.GroupID, Epoch: r.cfg.Epoch,
		Seq: r.lastExec, Digest: r.stateDigest(r.lastExec)}
	r.broadcast(cp)
	r.handleCheckpoint(r.cfg.Self, cp)
}

func (r *Replica) handleCheckpoint(from ids.NodeID, msg Checkpoint) {
	if msg.Seq <= r.stableSeq {
		return
	}
	set, ok := r.checkpoints[msg.Seq]
	if !ok {
		set = make(map[ids.NodeID]crypto.Digest)
		r.checkpoints[msg.Seq] = set
	}
	set[from] = msg.Digest
	matching := 0
	for _, d := range set {
		if d == msg.Digest {
			matching++
		}
	}
	if matching >= r.quorum && msg.Seq <= r.lastExec {
		r.stabilize(msg.Seq)
	}
}

func (r *Replica) stabilize(seq uint64) {
	r.stableSeq = seq
	for s := range r.entries {
		if s <= seq {
			delete(r.entries, s)
		}
	}
	for s := range r.checkpoints {
		if s <= seq {
			delete(r.checkpoints, s)
		}
	}
}

// sortedSeqs returns the entry sequence numbers in ascending order.
func (r *Replica) sortedSeqs() []uint64 {
	seqs := make([]uint64, 0, len(r.entries))
	for s := range r.entries {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}
