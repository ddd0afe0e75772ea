package core

import (
	"cmp"
	"maps"
	"slices"
	"time"
	"unsafe"

	"atum/internal/actor"
	"atum/internal/crypto"
	"atum/internal/egress"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/overlay"
	"atum/internal/smr"
	"atum/internal/smr/dolev"
	"atum/internal/smr/pbft"
)

// phase is the lifecycle phase of a node.
type phase int

const (
	phaseIdle phase = iota + 1
	phaseJoining
	phaseAwaitSnapshot
	phaseMember
	phaseLeft
)

// joinStage tracks the joiner-side protocol (§3.3.2).
type joinStage int

const (
	stageContact    joinStage = iota + 1 // JoinContact sent, awaiting ContactInfo
	stageRequestedC                      // JoinRequest sent to contact vgroup, awaiting redirect
	stageRequestedD                      // JoinRequest sent to target vgroup, awaiting snapshot
)

type joinContext struct {
	contact     ids.Identity
	stage       joinStage
	contactComp group.Composition
	target      group.Composition
	deadline    time.Duration
	attempts    int
}

// timer payloads
type tickTimer struct{}

type smrTimer struct {
	epoch uint64
	data  any
}

// bounds for local memory-control queues.
const (
	maxSeen      = 1 << 13
	maxComps     = 1 << 12
	maxPen       = 2048
	inboxTTL     = 5 * time.Minute
	maxJoinTries = 8
	// maxPenKeys bounds the configurations pen buffers for at once: any link
	// peer can name one, and one a node never installs is never freed. The
	// contracted workloads peak at 6.
	maxPenKeys = 64
)

// host is what the engine keeps of its runtime: the clock, timers, the log
// and (through actor.LearnIdentity) the address book. Start hands the rest of
// the actor.Env — the transport and the random stream — to the egress port.
type host interface {
	Now() time.Duration
	SetTimer(d time.Duration, data any) actor.TimerID
	Logf(format string, args ...any)
}

// Node is one Atum protocol node: an actor.Node implementing the full
// engine. Create with New, hand to a runtime, then call Bootstrap or Join.
type Node struct {
	cfg      Config
	env      host
	signer   crypto.Signer
	behavior Behavior // SetBehavior; the zero value is correct too

	phase        phase
	st           *groupState
	replica      smr.Replica
	replicaEpoch uint64

	inbox *group.Inbox
	comps compStore // every composition this node knows, per vgroup

	ownPend map[crypto.Digest]smr.Operation
	opSeq   uint64

	round uint64
	// egress is the node's way out: every send leaves through it (egress.go,
	// internal/egress).
	egress *egress.Port
	lastHB time.Duration
	// peers is the member table: one record per other member of the current
	// composition, rebuilt at every change of it and dropped on departure
	// (rebuildPeers).
	peers map[ids.NodeID]*peer

	join           *joinContext
	awaitDeadline  time.Duration // phaseAwaitSnapshot orphan recovery
	expectSnapshot map[ids.GroupID]bool
	// snaps is the one table of the snapshot shares addressed to this node,
	// whatever it adopts them as: joiner, mover or laggard (join.go).
	snaps map[snapKey]*snapTally
	// recentSnaps caches this node's recent outgoing snapshot payloads by
	// the epoch that attests them, for heartbeat-triggered re-shares:
	// catch-up shares are sent once, and a laggard partitioned at exactly
	// the wrong moment would otherwise miss them forever (its heartbeats
	// keep it un-evicted, but it cannot participate — a permanent zombie).
	// Only a heartbeat below the current epoch asks for a re-share, so the
	// cache is freed once the last heartbeat of every other member names the
	// current epoch or a later one (peerBehind). It is nil when nothing is
	// cached.
	recentSnaps   map[uint64][]byte
	walkDeadlines map[crypto.Digest]time.Duration
	lastChains    map[crypto.Digest][]overlay.StepCert // member-local cert chains, until the walk's arrival
	chainQ        []crypto.Digest                      // lastChains' keys, oldest first
	mergeRetryAt  time.Duration
	shuffleNextAt time.Duration // local pacing of shuffle exchanges
	lastPrune     time.Duration
	freshSent     *rateLimiter[group.Key] // freshness replies per stale sender

	// pen buffers SMR envelopes for configurations not installed yet; penQ
	// holds its keys oldest first.
	pen  map[group.Key][]penMsg
	penQ []group.Key

	delivered deliveredIndex // the broadcasts this node delivered, by gossip digest (pull.go)
	rep       repair         // the repair paths behind relayed gossip (pull.go)
	// holders is who is known to hold the broadcasts this node delivered and
	// whose forwards have not all left (gossip.go, the holders record).
	holders map[crypto.Digest]*heldRecord

	counts  Stats // the counters Stats reports; its Egress stays zero
	stopped bool
}

type penMsg struct {
	from ids.NodeID
	msg  any
}

// snapKey identifies one attested snapshot: the composition that attests it
// and the digest of its payload.
type snapKey struct {
	src    group.Key
	digest crypto.Digest
}

// snapTally accumulates the shares of one attested snapshot.
type snapTally struct {
	senders map[ids.NodeID]bool
	payload []byte
	opener  ids.NodeID // the sender whose share opened the tally, charged for it
	// attested: a majority of the attesting composition endorsed the payload,
	// as a joiner or mover judges it (attestSnapshots).
	attested bool
}

// maxSnapShares bounds the snapshot table; maxSnapSharesPerSender bounds the
// tallies one sender's shares may open. The contracted workloads peak at 2
// tallies at one node, in async_wan. maxChains bounds the walk chains a member
// keeps for arrivals it has not applied.
const (
	maxSnapShares          = 64
	maxSnapSharesPerSender = maxSnapShares / 4
	maxChains              = 512
)

var _ actor.Node = (*Node)(nil)

// New creates a node from its configuration.
func New(cfg Config) *Node {
	cfg = cfg.withDefaults()
	n := &Node{
		cfg:            cfg,
		signer:         cfg.Scheme.NewSigner(cfg.SignerSeed),
		phase:          phaseIdle,
		comps:          compStore{byGroup: make(map[ids.GroupID][]group.Composition)},
		ownPend:        make(map[crypto.Digest]smr.Operation),
		expectSnapshot: make(map[ids.GroupID]bool),
		walkDeadlines:  make(map[crypto.Digest]time.Duration),
		lastChains:     make(map[crypto.Digest][]overlay.StepCert),
		freshSent:      newRateLimiter[group.Key](replyWindow(cfg), 256, 1024),
		pen:            make(map[group.Key][]penMsg),
		snaps:          make(map[snapKey]*snapTally),
		rep:            newRepair(cfg.RoundDuration),
		holders:        make(map[crypto.Digest]*heldRecord),
	}
	n.inbox = group.NewInbox(n.lookupComp)
	n.egress = n.newEgress()
	return n
}

// Identity returns the node's identity with the signer's public key filled in.
func (n *Node) Identity() ids.Identity {
	id := n.cfg.Identity
	id.PubKey = n.signer.Public()
	return id
}

// Comp returns the node's current vgroup composition (zero if not a member).
func (n *Node) Comp() group.Composition {
	if n.st == nil {
		return group.Composition{}
	}
	return n.st.comp.Clone()
}

// IsMember reports whether the node is currently a vgroup member.
func (n *Node) IsMember() bool { return n.phase == phaseMember && n.st != nil }

// Neighbors returns a copy of the node's overlay view (for tests/metrics).
func (n *Node) Neighbors() overlay.Neighbors {
	if n.st == nil {
		return overlay.Neighbors{}
	}
	return n.st.nbrs.Clone()
}

// logf writes a debug line to the runtime's log sink, which attributes it
// to this node (simnet.Config.Logf, RealtimeOptions.Logf). Lines logged
// before Start have no runtime to go to and are dropped.
func (n *Node) logf(format string, args ...any) {
	if n.env != nil {
		n.env.Logf(format, args...)
	}
}

// byzActive reports whether a fault behaviour is in force: a faulty node joins
// correctly, then misbehaves. What it then does is decided at the node's edge
// alone: Receive takes nothing in, the tick does its one job (faultyTick), and
// faultFilter passes only what that job sends.
func (n *Node) byzActive() bool {
	return n.behavior > BehaviorCorrect && n.phase == phaseMember
}

// faultFilter is the node's transport as its egress port sees it: the one
// filter on a faulty member's sends. A silent member sends nothing; a
// heartbeat-only member sends its heartbeats and its own agreement messages.
type faultFilter struct {
	actor.Env
	n *Node
}

// Send passes msg on unless a faulty member does not send it.
func (e faultFilter) Send(to ids.NodeID, msg actor.Message) {
	if e.n.byzActive() {
		switch msg.(type) {
		case Heartbeat, SMREnvelope:
			if e.n.behavior != BehaviorHeartbeatOnly {
				return
			}
		default:
			return
		}
	}
	e.Env.Send(to, msg)
}

// --- actor.Node ---

// Start implements actor.Node.
func (n *Node) Start(env actor.Env) {
	n.env = env
	n.egress.Start(faultFilter{Env: env, n: n})
	// Align ticks on global multiples of RoundDuration so vgroup members
	// share round boundaries (the virtual clock is global; real clocks are
	// assumed loosely synchronized, as the paper's Sync deployment does).
	delay := n.cfg.RoundDuration - env.Now()%n.cfg.RoundDuration
	env.SetTimer(delay, tickTimer{})
	if n.join != nil && n.phase == phaseJoining {
		n.startJoinAttempt() // Join was requested before the runtime started
	}
}

// Stop implements actor.Node.
func (n *Node) Stop() {
	n.stopped = true
	if n.replica != nil {
		n.replica.Stop()
	}
}

// Timer implements actor.Node.
func (n *Node) Timer(_ actor.TimerID, data any) {
	if n.stopped {
		return
	}
	if n.byzActive() {
		// A faulty member's one job runs on its tick; its egress and replica
		// timers fire into nothing.
		if _, ok := data.(tickTimer); ok {
			n.faultyTick()
		}
		return
	}
	switch t := data.(type) {
	case tickTimer:
		n.handleTick()
	case egressFlushTimer:
		n.egress.OnTimer()
	case smrTimer:
		if n.replica != nil && t.epoch == n.replicaEpoch {
			n.replica.HandleTimer(t.data)
		}
	}
}

// Receive implements actor.Node.
func (n *Node) Receive(from ids.NodeID, msg actor.Message) {
	if n.stopped {
		return
	}
	if n.byzActive() {
		return // a faulty member takes nothing in
	}
	switch m := msg.(type) {
	case Heartbeat:
		n.handleHeartbeat(from, m)
	case SMREnvelope:
		n.handleSMREnvelope(from, m)
	case JoinContact:
		n.handleJoinContact(from, m)
	case ContactInfo:
		n.handleContactInfo(from, m)
	case JoinRequest:
		n.handleJoinRequest(from, m)
	case Renounce:
		n.handleRenounce(from, m)
	case PayloadPull:
		n.handlePayloadPull(from, m)
	case PayloadPush:
		n.handlePayloadPush(m)
	case group.GroupMsg:
		n.maybeRefreshSender(m)
		n.routeGroupMsg(from, m)
	}
	// Anything else never passed a decoder (only simnet/rtnet can carry such
	// a value) and is dropped: application raw messages arrive as kindRaw
	// group messages and reach OnRawMessage through handleRawItem.
}

func (n *Node) routeGroupMsg(from ids.NodeID, m group.GroupMsg) {
	if m.Kind == kindSnapshot {
		n.observeShare(from, m) // node-addressed: the snapshot table, not the inbox
		return
	}
	if m.Kind == kindBatch {
		n.handleBatch(from, m)
		return
	}
	if m.Kind == kindRaw {
		if m.Payload != nil {
			n.handleRawItem(from, m.Payload)
		}
		return
	}
	if rowByKind[m.Kind] == nil {
		// No row in the wire table — never assigned, or retired (17–19 from
		// an old tree-on peer): it must not buy an inbox entry held for
		// inboxTTL. handleBatch drops the same kinds inside a carrier.
		return
	}
	if n.cfg.Mode == smr.ModeAsync {
		// Certificate-mode direct replies cannot be majority-validated
		// (the receiver does not know the sender vgroup yet); the
		// chain itself authenticates them.
		switch m.Kind {
		case kindWalkResult:
			n.handleDirectWalkReply(from, m)
			return
		case kindJoinRedirect:
			n.handleDirectRedirect(from, m)
			return
		}
	}
	n.observeCopy(from, m)
}

// observeCopy votes one copy of a group message, plain or unpacked from a
// carrier, into the inbox. A gossip message is identified by its payload digest
// (forwardGossip): a copy under any other MsgID comes from no correct member
// and would open an entry no SettleAll covers, so it is dropped here, and so is
// a copy of a broadcast the delivered index holds — the inbox keeps no record
// of a delivered gossip message, so this probe is the one turn-away. What such
// a copy says, that its sender holds the broadcast, goes to the holders record
// while this node's forwards of it wait (gossip.go).
func (n *Node) observeCopy(from ids.NodeID, m group.GroupMsg) {
	if m.Kind == kindGossip {
		if m.MsgID != m.PayloadDigest {
			return
		}
		if n.delivered.has(m.MsgID) {
			n.noteHolder(m.MsgID, from, group.Key{GroupID: m.SrcGroup, Epoch: m.SrcEpoch})
			return
		}
	}
	if acc, ok := n.inbox.Observe(n.env.Now(), from, m); ok {
		n.handleAccepted(acc)
	}
}

// SendRawWith sends an application-level message to another node; the
// receiver's OnRawMessage hook gets it. Applications layer their own
// protocols (file chunks, stream data) on this. The message type must be
// registered in the wire extension-tag range (RegisterRawMessage): it rides
// the egress scheduler — concurrent sends to the same node coalesce into
// batch carriers — and every transport carries it as a wire-envelope frame.
//
// SendRawWith reports failures instead of silently dropping: ErrNotRunning
// when the node is not attached to a running runtime, ErrUnregisteredType
// when the type has no wire codec, and ErrEgressOverflow when the
// destination's bounded egress queue rejected the message (flow control —
// see NodeQueueLimit).
//
// opts carries the flow-control options: a priority class (overflow on the
// destination's bounded queue sheds lower-priority items first) and an
// optional TTL bounding how long the message may wait in the sender's
// egress queue before it is dropped as stale; SendOpts{} means defaults.
func (n *Node) SendRawWith(to ids.NodeID, msg any, opts SendOpts) error {
	if n.env == nil || n.stopped {
		return ErrNotRunning
	}
	payload, ok := encodeWire(msg, classExt)
	if !ok {
		return ErrUnregisteredType
	}
	src := group.Composition{}
	if n.st != nil {
		src = n.st.comp
	}
	var expires time.Duration
	if opts.TTL > 0 {
		expires = n.env.Now() + opts.TTL
	}
	// MsgID is the payload digest by construction, so a carrier of raw items
	// omits it (DerivedID) and the receiver re-derives it.
	return n.egress.EnqueueNodeWith(src, to,
		group.BatchItem{Kind: kindRaw, MsgID: crypto.Hash(payload), Payload: payload, DerivedID: true},
		opts.Priority, expires)
}

// SetBehavior switches the node's behaviour: the one way to inject a fault
// (experiments). Byzantine behaviours activate once the node is a vgroup
// member, so a node told to misbehave before it joins still joins correctly.
func (n *Node) SetBehavior(b Behavior) { n.behavior = b }

// Now returns the node's clock (virtual in simulation).
func (n *Node) Now() time.Duration {
	if n.env == nil {
		return 0
	}
	return n.env.Now()
}

// --- tick ---

func (n *Node) handleTick() {
	now := n.env.Now()
	n.round = uint64(now / n.cfg.RoundDuration)
	n.env.SetTimer(n.cfg.RoundDuration, tickTimer{})

	// The lockstep round is the ModeSync batching window: the round's group
	// messages leave now. (The asynchronous engine holds nothing for it.)
	n.egress.FlushDeferred()

	if n.cfg.Mode == smr.ModeSync && n.replica != nil {
		n.replica.Tick(n.round)
	}

	n.delivered.trim(now - n.cacheHorizon())
	if n.phase == phaseMember && n.st != nil {
		n.heartbeatTick(now, false)
		n.walkDeadlineTick(now)
		n.mergeRetryTick(now)
		n.shuffleProposeTick(now)
		n.repairTick(now)
	}
	if n.join != nil && now > n.join.deadline {
		n.retryJoin()
	}
	if n.phase == phaseAwaitSnapshot && n.awaitDeadline > 0 && now > n.awaitDeadline {
		// Orphaned mid-move (the destination vgroup never sent our
		// snapshot): disown any phantom membership, then rejoin through
		// any node we expected the snapshot from.
		n.awaitDeadline = 0
		var contact ids.Identity
		// Ascending GroupID, not map order: the renounce order and the
		// rejoin contact must be the same on every replay of a seed.
		for _, gid := range slices.Sorted(maps.Keys(n.expectSnapshot)) {
			if c, ok := n.comps.newest(gid); ok && c.N() > 0 {
				n.sendRenounce(c)
				if contact.ID == 0 {
					contact = c.Members[0]
				}
			}
		}
		if contact.ID != 0 {
			n.phase = phaseIdle
			n.expectSnapshot = make(map[ids.GroupID]bool)
			if err := n.Join(contact); err != nil {
				n.logf("orphan rejoin: %v", err)
			}
			return
		}
		n.phase = phaseLeft
		if n.cfg.Callbacks.OnLeft != nil {
			n.cfg.Callbacks.OnLeft("orphaned")
		}
	}
	if now-n.lastPrune > inboxTTL/2 {
		n.lastPrune = now
		n.inbox.Prune(now - inboxTTL)
	}
}

// faultyTick is the tick of a member whose fault behaviour is in force: its
// one job (§6.1.3). A silent member does nothing. A heartbeat-only member
// heartbeats, so it is not evicted, and lies that every peer is silent, so it
// proposes to evict each one through the one eviction path. Its replica ticks,
// so that in ModeSync those proposals leave at the round; it hears no
// agreement traffic (Receive) and no replica timer.
func (n *Node) faultyTick() {
	now := n.env.Now()
	n.env.SetTimer(n.cfg.RoundDuration, tickTimer{})
	if n.behavior == BehaviorHeartbeatOnly {
		n.heartbeatTick(now, true)
		if n.cfg.Mode == smr.ModeSync && n.replica != nil {
			n.replica.Tick(uint64(now / n.cfg.RoundDuration))
		}
	}
}

// heartbeatTick sends this member's heartbeats and, once per heartbeat
// period, votes to evict the peers silent for EvictAfter (§5.1) — every
// peer, when allSilent says so.
func (n *Node) heartbeatTick(now time.Duration, allSilent bool) {
	if now-n.lastHB < n.cfg.HeartbeatEvery {
		return
	}
	// The tags cover what a peer checks them against (checkLacks): its
	// deliveries since one skew margin before it got the previous heartbeat,
	// give or take one margin of delivery skew.
	from := max(n.lastHB-2*n.skewMargin(), now-n.cacheHorizon())
	n.lastHB = now
	hb := Heartbeat{GroupID: n.st.comp.GroupID, Epoch: n.st.comp.Epoch}
	if ds := n.delivered.window(from, now); len(ds) > 0 { // an empty set needs no salt
		hb.Salt = uint64(crypto.Derive("atum-have", n.cfg.SignerSeed, uint64(now)).Seed())
		hb.Have = haveTags(hb.Salt, ds)
	}
	for _, m := range n.st.comp.Members {
		if m.ID != n.cfg.Identity.ID {
			hb.Lacks = n.lacksFor(m.ID)
			n.egress.Node(m.ID, hb)
		}
	}
	// One vote per (target, epoch); eviction fires at f+1 votes.
	for _, m := range n.st.comp.Members {
		p := n.peers[m.ID]
		if p == nil {
			continue // this node
		}
		if (allSilent || now-p.heardAt > n.cfg.EvictAfter) && p.evictEpoch != n.st.comp.Epoch {
			p.evictEpoch = n.st.comp.Epoch
			n.proposeOp(evictVoteOp{GroupID: n.st.comp.GroupID, Target: m.ID, Epoch: n.st.comp.Epoch})
		}
	}
}

func (n *Node) handleHeartbeat(from ids.NodeID, m Heartbeat) {
	if n.st == nil || m.GroupID != n.st.comp.GroupID {
		return
	}
	p := n.peers[from]
	if p == nil {
		return // not another member of this node's composition
	}
	p.heardAt, p.heard = n.env.Now(), group.Key{GroupID: m.GroupID, Epoch: m.Epoch}
	if m.Epoch < n.st.comp.Epoch {
		n.reShareSnapshot(from, p, m.Epoch)
	} else if n.recentSnaps != nil && !n.peerBehind() {
		n.recentSnaps = nil
	}
	n.noteListed(from, m.Lacks)
	n.checkLacks(p, m)
}

// reShareSnapshot re-sends this node's share of an epoch snapshot to a
// member whose heartbeat shows it stuck at an older epoch — anti-entropy
// for the one-shot catch-up shares, which a partition can swallow entirely.
// At most one goes to a laggard per reply window; only epochs still cached
// are re-shared.
func (n *Node) reShareSnapshot(to ids.NodeID, p *peer, stuckEpoch uint64) {
	payload, ok := n.recentSnaps[stuckEpoch]
	if !ok {
		return
	}
	// Exact: lookupComp's fallback would attest another epoch's members.
	oldComp, ok := n.comps.exact(group.Key{GroupID: n.st.comp.GroupID, Epoch: stuckEpoch})
	if !ok || !oldComp.Contains(n.cfg.Identity.ID) {
		return // cannot attest an epoch this node was not part of
	}
	now := n.env.Now()
	if now < p.reShareAt {
		return
	}
	p.reShareAt = now + replyWindow(n.cfg)
	n.egress.ToNode(oldComp, to, kindSnapshot, snapMsgID(oldComp, to), payload)
}

// --- composition store ---

// compStore is the one store of the compositions a node knows: per vgroup, the
// known compositions in ascending epoch order, so the newest is the last. They
// are shared by reference — a composition is never written once it exists
// (group.Composition). q lists the keys in the order they were learned; past
// maxComps the oldest is dropped.
type compStore struct {
	byGroup map[ids.GroupID][]group.Composition
	q       []group.Key
}

// findEpoch returns where epoch is, or belongs, in a vgroup's list.
func findEpoch(list []group.Composition, epoch uint64) (int, bool) {
	return slices.BinarySearchFunc(list, epoch, func(c group.Composition, e uint64) int { return cmp.Compare(c.Epoch, e) })
}

// exact returns the composition of k.
func (s *compStore) exact(k group.Key) (group.Composition, bool) {
	list := s.byGroup[k.GroupID]
	if i, ok := findEpoch(list, k.Epoch); ok {
		return list[i], true
	}
	return group.Composition{}, false
}

// newest returns the newest composition of gid.
func (s *compStore) newest(gid ids.GroupID) (group.Composition, bool) {
	list := s.byGroup[gid]
	if len(list) == 0 {
		return group.Composition{}, false
	}
	return list[len(list)-1], true
}

// add stores c unless its key is known, and reports whether it was new.
func (s *compStore) add(c group.Composition) bool {
	list := s.byGroup[c.GroupID]
	i, known := findEpoch(list, c.Epoch)
	if known {
		return false
	}
	s.byGroup[c.GroupID] = slices.Insert(list, i, c)
	s.q = append(s.q, c.Key())
	if len(s.q) > maxComps {
		s.drop(s.q[0])
		s.q = s.q[1:]
	}
	return true
}

// drop forgets the composition of k.
func (s *compStore) drop(k group.Key) {
	list := s.byGroup[k.GroupID]
	if i, ok := findEpoch(list, k.Epoch); ok {
		list = slices.Delete(list, i, i+1)
	}
	if len(list) == 0 {
		delete(s.byGroup, k.GroupID)
	} else {
		s.byGroup[k.GroupID] = list
	}
}

// exactComp returns the composition of k if this node knows it.
func (n *Node) exactComp(k group.Key) (group.Composition, bool) {
	if n.st != nil && n.st.comp.Key() == k {
		return n.st.comp, true
	}
	return n.comps.exact(k)
}

func (n *Node) lookupComp(k group.Key) (group.Composition, bool) {
	if c, ok := n.exactComp(k); ok {
		return c, ok
	}
	// Epoch-tolerant fallback: exchanges change one member per epoch, so a
	// recent composition of the same vgroup still shares a correct majority
	// with the claimed one. Without this, simultaneous churn on both sides
	// of a link can kill it permanently (updates chase a moving target).
	if c, ok := n.comps.newest(k.GroupID); ok {
		diff := int64(k.Epoch) - int64(c.Epoch)
		if diff < 0 {
			diff = -diff
		}
		if diff <= 16 {
			return c, true
		}
	}
	return group.Composition{}, false
}

// learnComp is the node's one constructor of the compositions it keeps: it
// records c for inbox validation, flushes any group messages and snapshot
// shares that were waiting for it, and returns the composition the caller
// keeps in c's place. That is the stored composition of c's key if it is
// Equal to c; otherwise c with every member that an Equal identity of a known
// composition matches taken from there (shareMembers), so the compositions a
// node holds share each member's address and key bytes instead of each
// holding a decoded copy.
func (n *Node) learnComp(c group.Composition) group.Composition {
	if c.IsZero() || c.GroupID == 0 {
		return c
	}
	for _, m := range c.Members {
		actor.LearnIdentity(n.env, m)
	}
	if s, ok := n.comps.exact(c.Key()); ok {
		if s.Equal(c) {
			return s
		}
		return n.shareMembers(c) // another composition under a known key is not stored
	}
	c = n.shareMembers(c)
	n.comps.add(c)
	for _, acc := range n.inbox.FlushKey(n.env.Now(), c.Key()) {
		n.handleAccepted(acc)
	}
	if n.attestSnapshots(c.Key()) && n.phase != phaseMember {
		n.adoptSnapshots()
	}
	return c
}

// shareDepth is how many of a vgroup's newest stored compositions
// shareMembers searches: one epoch changes one member, so the newest few hold
// nearly every member a new composition of that vgroup names.
const shareDepth = 4

// shareMembers returns c with each member that an Equal identity (the same
// NodeID, address and key bytes) of the node's own composition or of the
// shareDepth newest stored compositions of c's vgroup matches replaced by
// that identity. A member matched only under another key or address keeps its
// own, so a re-keyed identity never reaches a stored composition. The result
// holds c's own list when every member already shares its bytes, and a fresh
// one of exactly its length otherwise: c's list is never written.
func (n *Node) shareMembers(c group.Composition) group.Composition {
	var out []ids.Identity
	for i, m := range c.Members {
		s, ok := n.knownIdentity(c.GroupID, m)
		if !ok || sameBytes(s, m) {
			continue
		}
		if out == nil {
			out = make([]ids.Identity, len(c.Members))
			copy(out, c.Members)
		}
		out[i] = s
	}
	if out == nil {
		return c
	}
	return group.Composition{GroupID: c.GroupID, Epoch: c.Epoch, Members: out}
}

// knownIdentity returns the identity Equal to m in the node's own composition
// or in the shareDepth newest stored compositions of vgroup gid.
func (n *Node) knownIdentity(gid ids.GroupID, m ids.Identity) (ids.Identity, bool) {
	if n.st != nil {
		if i := n.st.comp.Index(m.ID); i >= 0 && n.st.comp.Members[i].Equal(m) {
			return n.st.comp.Members[i], true
		}
	}
	list := n.comps.byGroup[gid]
	for j := len(list) - 1; j >= max(0, len(list)-shareDepth); j-- {
		if i := list[j].Index(m.ID); i >= 0 && list[j].Members[i].Equal(m) {
			return list[j].Members[i], true
		}
	}
	return ids.Identity{}, false
}

// sameBytes reports whether a and b hold their address and key in the same
// memory: a composition the node built from identities it holds already —
// a reconfiguration's, a split's — keeps its own list.
func sameBytes(a, b ids.Identity) bool {
	return unsafe.StringData(a.Addr) == unsafe.StringData(b.Addr) &&
		unsafe.SliceData(a.PubKey) == unsafe.SliceData(b.PubKey)
}

// --- SMR plumbing ---

func (n *Node) handleSMREnvelope(from ids.NodeID, m SMREnvelope) {
	if n.st != nil && n.replica != nil &&
		m.GroupID == n.st.comp.GroupID && m.Epoch == n.replicaEpoch {
		n.replica.Receive(from, m.Inner)
		return
	}
	// Buffer messages for configurations we have not installed yet (our
	// members may reconfigure a moment before us, or our snapshot is still
	// in flight).
	k := group.Key{GroupID: m.GroupID, Epoch: m.Epoch}
	if n.st != nil && m.GroupID == n.st.comp.GroupID && m.Epoch <= n.replicaEpoch {
		return // stale epoch
	}
	if _, ok := n.pen[k]; !ok {
		if len(n.penQ) >= maxPenKeys { // the oldest buffer makes room
			delete(n.pen, n.penQ[0])
			n.penQ = n.penQ[1:]
		}
		n.penQ = append(n.penQ, k)
	}
	if len(n.pen[k]) < maxPen {
		n.pen[k] = append(n.pen[k], penMsg{from: from, msg: m.Inner})
	}
}

// makeReplica builds the SMR replica for the current composition.
func (n *Node) makeReplica() {
	comp := n.st.comp
	epoch := comp.Epoch
	n.replicaEpoch = epoch
	cfg := smr.Config{
		GroupID: comp.GroupID,
		Epoch:   epoch,
		Members: comp.Members,
		Self:    n.cfg.Identity.ID,
		Scheme:  n.cfg.Scheme,
		Signer:  n.signer,
		Send: func(to ids.NodeID, msg actor.Message) {
			n.egress.Node(to, SMREnvelope{GroupID: comp.GroupID, Epoch: epoch, Inner: msg})
		},
		SetTimer: func(d time.Duration, data any) {
			n.env.SetTimer(d, smrTimer{epoch: epoch, data: data})
		},
		Commit: n.makeCommitFn(epoch),
		Logf:   n.logf,
	}
	var rep smr.Replica
	if n.cfg.Mode == smr.ModeAsync {
		rep = pbft.New(cfg, pbft.Options{RequestTimeout: n.cfg.RequestTimeout})
	} else {
		rep = dolev.New(cfg)
		// Initialize the replica at the current absolute round BEFORE
		// draining buffered traffic: catch-up slots must be judged against
		// the real round (and the replica's birth round), not round zero.
		// No slots are accepted yet, so this Tick cannot commit anything.
		rep.Tick(uint64(n.env.Now() / n.cfg.RoundDuration))
	}
	n.replica = rep

	// Drop the buffers of this configuration and of those that can no longer
	// be installed, then drain buffered traffic for this one.
	buffered := n.pen[group.Key{GroupID: comp.GroupID, Epoch: epoch}]
	n.penQ = slices.DeleteFunc(n.penQ, func(k group.Key) bool {
		if k.GroupID == comp.GroupID && k.Epoch <= epoch {
			delete(n.pen, k)
			return true
		}
		return false
	})
	// NOTE on reentrancy: catching up on buffered traffic can commit the
	// epoch's membership-changing op, which reconfigures and installs the
	// NEXT epoch's replica from inside these calls. Once that happens this
	// frame must not touch n.replica again.
	stale := func() bool { return n.replica != rep || n.replicaEpoch != epoch }
	n.logf("makeReplica %v/%d: draining %d buffered msgs", comp.GroupID, epoch, len(buffered))
	for _, pm := range buffered {
		if stale() {
			return
		}
		rep.Receive(pm.from, pm.msg)
	}
	// Re-propose everything of ours that has not been applied yet, in
	// ascending OpID — the order it was first proposed in. Map order would
	// reorder the replica's batches, and with them the commit order, between
	// two identically seeded runs. Buffered pre-birth slots finalize at the
	// next round tick, in the same deterministic (round, member) order the
	// in-time members used.
	pend := slices.SortedFunc(maps.Keys(n.ownPend), func(a, b crypto.Digest) int {
		return cmp.Compare(n.ownPend[a].OpID, n.ownPend[b].OpID)
	})
	for _, dig := range pend {
		if stale() {
			return
		}
		if op, ok := n.ownPend[dig]; ok { // not applied by an earlier Propose
			rep.Propose(op)
		}
	}
}

func (n *Node) makeCommitFn(epoch uint64) smr.CommitFn {
	return func(op smr.Operation) {
		// SMART-style barrier: a membership op is the last applied op of
		// its epoch; anything the old instance commits afterwards is
		// discarded (it will be re-proposed).
		if n.st == nil || n.replicaEpoch != epoch || n.st.comp.Epoch != epoch {
			return
		}
		n.applyCommitted(op)
	}
}

// proposeOp content-addresses and proposes an engine operation.
func (n *Node) proposeOp(v any) {
	if n.replica == nil || n.st == nil {
		return
	}
	data := encodePayload(v)
	dig := opDigest(data)
	if n.st.applied.has(dig) {
		return
	}
	if _, ok := n.ownPend[dig]; ok {
		return
	}
	n.opSeq++
	op := smr.Operation{Proposer: n.cfg.Identity.ID, OpID: n.opSeq, Data: data}
	n.ownPend[dig] = op
	n.replica.Propose(op)
}

// FaultBound returns the configured mode's fault bound f for a group of the
// given size (exported for tier-2 layers sizing f+1-parent forests).
func (n *Node) FaultBound(groupSize int) int { return n.cfg.Mode.F(groupSize) }

// f returns the engine's current per-group fault bound.
func (n *Node) f() int {
	if n.st == nil {
		return 0
	}
	return n.cfg.Mode.F(n.st.comp.N())
}

// replyWindow is how often one reply of a kind may go to one node: a
// freshness reply to a stale sender, a snapshot re-share to a laggard.
func replyWindow(cfg Config) time.Duration { return 4 * cfg.RoundDuration }

// peer is the member table's record of one other member of this node's
// composition: what the failure detector, the snapshot cache, the re-share
// pacing and the catch-up check (pull.go) keep of it.
type peer struct {
	heardAt    time.Duration // its last heartbeat, or the last change of composition since
	heard      group.Key     // the vgroup and epoch its last heartbeat named
	evictEpoch uint64        // the epoch at which this node proposed to evict it; 0 for none
	reShareAt  time.Duration // no snapshot re-share goes to it before then

	// The catch-up check: up to when this node's deliveries were checked
	// against the member's tags, and the digests its tags lacked, oldest
	// first, at most maxListed, each sent in this node's heartbeats to it
	// until its tags show it or cacheHorizon has passed since its delivery.
	upTo  time.Duration
	lacks []crypto.Digest
}

// rebuildPeers remakes the member table for the current composition, at
// every change of it. A member who stays keeps its record: its catch-up
// check, its re-share pacing and the epoch its last heartbeat named; its
// heartbeat clock restarts now and its eviction vote is cleared, votes being
// per epoch. A member new to this node gets a fresh record whose check starts
// one heartbeat period from now: deliveries up to then are not listed to it,
// since they may predate its membership. A member who left loses its record.
func (n *Node) rebuildPeers() {
	now := n.env.Now()
	old := n.peers
	n.peers = make(map[ids.NodeID]*peer, n.st.comp.N())
	for _, m := range n.st.comp.Members {
		if m.ID == n.cfg.Identity.ID {
			continue
		}
		p := old[m.ID]
		if p == nil {
			p = &peer{upTo: now + n.cfg.HeartbeatEvery}
		}
		p.heardAt, p.evictEpoch = now, 0
		n.peers[m.ID] = p
	}
}

// peerBehind reports whether some other member's last heartbeat named an
// epoch before the current one, or none of this vgroup: that member may yet
// ask for a cached snapshot.
func (n *Node) peerBehind() bool {
	for _, m := range n.st.comp.Members {
		if p := n.peers[m.ID]; p != nil && (p.heard.GroupID != n.st.comp.GroupID || p.heard.Epoch < n.st.comp.Epoch) {
			return true
		}
	}
	return false
}
