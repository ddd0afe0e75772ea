package egress

// The Port is the one place that knows how a message leaves a node. The engine
// hands it the node's actor.Env at Start and keeps none itself, so nothing
// else can reach the transport. Handlers call one of its methods and the
// destination and the engine's Rules decide the rest:
//
//   - Group: a group message to every member of a vgroup, of any kind. It is
//     queued on the Scheduler, whose batches come back through frame to the
//     fan-out. In the synchronous engine it waits for the round tick:
//     FlushDeferred frames the round.
//   - ToNode: a group message to one node (snapshots, the backward-mode join
//     redirect), never queued or held.
//   - Node: a node-level message (NodeMsg), never queued or held.
//   - GroupAttach, Chained and ChainedTo: the certificate-mode walk hop, walk
//     reply and join redirect, which carry this member's chain as a
//     sender-specific attachment that a carrier frame has no slot for.
//     Certificate mode is asynchronous, so they leave at once.
//
// Application raw messages (Scheduler.EnqueueNodeWith) enter the Scheduler's
// node-addressed queues directly. Every copy leaves through the runtime's
// Send on the env Start attached.
//
// What a copy carries is group's one rule (group.CopyRule), and every copy is
// built by group.Copy: one item is a plain message, several a carrier. Who
// gets which copy is decided here, in one loop, fanOut, which a group batch
// and GroupAttach both take (a second speaker's turn, below, is speak's): in
// a random order against incast (§5.1), every destination member gets the
// lean copy — ordinary payloads from a majority member, no relayed payload —
// except, on a relayed hop, the members this member is the RelaySender of
// (group.RelaySender). Of those, one that Rules.Holds already names a holder
// of every relayed payload gets the lean copy too; the copy toward any other
// parks and is built when it leaves, each relayed payload the member is by
// then known to hold going as its digest alone. A crossing — two neighbors
// that deliver at once and send each other the bytes — costs a lag instead of
// a payload. The parked copies keep their captured src/dst and leave at the
// Scheduler's timer (Config.Arm, OnTimer) or at FlushAll, whichever is first.
//
// The fan-out pays per logical copy, not per destination member: a copy is
// boxed as an actor.Message once and that one value goes to every member it
// is for (a boxed value cannot be changed, and each receiver copies it out).
// The random order is drawn into a buffer the port keeps, with exactly the
// draws rand.Perm makes, so the node's random stream and every event order
// are as rand.Perm would leave them.
//
// How long a copy parks depends on the round. Outside a synchronous round a
// served copy parks for one Rules.RelayLag, which must exceed one link delay
// so that a vote the member's vgroup sent at the same moment arrives first.
// In a synchronous round (Rules.Sync) the two ends of a relayed link take
// turns, ordered by GroupID, so that one end's votes stop the other's too:
//
//   - the lower vgroup speaks first: its lean copies leave at the tick, and
//     its served copies park for two lags;
//   - the higher vgroup speaks second: its whole batch toward the lower one
//     waits one lag (turn). As it leaves, the link rule (Rules.Withdraw) is
//     asked again, and what the first speaker's votes made redundant is
//     dropped from the lean copies. The served copies leave all the same,
//     built under Rules.Holds, so they go digest-only: one vote for each
//     member of the first speaker, which lets its parked copies withhold
//     their bytes under the vgroup rule.
//
// One lag must exceed one link delay, so that the first speaker's votes reach
// the second before its batch leaves; two lags must exceed one lag plus one
// link delay, so that the second speaker's served votes reach the first
// speaker's parked copies. A batch with no relayed payload (the origin hop)
// takes no turn and leaves at the tick.
//
// Correctness needs no cross-member coordination: the receiver votes each
// inner item into its inbox under the item's own MsgID, so members whose
// flush windows cut differently still converge (internal/group/batch.go).
// Batches always leave stamped with the source composition captured at
// enqueue time — the Scheduler closes a destination whose source changes, and
// the engine calls FlushAll before every replicated-state replacement
// (reconfigure, split install, merge dissolve, epoch catch-up).

import (
	"slices"
	"time"

	"atum/internal/actor"
	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
)

// Rules is what the engine decides about its own traffic and this package,
// below the engine, cannot import.
type Rules struct {
	// Self is the node's ID: a member's index in the source composition
	// decides whether its copies carry payloads.
	Self ids.NodeID
	// Sync holds every group message for the round tick (FlushDeferred): the
	// synchronous engine moves one overlay hop per round, like the paper's
	// round-based Sync implementation.
	Sync bool
	// Carrier is the group kind of a batch carrier.
	Carrier group.Kind
	// Withdraw and Holds are the engine's withholding rules, read as a batch
	// leaves: Withdraw drops an item of a group batch before the scheduler
	// counts its carriers (Config.Withdraw), and once more from a second
	// speaker's lean copies as its turn comes — what it drops from those never
	// left them, so Left is not told of it — and Holds names the destination
	// members that need no relayed payload (group.Holds), asked again as each
	// parked copy leaves. Either may be nil.
	Withdraw func(dst group.Composition, it group.BatchItem) bool
	Holds    group.Holds
	// RelayLag is how long a relayed copy toward a member this member is the
	// RelaySender of waits for the vote that makes its payloads redundant. It
	// must exceed one link delay. A served copy parks for one lag, but in a
	// synchronous round's turns (see the package comment) the second
	// speaker's whole batch waits one lag and the first speaker's served
	// copies park for two: one lag plus one link delay, for the second
	// speaker's served votes to arrive. With zero nothing waits and no turns
	// are taken.
	RelayLag time.Duration
	// Left, when set, is told of each item of a group batch once its copies
	// have left the port: when its batch is framed, or, if the batch parked a
	// copy, when the last parked copy leaves — so the engine knows until when
	// Holds is read for it.
	Left func(it group.BatchItem)
}

// NodeMsg is a node-level message: a handshake with a node that shares no
// vgroup with this one, a failure detector's beacon or consensus itself. Its
// types opt in with the NodeAddressed marker, which group.GroupMsg lacks: a
// group message leaves through the Port's group-message methods, built there,
// never hand-built by a caller.
type NodeMsg interface{ NodeAddressed() }

// Port is a node's way out: the Scheduler plus the transport handle it frames
// onto. Create with NewPort; Start attaches the runtime.
type Port struct {
	*Scheduler
	env      actor.Env
	rules    Rules
	withheld uint64 // relayed payloads withheld from a holder
	// parked holds the batches that wait, one queue per lag: [0] one lag,
	// [1] two (a first speaker's served copies). Every batch in a queue
	// waited the same lag, so appending keeps each first due first.
	parked [2]parkQueue
	// order is the buffer destination orders are drawn into (perm).
	order []int
}

// parkQueue is one lag's waiting batches, first due first, and the members
// their parked copies go to, in the same order.
type parkQueue struct {
	flushes []parkedFlush
	to      []ids.NodeID
}

// parkedFlush is one framed batch whose copies leave later: when, its
// captured src/dst, a copy of its items — garbage once the copies left, so an
// idle port keeps none — and how many of its queue's members are its. A
// second speaker's batch (turn) has none: all of its copies wait.
type parkedFlush struct {
	due      time.Duration
	src, dst group.Composition
	items    []group.BatchItem
	members  int
	turn     bool
}

// NewPort builds a node's port over a Scheduler configured by cfg; its Flush
// is the port's own framing, its Withdraw the engine's (Rules.Withdraw).
func NewPort(cfg Config, r Rules) *Port {
	p := &Port{rules: r}
	cfg.Flush, cfg.Withdraw = p.frame, r.Withdraw
	p.Scheduler = New(cfg)
	return p
}

// Withheld returns how many relayed payloads the port sent as a digest alone
// because Rules.Holds named their destination member a holder, as the batch
// was framed or as a parked copy left.
func (p *Port) Withheld() uint64 { return p.withheld }

// Start hands the port the node's runtime: from then on the port alone sends,
// and alone draws from the node's random stream (destination orders).
func (p *Port) Start(env actor.Env) { p.env = env }

// Group sends one logical group message to every member of dst. src is the
// composition the message's MsgID was derived under.
func (p *Port) Group(src, dst group.Composition, it group.BatchItem) {
	p.EnqueueGroup(src, dst, it, p.rules.Sync)
}

// GroupAttach is Group for a message that carries this member's attachment:
// the receiver votes it like any group message, so only the majority members
// send the payload, but it leaves at once. The item is never Relay.
func (p *Port) GroupAttach(src, dst group.Composition, it group.BatchItem, attach []byte) {
	p.fanOut(src, dst, []group.BatchItem{it}, attach, &p.parked[0])
}

// ToNode sends one logical group message from src to a single node. As
// toward a vgroup, only a majority member of src sends the payload.
func (p *Port) ToNode(src group.Composition, to ids.NodeID, kind group.Kind, msgID crypto.Digest, payload []byte) {
	p.env.Send(to, p.single(src, 0, kind, msgID, payload, nil, p.full(src)))
}

// Chained sends this member's copy of a certificate-mode message, with its
// chain attached, to every member of dst. The receiver judges each copy alone,
// by its chain, and votes nothing: every member sends the payload, and the
// copy names no destination epoch.
func (p *Port) Chained(src, dst group.Composition, kind group.Kind, msgID crypto.Digest, payload, attach []byte) {
	var msg actor.Message = p.single(src, dst.GroupID, kind, msgID, payload, attach, true)
	order := p.perm(dst.N())
	for _, i := range order {
		p.env.Send(dst.Members[i].ID, msg)
	}
	p.order = order
}

// ChainedTo is Chained to a single node.
func (p *Port) ChainedTo(src group.Composition, to ids.NodeID, kind group.Kind, msgID crypto.Digest, payload, attach []byte) {
	p.env.Send(to, p.single(src, 0, kind, msgID, payload, attach, true))
}

// single is this member's copy of one logical group message toward dst (0: a
// single node), its payload carried when full; the destination epoch is left
// out.
func (p *Port) single(src group.Composition, dst ids.GroupID, kind group.Kind, msgID crypto.Digest, payload, attach []byte, full bool) group.GroupMsg {
	hdr := group.GroupMsg{SrcGroup: src.GroupID, SrcEpoch: src.Epoch, DstGroup: dst, Attach: attach}
	msg, _ := group.Copy(hdr, p.rules.Carrier, []group.BatchItem{{Kind: kind, MsgID: msgID, Payload: payload}}, group.CopyRule{Full: full})
	return msg
}

// full reports whether this member is a majority member of src: its copies
// carry ordinary payloads (§5.1).
func (p *Port) full(src group.Composition) bool {
	idx := src.Index(p.rules.Self)
	return idx >= 0 && idx < src.Majority()
}

// Node sends one node-level message.
func (p *Port) Node(to ids.NodeID, msg NodeMsg) { p.env.Send(to, msg) }

// frame is the Scheduler's Flush: it frames one destination's batch onto the
// wire. Of the engine's state it asks one thing, the withholding rule
// Rules.Holds, and reads nothing else — the captured src/dst keep a flush
// correct even when it runs after the group state it was enqueued under is
// gone (merge dissolve, departure). The same holds for the copies it parks.
//
// A node-addressed batch (raw traffic) is link-authenticated and carries full
// payloads, and is never held for a round: tier-2 data must not wait for
// round boundaries. A group batch goes to the fan-out.
//
// In a synchronous round a relayed batch takes its turn (see the package
// comment): a second speaker's waits whole for one lag, a first speaker's
// served copies park for two.
func (p *Port) frame(src, dst group.Composition, node ids.NodeID, items []group.BatchItem) {
	if node != 0 {
		msg, _ := group.Copy(group.GroupMsg{SrcGroup: src.GroupID, SrcEpoch: src.Epoch}, p.rules.Carrier, items, group.CopyRule{Full: true})
		p.env.Send(node, msg)
		return
	}
	lags := 1
	if p.rules.Sync && p.rules.RelayLag > 0 && slices.ContainsFunc(items, relayed) {
		if src.GroupID > dst.GroupID {
			p.park(1, parkedFlush{src: src, dst: dst, items: slices.Clone(items), turn: true})
			return
		}
		lags = 2
	}
	members := p.fanOut(src, dst, items, nil, &p.parked[lags-1])
	if members == 0 {
		p.left(items)
		return
	}
	p.park(lags, parkedFlush{src: src, dst: dst, items: slices.Clone(items), members: members})
}

// perm draws a random order of n destination members into the port's
// buffer. It makes rand.Perm's draws, in the same way, so the node's random
// stream moves exactly as rand.Perm would move it. The buffer is the caller's
// until it hands it back (p.order = order): a callback that sends while the
// caller walks the order draws into a buffer of its own.
func (p *Port) perm(n int) []int {
	order := slices.Grow(p.order[:0], n)[:n]
	p.order = nil
	r := p.env.Rand()
	for i := range order {
		j := r.Intn(i + 1)
		order[i] = order[j]
		order[j] = i
	}
	return order
}

// park queues f for lags relay lags (1 or 2) and arms the timer for it — or,
// with no lag, sends it at once.
func (p *Port) park(lags int, f parkedFlush) {
	f.due = p.now() + time.Duration(lags)*p.rules.RelayLag
	q := &p.parked[lags-1]
	q.flushes = append(q.flushes, f)
	if p.rules.RelayLag == 0 {
		p.release(false)
		return
	}
	p.arm(f.due)
}

// relayed reports whether it is a relayed payload.
func relayed(it group.BatchItem) bool { return it.Relay && it.Payload != nil }

// fanOut sends this member's copy of items to every member of dst, in a random
// order against incast (§5.1). Every member gets the lean copy — the majority
// rule's, with no relayed payload — but the members this member is the
// RelaySender of whose copy would carry one: those it appends to q's members,
// for the caller to park, and it returns how many. A served member that
// Rules.Holds names a holder of every relayed payload gets the lean copy, and
// the payloads count as withheld.
func (p *Port) fanOut(src, dst group.Composition, items []group.BatchItem, attach []byte, q *parkQueue) (parked int) {
	idx := src.Index(p.rules.Self)
	rule := group.CopyRule{Full: idx >= 0 && idx < src.Majority()}
	// relays counts the relayed payloads this member may serve; the member
	// at index j of dst is served by the one at (j+rot) mod N.
	relays, rot := 0, 0
	for i := range items {
		if relayed(items[i]) && idx >= 0 {
			relays++
		}
	}
	if relays > 0 {
		rot = group.RelaySender(src, dst, 0)
	}
	hdr := group.GroupMsg{SrcGroup: src.GroupID, SrcEpoch: src.Epoch, DstGroup: dst.GroupID, DstEpoch: dst.Epoch, Attach: attach}
	var lean actor.Message // built for the first member that gets it
	order := p.perm(dst.N())
	for _, j := range order {
		to := dst.Members[j].ID
		if relays > 0 && (j+rot)%src.N() == idx {
			if served := p.served(src, dst, to); carriesRelayed(&served, items) {
				q.to = append(q.to, to)
				parked++
				continue
			}
			p.withheld += uint64(relays)
		}
		if lean == nil {
			lean, _ = group.Copy(hdr, p.rules.Carrier, items, rule)
		}
		p.env.Send(to, lean)
	}
	p.order = order
	return parked
}

// served is the rule of this member's copy toward member to of dst, whose
// RelaySender it is, as Rules.Holds says when it is asked.
func (p *Port) served(src, dst group.Composition, to ids.NodeID) group.CopyRule {
	return group.CopyRule{Full: p.full(src), Relay: true, Holds: p.rules.Holds, Dst: dst.Key(), To: to}
}

// carriesRelayed reports whether the copy r rules carries a relayed payload.
func carriesRelayed(r *group.CopyRule, items []group.BatchItem) bool {
	for i := range items {
		if items[i].Relay && r.Carries(&items[i]) {
			return true
		}
	}
	return false
}

// left tells the engine the items have left (Rules.Left).
func (p *Port) left(items []group.BatchItem) {
	if p.rules.Left == nil {
		return
	}
	for _, it := range items {
		p.rules.Left(it)
	}
}

// OnTimer is the Scheduler's OnTimer, then the parked copies that are due.
func (p *Port) OnTimer() {
	p.Scheduler.OnTimer()
	p.release(false)
}

// FlushAll is the Scheduler's FlushAll, then every parked copy: nothing
// outlives a replicated-state replacement unsent.
func (p *Port) FlushAll() {
	p.Scheduler.FlushAll()
	p.release(true)
}

// release sends the parked copies that are due — all of them when all is set
// — each built as Rules.Holds says now, and arms the timer for the next one.
// The queues are drained together, first due first.
func (p *Port) release(all bool) {
	now := p.now()
	for q := p.next(); q != nil && (all || q.flushes[0].due <= now); q = p.next() {
		f := q.flushes[0]
		q.flushes = slices.Delete(q.flushes, 0, 1)
		if f.turn {
			p.speak(&f)
			continue
		}
		for _, member := range q.to[:f.members] {
			p.serve(&f, member)
		}
		q.to = slices.Delete(q.to, 0, f.members)
		p.left(f.items)
	}
	if q := p.next(); q != nil {
		p.arm(q.flushes[0].due)
	}
}

// next returns the queue whose first batch is due first, nil when nothing is
// parked.
func (p *Port) next() *parkQueue {
	var next *parkQueue
	for i := range p.parked {
		if q := &p.parked[i]; len(q.flushes) > 0 && (next == nil || q.flushes[0].due < next.flushes[0].due) {
			next = q
		}
	}
	return next
}

// speak sends a second speaker's batch (parkedFlush.turn), in a random order
// against incast. The members this member is the RelaySender of get their
// copy first, built under Rules.Holds while every item's record stands. Then
// the link rule (Rules.Withdraw) is asked again: the rest of dst get the lean
// copy of the items it leaves, and Left hears of those.
func (p *Port) speak(f *parkedFlush) {
	idx, rot := f.src.Index(p.rules.Self), group.RelaySender(f.src, f.dst, 0)
	order := p.perm(f.dst.N())
	for _, j := range order {
		if (j+rot)%f.src.N() == idx {
			p.serve(f, f.dst.Members[j].ID)
		}
	}
	items := f.items
	if withdraw := p.rules.Withdraw; withdraw != nil {
		items = slices.DeleteFunc(items, func(it group.BatchItem) bool { return withdraw(f.dst, it) })
	}
	if len(items) > 0 {
		msg, _ := group.Copy(f.header(), p.rules.Carrier, items, group.CopyRule{Full: p.full(f.src)})
		var lean actor.Message = msg
		for _, j := range order {
			if (j+rot)%f.src.N() != idx {
				p.env.Send(f.dst.Members[j].ID, lean)
			}
		}
	}
	p.order = order
	p.left(items)
}

// serve sends member to, whose RelaySender this member is, its copy of f's
// items, built as Rules.Holds says now.
func (p *Port) serve(f *parkedFlush, to ids.NodeID) {
	msg, withheld := group.Copy(f.header(), p.rules.Carrier, f.items, p.served(f.src, f.dst, to))
	p.withheld += uint64(withheld)
	p.env.Send(to, msg)
}

// header is the group-message header of f's copies.
func (f *parkedFlush) header() group.GroupMsg {
	return group.GroupMsg{SrcGroup: f.src.GroupID, SrcEpoch: f.src.Epoch, DstGroup: f.dst.GroupID, DstEpoch: f.dst.Epoch}
}

// Parked reports how many batches wait for their lag.
func (p *Port) Parked() int { return len(p.parked[0].flushes) + len(p.parked[1].flushes) }
