package core

// The repair paths behind relayed gossip. On a relayed hop each member of a
// neighbour vgroup gets a broadcast's bytes from one member of the sending
// vgroup only (forwardGossip), so a member whose one copy is late, withheld or
// never sent gets them another way:
//
//   - borrow: the inbox lends bytes one link brought to the entry of another
//     link that has a majority and no bytes (group.Inbox, "Lending");
//   - pull: an entry still starved of its bytes one round later asks one of
//     the members that voted it, one at a time, rotating (PayloadPull and
//     PayloadPush). A correct voter has delivered the broadcast and serves it
//     from its delivered index;
//   - vgroup catch-up: each heartbeat carries keyed 4-byte tags of the gossip
//     digests its sender delivered recently (Have). A peer checks its own
//     deliveries against them (checkLacks) and lists those the tags lack, in
//     full, in its next heartbeat to that member (Lacks), until the member's
//     tags show them. A member that has not delivered a digest catchUpWait
//     after f+1 members of its composition listed it — one of them correct —
//     pulls the bytes from one of them and accepts them on that word: the
//     "late member" no live link reaches, or one a partition cut off.
//
// What the node delivered is one structure, the delivered index below, which
// the gossip hop and every repair path read.
//
// Every fetched payload is hashed against the digest it must have before
// anything uses it, and a push for a digest the node is not missing stores
// nothing. Every horizon but the delivered index's maxSeen derives from
// RoundDuration or HeartbeatEvery.

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sort"
	"time"

	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/wire"
)

// PayloadPull asks a node for the payloads of broadcasts it delivered
// recently, by gossip digest.
type PayloadPull struct {
	Digests []crypto.Digest
}

// PayloadPush answers a PayloadPull with the payloads the responder holds.
type PayloadPush struct {
	Payloads [][]byte
}

// WireSize implements actor.Sizer: the length of m's envelope frame (3
// header bytes and the list count before the digests).
func (m PayloadPull) WireSize() int { return 7 + crypto.DigestSize*len(m.Digests) }

// WireSize implements actor.Sizer: the length of m's envelope frame.
func (m PayloadPush) WireSize() int {
	n := 7
	for _, p := range m.Payloads {
		n += 4 + len(p)
	}
	return n
}

func (PayloadPull) NodeAddressed() {}
func (PayloadPush) NodeAddressed() {}

// Bounds of the repair paths.
const (
	// maxPullDigests bounds the digests of one PayloadPull, and so the
	// payloads of one PayloadPush.
	maxPullDigests = 16
	// maxHaveTags bounds the tags of one Heartbeat; a node that delivered
	// more in the window its tags cover sends the newest ones.
	maxHaveTags = 4096
	// maxListed bounds the catch-up table, the digests one Heartbeat lists
	// as lacked and those queued for one member; one member's heartbeats
	// open at most maxListedPerMember of the table's entries.
	maxListed          = 1024
	maxListedPerMember = maxListed / 8
	// maxCacheBytes bounds the payloads the delivered index holds; the newest
	// one is kept even when it alone is larger.
	maxCacheBytes = 16 << 20
)

// cacheHorizon is how long a delivered payload stays servable: long enough for
// a heartbeat to list it and a peer to wait catchUpWait and ask two or three
// listers in turn.
func (n *Node) cacheHorizon() time.Duration { return 4 * n.cfg.HeartbeatEvery }

// catchUpWait is how long after f+1 peers listed a digest a member waits
// for live gossip before it pulls, and then between pulls.
func (n *Node) catchUpWait() time.Duration { return n.cfg.HeartbeatEvery / 2 }

// skewMargin is how far apart two members of a vgroup may deliver one
// broadcast for the catch-up check to take it as delivered at both: a node
// checks its deliveries up to one margin ago (checkLacks), and its tags cover
// two margins before its previous heartbeat (heartbeatTick).
func (n *Node) skewMargin() time.Duration { return n.cfg.HeartbeatEvery / 4 }

// deliveredIndex is the node's one record of the broadcasts it delivered, by
// gossip digest: a gossip MsgID is its payload digest (forwardGossip), so one
// digest names one broadcast payload on every link. Its readers:
//
//   - exactly-once: deliver (applyBcast, handleGossip) delivers only what add
//     lets in;
//   - observeCopy drops a copy of a delivered broadcast at one probe, before
//     the inbox;
//   - noteListed opens no catch-up entry for a delivered digest;
//   - handlePayloadPull serves the payloads it still holds;
//   - heartbeatTick tags the digests delivered recently, and checkLacks
//     checks them against a peer's tags.
//
// A digest stays for the last maxSeen deliveries, its payload for
// cacheHorizon and within maxCacheBytes of payloads (trim).
type deliveredIndex struct {
	digests  digestWindow[time.Duration] // delivery time by digest, oldest first
	payloads []deliveredPayload          // oldest first
	bytes    int                         // the payloads' total length
}

type deliveredPayload struct {
	digest  crypto.Digest
	at      time.Duration
	payload []byte
}

// has reports whether the gossip digest d is delivered.
func (x *deliveredIndex) has(d crypto.Digest) bool { return x.digests.has(d) }

// when returns the delivery time of the gossip digest d, false when d is not
// delivered.
func (x *deliveredIndex) when(d crypto.Digest) (time.Duration, bool) { return x.digests.get(d) }

// add records the delivery of payload, whose digest is d, at now. It records
// nothing and reports false when d is delivered already: the exactly-once check.
func (x *deliveredIndex) add(d crypto.Digest, payload []byte, now time.Duration) bool {
	if !x.digests.add(d, now, maxSeen) {
		return false
	}
	x.payloads = append(x.payloads, deliveredPayload{digest: d, at: now, payload: payload})
	x.bytes += len(payload)
	x.trim(0) // the byte bound alone: nothing was delivered before time zero
	return true
}

// payload returns the payload of the delivered digest d, nil once it is gone.
// The payloads are in delivery order, so d's is found from its delivery time.
func (x *deliveredIndex) payload(d crypto.Digest) []byte {
	at, ok := x.when(d)
	if !ok {
		return nil
	}
	i, _ := slices.BinarySearchFunc(x.payloads, at, func(p deliveredPayload, at time.Duration) int {
		return cmp.Compare(p.at, at)
	})
	for ; i < len(x.payloads) && x.payloads[i].at == at; i++ {
		if x.payloads[i].digest == d {
			return x.payloads[i].payload
		}
	}
	return nil
}

// trim drops the oldest payloads, their digests staying, while they are
// delivered before the deadline or over maxCacheBytes — the newest stays even
// alone over it. A quiet node frees their slice.
func (x *deliveredIndex) trim(before time.Duration) {
	for len(x.payloads) > 0 && (x.payloads[0].at < before || x.bytes > maxCacheBytes && len(x.payloads) > 1) {
		x.bytes -= len(x.payloads[0].payload)
		x.payloads[0].payload = nil // the slice's array outlives the slot
		x.payloads = x.payloads[1:]
	}
	if len(x.payloads) == 0 {
		x.payloads = nil
	}
}

// window returns the deliveries after from and up to to whose payloads the
// index still holds, oldest first: what this node can serve, and so what the
// catch-up exchange tags and lists. It is a view of the index, valid until
// the next add or trim.
func (x *deliveredIndex) window(from, to time.Duration) []deliveredPayload {
	after := func(t time.Duration) int {
		return sort.Search(len(x.payloads), func(i int) bool { return x.payloads[i].at > t })
	}
	i, j := after(from), after(to)
	return x.payloads[i:max(i, j)]
}

// haveTags returns the tags under salt of the newest maxHaveTags of ds:
// sorted, each once.
func haveTags(salt uint64, ds []deliveredPayload) []uint32 {
	ds = ds[max(0, len(ds)-maxHaveTags):]
	tags := make([]uint32, len(ds))
	for i, p := range ds {
		tags[i] = haveTag(salt, p.digest)
	}
	slices.Sort(tags)
	return slices.Compact(tags)
}

// mersenne61 is the prime 2^61−1 haveTag computes modulo.
const mersenne61 = 1<<61 - 1

// haveTag is the tag of the gossip digest d under salt: a Carter–Wegman
// polynomial hash of d's eight 32-bit words at the point salt, modulo
// 2^61−1, truncated to 32 bits. For two digests fixed before the salt is
// drawn, the difference of their hashes is a nonzero polynomial of degree 8 in
// the point: it takes each of the about 2^30 values whose truncation is zero
// at no more than 8 points, so the two share a tag with probability at most
// about 8·2^30/2^61 = 2^-28.
func haveTag(salt uint64, d crypto.Digest) uint32 {
	k := salt % mersenne61
	var h uint64
	for i := 0; i < crypto.DigestSize; i += 4 {
		h = mulMod61(h+uint64(binary.BigEndian.Uint32(d[i:])), k)
	}
	return uint32(h)
}

// mulMod61 returns a·b mod 2^61−1, for a < 2^62 and b < 2^61.
func mulMod61(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	r := (hi<<3 | lo>>61) + lo&mersenne61 // 2^61 ≡ 1
	r = r&mersenne61 + r>>61
	if r >= mersenne61 {
		r -= mersenne61
	}
	return r
}

// repair is a node's state for the repair paths: what it is missing and
// whom it asks. What it delivered is the delivered index's, which outlives a
// change of vgroup; the repair state does not (departed).
type repair struct {
	listed map[crypto.Digest]*listing
	opened map[ids.NodeID]int // listings each member's heartbeats opened
	pulls  map[crypto.Digest]*pulling
	ticks  uint64 // repairTick calls, to age out pulls
	served *rateLimiter[ids.NodeID]
	since  time.Duration // when this node last became a member of a vgroup
	// peers is the catch-up check's record of each member of this node's
	// composition that it knows. Members who stay keep theirs across
	// reconfigurations; it is dropped when they leave (resetPeerClocks).
	peers map[ids.NodeID]*peerCheck
}

// peerCheck is what checkLacks keeps of one member: up to when this node's
// deliveries were checked against its tags, and the digests its tags lacked,
// oldest first, at most maxListed, each sent in this node's heartbeats to it
// until its tags show it or cacheHorizon has passed since its delivery.
type peerCheck struct {
	upTo  time.Duration
	lacks []crypto.Digest
}

// listing is one catch-up table entry: the members of this node's
// composition whose heartbeats listed a digest this node has not delivered.
type listing struct {
	first time.Duration // the first listing
	by    []ids.NodeID  // in listing order; by[0] opened the entry
	at    time.Duration // when the f+1-th member listed it, or last pulled; 0 before
	asked int
}

// pulling is one starved digest being pulled from its voters.
type pulling struct {
	next  time.Duration // the next ask is due
	asked int
	tick  uint64 // the last repairTick that found the digest starved
}

func newRepair(round time.Duration) repair {
	return repair{
		listed: make(map[crypto.Digest]*listing),
		opened: make(map[ids.NodeID]int),
		pulls:  make(map[crypto.Digest]*pulling),
		peers:  make(map[ids.NodeID]*peerCheck),
		// One pull per requester per round: a correct node sends each peer at
		// most one PayloadPull per tick.
		served: newRateLimiter[ids.NodeID](round/2, 256, 1024),
	}
}

// unlist drops a catch-up table entry.
func (r *repair) unlist(d crypto.Digest) {
	if l := r.listed[d]; l != nil {
		if r.opened[l.by[0]]--; r.opened[l.by[0]] <= 0 {
			delete(r.opened, l.by[0])
		}
		delete(r.listed, d)
	}
}

// keepPeers drops the check records of the nodes that are not members of
// comp, and starts one for each member that has none — one admitted by the
// change — whose check starts at from: deliveries up to then are not listed to
// it, since they may predate its membership.
func (r *repair) keepPeers(comp group.Composition, self ids.NodeID, from time.Duration) {
	maps.DeleteFunc(r.peers, func(id ids.NodeID, _ *peerCheck) bool { return !comp.Contains(id) })
	for _, m := range comp.Members {
		if m.ID != self && r.peers[m.ID] == nil {
			r.peers[m.ID] = &peerCheck{upTo: from}
		}
	}
}

// lacksFor returns a copy of the digests queued for member to, nil for none.
func (r *repair) lacksFor(to ids.NodeID) []crypto.Digest {
	if p := r.peers[to]; p != nil && len(p.lacks) > 0 {
		return slices.Clone(p.lacks)
	}
	return nil
}

// checkLacks checks this node's deliveries against the tags of a member's
// heartbeat. The queued digests the tags show, or delivered more than
// cacheHorizon ago, leave the member's queue. The deliveries after the
// previous check, no older than cacheHorizon and up to one skew margin ago,
// whose tags are missing join it. Only members of the current composition
// reach here (handleHeartbeat).
func (n *Node) checkLacks(from ids.NodeID, m Heartbeat) {
	r := &n.rep
	p := r.peers[from]
	if p == nil {
		p = &peerCheck{}
		r.peers[from] = p
	}
	shown := func(d crypto.Digest) bool {
		_, ok := slices.BinarySearch(m.Have, haveTag(m.Salt, d))
		return ok
	}
	now := n.env.Now()
	horizon := now - n.cacheHorizon()
	p.lacks = slices.DeleteFunc(p.lacks, func(d crypto.Digest) bool {
		at, ok := n.delivered.when(d)
		return !ok || at <= horizon || shown(d)
	})
	upTo := now - n.skewMargin()
	for _, d := range n.delivered.window(max(p.upTo, horizon), upTo) {
		if len(p.lacks) < maxListed && !shown(d.digest) {
			p.lacks = append(p.lacks, d.digest)
		}
	}
	p.upTo = max(p.upTo, upTo)
}

// noteListed records the digests a member's heartbeat lists as lacked here:
// digests that member delivered. Only members of the current composition
// reach here (handleHeartbeat). A list that may predate this node's
// membership opens nothing.
func (n *Node) noteListed(from ids.NodeID, digests []crypto.Digest) {
	r := &n.rep
	now := n.env.Now()
	if now-r.since < n.cfg.HeartbeatEvery {
		return
	}
	for _, d := range digests {
		if n.delivered.has(d) {
			continue
		}
		l := r.listed[d]
		if l == nil {
			if len(r.listed) >= maxListed || r.opened[from] >= maxListedPerMember {
				continue
			}
			l = &listing{first: now}
			r.listed[d] = l
			r.opened[from]++
		}
		if !slices.Contains(l.by, from) {
			l.by = append(l.by, from)
			if len(l.by) == n.f()+1 {
				l.at = now
			}
		}
	}
}

// repairTick runs the repair paths once per round: it expires the catch-up
// table, and asks for the payloads that are due — starved inbox
// entries from their voters, listed digests from their listers — in one
// PayloadPull per peer.
func (n *Node) repairTick(now time.Duration) {
	r := &n.rep
	self := uint64(n.cfg.Identity.ID)
	var want map[ids.NodeID][]crypto.Digest // most ticks ask for nothing
	// ask queues d for the turn-th of from, counted from an offset of this
	// node's own, so that the members missing one payload ask different peers.
	// It queues nothing and reports false when that peer's pull is full: the
	// turn is not taken, and d is asked at the next tick.
	ask := func(from []ids.NodeID, turn int, d crypto.Digest) bool {
		switch to := from[(self+uint64(turn))%uint64(len(from))]; {
		case to == n.cfg.Identity.ID:
		case len(want[to]) >= maxPullDigests:
			return false
		default:
			if want == nil {
				want = map[ids.NodeID][]crypto.Digest{}
			}
			want[to] = append(want[to], d)
		}
		return true
	}

	round := n.cfg.RoundDuration
	r.ticks++
	n.inbox.Starved(func(d crypto.Digest, voters []ids.NodeID) {
		p := r.pulls[d]
		if p == nil {
			p = &pulling{next: now + round}
			r.pulls[d] = p
		}
		p.tick = r.ticks
		if len(voters) > 0 && now >= p.next && ask(voters, p.asked, d) {
			p.asked++
			p.next = now + 2*round
		}
	})
	if len(r.pulls) > 0 {
		maps.DeleteFunc(r.pulls, func(_ crypto.Digest, p *pulling) bool { return p.tick != r.ticks })
	}

	var due []crypto.Digest
	for d, l := range r.listed {
		switch {
		case now-l.first > n.cacheHorizon():
			r.unlist(d)
		case l.at > 0 && now-l.at >= n.catchUpWait():
			due = append(due, d)
		}
	}
	slices.SortFunc(due, func(a, b crypto.Digest) int { return bytes.Compare(a[:], b[:]) })
	for _, d := range due {
		if l := r.listed[d]; ask(l.by, l.asked, d) {
			l.asked++
			l.at = now
		}
	}

	if want == nil {
		return
	}
	for _, to := range slices.Sorted(maps.Keys(want)) {
		ds := want[to]
		n.counts.PullsSent += uint64(len(ds))
		n.egress.Node(to, PayloadPull{Digests: ds})
	}
}

// handlePayloadPull serves a pull from the delivered index, at most once per
// requester per half round.
func (n *Node) handlePayloadPull(from ids.NodeID, m PayloadPull) {
	if !n.rep.served.allow(from, n.env.Now()) {
		return
	}
	var push PayloadPush
	for i, d := range m.Digests {
		if p := n.delivered.payload(d); p != nil && !slices.Contains(m.Digests[:i], d) {
			push.Payloads = append(push.Payloads, p)
		}
	}
	if len(push.Payloads) > 0 {
		n.counts.PullsServed += uint64(len(push.Payloads))
		n.egress.Node(from, push)
	}
}

// handlePayloadPush uses each pushed payload the node is missing, by its hash:
// it completes the starved inbox entries of that digest, or, failing those, a
// listing f+1 members of this node's composition attest.
func (n *Node) handlePayloadPush(m PayloadPush) {
	now := n.env.Now()
	for _, p := range m.Payloads {
		d := crypto.Hash(p)
		if acc, ok := n.inbox.Supply(now, d, p); ok {
			n.handleAccepted(acc)
		} else if n.attested(d) && n.handleGossip(group.Accepted{Src: n.st.comp.Key(), Kind: kindGossip,
			MsgID: d, Digest: d, Payload: p, At: now}) {
			n.counts.CaughtUp++
		}
	}
}

// attested reports whether f+1 members of this node's current composition
// listed the gossip digest d as delivered.
func (n *Node) attested(d crypto.Digest) bool {
	l := n.rep.listed[d]
	if l == nil || n.phase != phaseMember || n.st == nil {
		return false
	}
	members := 0
	for _, id := range l.by {
		if n.st.comp.Contains(id) {
			members++
		}
	}
	return members >= n.f()+1
}

// --- wire ---

func digestWire(d *crypto.Digest, c wire.Codec) { wire.Bytes32(c, d) }

// boundList fails a walk whose list is longer than max.
func boundList(c wire.Codec, what string, n, max int) {
	if n > max {
		c.Fail(fmt.Errorf("%s of %d exceeds limit %d", what, n, max))
	}
}

// haveWire walks a tag set as one byte string of 4-byte big-endian tags. The
// decoder refuses a length that is not a multiple of 4, more than maxHaveTags
// tags, and tags that are not strictly ascending; an empty set decodes nil.
func haveWire(c wire.Codec, tags *[]uint32) {
	var b []byte
	if !c.Decoding() {
		b = make([]byte, 0, 4*len(*tags))
		for _, t := range *tags {
			b = binary.BigEndian.AppendUint32(b, t)
		}
		c.VarBytes(&b)
		return
	}
	c.VarBytes(&b)
	if c.Failed() || len(b) == 0 {
		return
	}
	if len(b)%4 != 0 {
		c.Fail(fmt.Errorf("heartbeat tags of %d bytes, not a multiple of 4", len(b)))
		return
	}
	if boundList(c, "heartbeat tags", len(b)/4, maxHaveTags); c.Failed() {
		return
	}
	*tags = make([]uint32, len(b)/4)
	for i := range *tags {
		t := binary.BigEndian.Uint32(b[4*i:])
		if i > 0 && t <= (*tags)[i-1] {
			c.Fail(fmt.Errorf("heartbeat tag %d is not above the one before it", i))
			return
		}
		(*tags)[i] = t
	}
}

// Wire walks a PayloadPull in wire order.
func (m *PayloadPull) Wire(c wire.Codec) {
	wire.List(c, &m.Digests, digestWire)
	boundList(c, "payload pull digests", len(m.Digests), maxPullDigests)
}

// Wire walks a PayloadPush in wire order.
func (m *PayloadPush) Wire(c wire.Codec) {
	wire.List(c, &m.Payloads, func(p *[]byte, c wire.Codec) { c.VarBytes(p) })
	boundList(c, "payload push payloads", len(m.Payloads), maxPullDigests)
}
