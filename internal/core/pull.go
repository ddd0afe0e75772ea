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
//     from its cache of delivered payloads;
//   - vgroup catch-up: heartbeats list the gossip digests their sender
//     delivered since its previous one. A member that has not delivered a
//     digest catchUpWait after f+1 members of its composition listed it —
//     one of them correct — pulls the bytes from one of them and accepts
//     them on that word: the "late member" no live link reaches.
//
// Every fetched payload is hashed against the digest it must have before
// anything uses it, and a push for a digest the node is not missing stores
// nothing. Every horizon derives from RoundDuration or HeartbeatEvery.

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
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

// WireSize implements actor.Sizer.
func (m PayloadPull) WireSize() int { return 8 + 4 + crypto.DigestSize*len(m.Digests) }

// WireSize implements actor.Sizer.
func (m PayloadPush) WireSize() int {
	n := 8 + 4
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
	// maxHeartbeatDigests bounds the digests one Heartbeat lists; a node that
	// delivered more since its previous heartbeat lists the first ones.
	maxHeartbeatDigests = 256
	// maxListed bounds the catch-up table; one member's heartbeats open at
	// most maxListedPerMember of its entries.
	maxListed          = 1024
	maxListedPerMember = maxListed / 8
	// maxCacheBytes bounds the payloads the delivered cache holds; the newest
	// one is kept even when it alone is larger.
	maxCacheBytes = 16 << 20
)

// cacheHorizon is how long a delivered payload stays servable and a later
// copy of it is dropped at one probe: long enough for a heartbeat to list it
// and a peer to wait catchUpWait and ask two or three listers in turn.
func (n *Node) cacheHorizon() time.Duration { return 4 * n.cfg.HeartbeatEvery }

// catchUpWait is how long after f+1 peers listed a digest a member waits
// for live gossip before it pulls, and then between pulls.
func (n *Node) catchUpWait() time.Duration { return n.cfg.HeartbeatEvery / 2 }

// repair is a node's state for the repair paths.
type repair struct {
	cache      map[crypto.Digest]cachedPayload // delivered gossip payloads by digest
	cacheQ     []crypto.Digest                 // cache keys, oldest first
	cacheBytes int
	delivered  []crypto.Digest // delivered since the last heartbeat, for the next one
	listed     map[crypto.Digest]*listing
	opened     map[ids.NodeID]int // listings each member's heartbeats opened
	pulls      map[crypto.Digest]*pulling
	ticks      uint64 // repairTick calls, to age out pulls
	served     *rateLimiter[ids.NodeID]
	since      time.Duration // when this node last became a member of a vgroup
}

type cachedPayload struct {
	at      time.Duration
	payload []byte
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
		cache:  make(map[crypto.Digest]cachedPayload),
		listed: make(map[crypto.Digest]*listing),
		opened: make(map[ids.NodeID]int),
		pulls:  make(map[crypto.Digest]*pulling),
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

// dropOldest evicts the oldest cached payload.
func (r *repair) dropOldest() {
	d := r.cacheQ[0]
	r.cacheQ = r.cacheQ[1:]
	r.cacheBytes -= len(r.cache[d].payload)
	delete(r.cache, d)
}

// hasDelivered reports whether the gossip digest d was delivered here within
// the cache horizon.
func (n *Node) hasDelivered(d crypto.Digest) bool {
	_, ok := n.rep.cache[d]
	return ok
}

// noteDelivered is the bookkeeping of one delivered broadcast, after its
// forward: it caches the payload for pulls, lists the digest for the next
// heartbeat, and settles what the node still held for it from any link or
// peer.
func (n *Node) noteDelivered(digest crypto.Digest, payload []byte) {
	r := &n.rep
	now := n.env.Now()
	if _, ok := r.cache[digest]; !ok {
		r.cache[digest] = cachedPayload{at: now, payload: payload}
		r.cacheQ = append(r.cacheQ, digest)
		r.cacheBytes += len(payload)
		for r.cacheBytes > maxCacheBytes && len(r.cacheQ) > 1 {
			r.dropOldest()
		}
	}
	if len(r.delivered) < maxHeartbeatDigests {
		r.delivered = append(r.delivered, digest)
	}
	r.unlist(digest)
	delete(r.pulls, digest)
	n.inbox.SettleAll(now, digest)
}

// noteListed records the digests a member's heartbeat lists as delivered.
// Only members of the current composition reach here (handleHeartbeat). A
// list that may predate this node's membership opens nothing.
func (n *Node) noteListed(from ids.NodeID, digests []crypto.Digest) {
	r := &n.rep
	now := n.env.Now()
	if n.byzActive() || now-r.since < n.cfg.HeartbeatEvery {
		return
	}
	for _, d := range digests {
		if n.hasDelivered(d) {
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

// repairTick runs the repair paths once per round: it expires the cache and
// the catch-up table, and asks for the payloads that are due — starved inbox
// entries from their voters, listed digests from their listers — in one
// PayloadPull per peer.
func (n *Node) repairTick(now time.Duration) {
	r := &n.rep
	horizon := n.cacheHorizon()
	for len(r.cacheQ) > 0 && now-r.cache[r.cacheQ[0]].at > horizon {
		r.dropOldest()
	}
	if len(r.cacheQ) == 0 && r.cacheQ != nil {
		// A map keeps its buckets when emptied: a quiet node frees them.
		r.cache, r.cacheQ = make(map[crypto.Digest]cachedPayload), nil
	}
	self := uint64(n.cfg.Identity.ID)
	var want map[ids.NodeID][]crypto.Digest // most ticks ask for nothing
	// ask queues d for the turn-th of from, counted from an offset of this
	// node's own, so that the members missing one payload ask different peers.
	ask := func(from []ids.NodeID, turn int, d crypto.Digest) {
		if to := from[(self+uint64(turn))%uint64(len(from))]; to != n.cfg.Identity.ID {
			if want == nil {
				want = map[ids.NodeID][]crypto.Digest{}
			}
			want[to] = append(want[to], d)
		}
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
		if len(voters) > 0 && now >= p.next {
			ask(voters, p.asked, d)
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
		case now-l.first > horizon:
			r.unlist(d)
		case l.at > 0 && now-l.at >= n.catchUpWait():
			due = append(due, d)
		}
	}
	slices.SortFunc(due, func(a, b crypto.Digest) int { return bytes.Compare(a[:], b[:]) })
	for _, d := range due {
		l := r.listed[d]
		ask(l.by, l.asked, d)
		l.asked++
		l.at = now
	}

	if want == nil {
		return
	}
	for _, to := range slices.Sorted(maps.Keys(want)) {
		ds := want[to]
		ds = ds[:min(len(ds), maxPullDigests)] // the rest are asked again later
		n.counts.PullsSent += uint64(len(ds))
		n.egress.Node(to, PayloadPull{Digests: ds})
	}
}

// handlePayloadPull serves a pull from the delivered cache, at most once per
// requester per half round.
func (n *Node) handlePayloadPull(from ids.NodeID, m PayloadPull) {
	if n.byzActive() || !n.rep.served.allow(from, n.env.Now()) {
		return
	}
	var push PayloadPush
	for i, d := range m.Digests {
		if c, ok := n.rep.cache[d]; ok && !slices.Contains(m.Digests[:i], d) {
			push.Payloads = append(push.Payloads, c.payload)
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
	if l == nil || n.phase != phaseMember || n.st == nil || n.byzActive() {
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
