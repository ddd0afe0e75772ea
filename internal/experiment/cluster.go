package experiment

import (
	"fmt"
	"time"

	"atum"
	"atum/internal/simnet"
	"atum/internal/smr"
)

// cluster is the one simulated-cluster harness every scenario runs on: it
// adds nodes (optionally running an application service), grows them into
// a system one join at a time or in waves, and records what they deliver.
type cluster struct {
	c     *atum.SimCluster
	nodes []*atum.Node
	tweak func(*atum.Config) // nil: none
	// deliverAt is the virtual time each node delivered each payload.
	deliverAt map[delivery]time.Duration
	// rawDelivered counts raw messages handed to any node's OnRawMessage;
	// gaveUp counts joins that ran out of retries (OnLeft "join-failed").
	rawDelivered, gaveUp int
	// xs is the state of the seeded filler stream fresh draws from.
	xs uint64
}

type delivery struct {
	node atum.NodeID
	data string
}

// app is an application service a node runs: ashare.Service and
// astream.Service both fit.
type app interface {
	Callbacks() atum.Callbacks
	Bind(node *atum.Node)
}

// newCluster returns an empty cluster. Nodes start from atum.SimCluster's
// defaults with shuffling off, then tweak (nil: none) adjusts their Config.
func newCluster(mode smr.Mode, seed int64, net *simnet.Config, tweak func(*atum.Config)) *cluster {
	return &cluster{
		c:         atum.NewSimCluster(atum.SimOptions{Seed: seed, Mode: mode, NetConfig: net}),
		tweak:     tweak,
		deliverAt: make(map[delivery]time.Duration),
		xs:        uint64(seed)*0x9e3779b97f4a7c15 + 1,
	}
}

// addNode adds a node running a (nil: no application).
func (cl *cluster) addNode(a app) *atum.Node {
	var cb atum.Callbacks
	if a != nil {
		cb = a.Callbacks()
	}
	var id atum.NodeID
	deliver, onRaw := cb.Deliver, cb.OnRawMessage
	cb.Deliver = func(d atum.Delivery) {
		cl.deliverAt[delivery{id, string(d.Data)}] = cl.c.Now()
		if deliver != nil {
			deliver(d)
		}
	}
	cb.OnRawMessage = func(from atum.NodeID, msg any) {
		cl.rawDelivered++
		if onRaw != nil {
			onRaw(from, msg)
		}
	}
	cb.OnLeft = func(reason string) {
		if reason == "join-failed" {
			cl.gaveUp++
		}
	}
	n := cl.c.AddNodeWith(cb, func(cfg *atum.Config) {
		cfg.DisableShuffle = true
		if cl.tweak != nil {
			cl.tweak(cfg)
		}
	})
	if a != nil {
		a.Bind(n)
	}
	id = n.Identity().ID
	cl.nodes = append(cl.nodes, n)
	return n
}

// grow bootstraps the first node and joins count-1 more through it, one at
// a time; a join that misses perJoin is retried once (growth tolerates
// stragglers). newApp (nil: none) supplies node i's application.
func (cl *cluster) grow(count int, perJoin time.Duration, newApp func(i int) app) error {
	var contact atum.Identity
	for i := 0; i < count; i++ {
		var a app
		if newApp != nil {
			a = newApp(i)
		}
		n := cl.addNode(a)
		cl.c.Run(10 * time.Millisecond)
		if i == 0 {
			if err := n.Bootstrap(); err != nil {
				return err
			}
			contact = n.Identity()
			continue
		}
		if err := n.Join(contact); err != nil {
			return err
		}
		if !cl.c.RunUntil(n.IsMember, perJoin) {
			_ = n.Join(contact)
			cl.c.RunUntil(n.IsMember, perJoin)
		}
	}
	return nil
}

// growInWaves bootstraps one node, then every step lets wave(members) fresh
// nodes join through it at once, calling tick (nil: none) after bootstrap and
// after each step. It stops at target members, at virtual time limit, or —
// with maxNodes > 0 — once maxNodes nodes exist and each is a member or has
// given up.
func (cl *cluster) growInWaves(target, maxNodes int, step, limit time.Duration, wave func(members int) int, tick func()) error {
	first := cl.addNode(nil)
	cl.c.Run(10 * time.Millisecond)
	if err := first.Bootstrap(); err != nil {
		return err
	}
	contact := first.Identity()
	for {
		if tick != nil {
			tick()
		}
		members := len(cl.members())
		settled := maxNodes > 0 && len(cl.nodes) >= maxNodes && members+cl.gaveUp == len(cl.nodes)
		if members >= target || cl.c.Now() >= limit || settled {
			return nil
		}
		for i := wave(members); i > 0 && (maxNodes == 0 || len(cl.nodes) < maxNodes); i-- {
			_ = cl.addNode(nil).Join(contact)
		}
		cl.c.Run(step)
	}
}

// members returns the nodes that are members now, in the order they were
// added.
func (cl *cluster) members() []*atum.Node {
	var out []*atum.Node
	for _, n := range cl.nodes {
		if n.IsMember() {
			out = append(out, n)
		}
	}
	return out
}

// delivered is the fraction of (payload, node) pairs delivered, over the
// nodes that are still members.
func (cl *cluster) delivered(nodes []*atum.Node, payloads []string) float64 {
	members, pairs := 0, 0
	for _, n := range nodes {
		if !n.IsMember() {
			continue
		}
		members++
		for _, p := range payloads {
			if _, ok := cl.deliverAt[delivery{n.Identity().ID, p}]; ok {
				pairs++
			}
		}
	}
	if members == 0 || len(payloads) == 0 {
		return 0
	}
	return float64(pairs) / float64(len(payloads)*members)
}

// quietRound is the round length of the quiet scenarios.
const quietRound = 100 * time.Millisecond

// quiet parks heartbeats and evictions, so the traffic a scenario counts is
// the protocol's own (storm and backpressure).
func quiet(cfg *atum.Config) {
	cfg.RoundDuration = quietRound
	cfg.HeartbeatEvery = time.Hour
	cfg.EvictAfter = 10 * time.Hour
}

// publish has each of pubs broadcast one payload for round r, padded with
// filler fresh bytes, and returns the payloads BroadcastWith accepted.
func (cl *cluster) publish(pubs []*atum.Node, prefix string, r, filler int) []string {
	var out []string
	for i, p := range pubs {
		payload := fmt.Sprintf("%s-%d-%d-%x", prefix, r, i, cl.fresh(filler))
		if p.BroadcastWith([]byte(payload), atum.BroadcastOpts{}) == nil {
			out = append(out, payload)
		}
	}
	return out
}

// fresh draws size bytes from a seeded xorshift64 stream of incompressible
// filler (media-like data): byte counts then measure the protocol, not how
// well the test data folds. One seed gives one stream, so payloads match
// across runs.
func (cl *cluster) fresh(size int) []byte {
	b := make([]byte, size)
	for i := 0; i < size; i += 8 {
		cl.xs ^= cl.xs << 13
		cl.xs ^= cl.xs >> 7
		cl.xs ^= cl.xs << 17
		for j := 0; j < 8 && i+j < size; j++ {
			b[i+j] = byte(cl.xs >> (8 * j))
		}
	}
	return b
}
