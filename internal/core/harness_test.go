package core

import (
	"fmt"
	"testing"
	"time"

	"atum/internal/actor"
	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/simnet"
	"atum/internal/smr"
)

// harness drives a whole Atum system on the discrete-event simulator.
type harness struct {
	t     *testing.T
	net   *simnet.Network
	nodes map[ids.NodeID]*Node
	// delivered[node] = ordered broadcast payloads delivered there
	delivered map[ids.NodeID][]string
	deliverAt map[ids.NodeID]map[string]time.Duration
	cfgFn     func(cfg *Config)
	// wrapEnv, when set before a node is added, stands between that node and
	// the simulator: a tap or a fault on everything the node sends.
	wrapEnv func(n *Node, env actor.Env) actor.Env
	// wrapNode, when set before a node is added, is what the simulator runs
	// in the node's place: a tap on everything the node receives.
	wrapNode func(n *Node) actor.Node
	nextID   uint64
}

// wrappedNode starts its node on the environment the harness's wrapEnv made.
type wrappedNode struct {
	*Node
	wrap func(n *Node, env actor.Env) actor.Env
}

func (w wrappedNode) Start(env actor.Env) { w.Node.Start(w.wrap(w.Node, env)) }

// sendHook is an actor.Env whose Send goes through a test's function first:
// what it returns is sent, nil is dropped.
type sendHook struct {
	actor.Env
	hook func(msg actor.Message) actor.Message
}

func (e sendHook) Send(to ids.NodeID, msg actor.Message) {
	if msg = e.hook(msg); msg != nil {
		e.Env.Send(to, msg)
	}
}

func newHarness(t *testing.T, mode smr.Mode, seed int64, cfgFn func(cfg *Config)) *harness {
	t.Helper()
	h := &harness{
		t: t,
		net: simnet.New(simnet.Config{
			Seed:    seed,
			Latency: simnet.UniformLatency(time.Millisecond, 8*time.Millisecond),
		}),
		nodes:     make(map[ids.NodeID]*Node),
		delivered: make(map[ids.NodeID][]string),
		deliverAt: make(map[ids.NodeID]map[string]time.Duration),
		cfgFn:     cfgFn,
	}
	_ = mode
	return h
}

// defaultConfig builds a fast-timer test configuration.
func (h *harness) defaultConfig(id ids.NodeID, mode smr.Mode) Config {
	cfg := Config{
		Identity:       ids.Identity{ID: id, Addr: fmt.Sprintf("sim:%d", id)},
		SignerSeed:     []byte(fmt.Sprintf("core-test-%d", id)),
		Scheme:         simScheme(),
		Mode:           mode,
		Params:         Params{HC: 2, RWL: 3, GMax: 6, GMin: 3},
		RoundDuration:  100 * time.Millisecond,
		HeartbeatEvery: 500 * time.Millisecond,
		EvictAfter:     3 * time.Second,
		WalkTimeout:    5 * time.Second,
		JoinTimeout:    8 * time.Second,
		RequestTimeout: 800 * time.Millisecond,
		Callbacks: Callbacks{
			Deliver: func(d Delivery) {
				h.delivered[id] = append(h.delivered[id], string(d.Data))
				if h.deliverAt[id] == nil {
					h.deliverAt[id] = make(map[string]time.Duration)
				}
				h.deliverAt[id][string(d.Data)] = h.net.Now()
			},
		},
	}
	if h.cfgFn != nil {
		h.cfgFn(&cfg)
	}
	return cfg
}

func (h *harness) addNode(mode smr.Mode) *Node {
	h.nextID++
	id := ids.NodeID(h.nextID)
	n := New(h.defaultConfig(id, mode))
	h.nodes[id] = n
	switch {
	case h.wrapNode != nil:
		h.net.Add(id, h.wrapNode(n))
	case h.wrapEnv != nil:
		h.net.Add(id, wrappedNode{Node: n, wrap: h.wrapEnv})
	default:
		h.net.Add(id, n)
	}
	return n
}

// bootstrapSystem creates count nodes: the first bootstraps, the rest join
// through it, waiting for each join to complete.
func (h *harness) bootstrapSystem(mode smr.Mode, count int, joinWait time.Duration) []*Node {
	h.t.Helper()
	all := make([]*Node, 0, count)
	first := h.addNode(mode)
	h.net.Run(h.net.Now() + 10*time.Millisecond)
	if err := first.Bootstrap(); err != nil {
		h.t.Fatalf("bootstrap: %v", err)
	}
	all = append(all, first)
	contact := first.Identity()
	for i := 1; i < count; i++ {
		n := h.addNode(mode)
		h.net.Run(h.net.Now() + 10*time.Millisecond)
		if err := n.Join(contact); err != nil {
			h.t.Fatalf("join %d: %v", i, err)
		}
		deadline := h.net.Now() + joinWait
		for !n.IsMember() && h.net.Now() < deadline {
			h.net.Run(h.net.Now() + 50*time.Millisecond)
			if n.phase == phaseIdle || n.phase == phaseLeft {
				// A client would retry a failed join; so does the harness.
				_ = n.Join(contact)
			}
		}
		if !n.IsMember() {
			h.t.Fatalf("node %d (%v) failed to join within %v", i, n.cfg.Identity.ID, joinWait)
		}
		all = append(all, n)
	}
	return all
}

// sum adds up one Node.Stats counter over every node the harness created.
func (h *harness) sum(counter func(Stats) uint64) (total uint64) {
	for _, n := range h.nodes {
		total += counter(n.Stats())
	}
	return total
}

// memberCount returns how many nodes currently report membership.
func (h *harness) memberCount() int {
	c := 0
	for _, n := range h.nodes {
		if n.IsMember() {
			c++
		}
	}
	return c
}

// groupsOf returns the distinct vgroups and their member counts, from the
// perspective of the nodes themselves.
func (h *harness) groupsOf() map[ids.GroupID][]ids.NodeID {
	out := make(map[ids.GroupID][]ids.NodeID)
	for id, n := range h.nodes {
		if n.IsMember() {
			gid := n.Comp().GroupID
			out[gid] = append(out[gid], id)
		}
	}
	return out
}

// checkMembershipConsistent verifies that all members of each vgroup agree
// on its composition (same epoch ⇒ same member set), that every node's
// self-reported group contains it, and that every node holds what its route
// into or out of an epoch left it (docs/ARCHITECTURE.md, "Entering and
// leaving an epoch"): a member a replica at its composition's epoch, one
// member record per other member and no buffered SMR traffic of its vgroup
// at or below its epoch; a non-member no replica, no member table and no
// pending op.
func (h *harness) checkMembershipConsistent() {
	h.t.Helper()
	byGroup := make(map[ids.GroupID]map[uint64]group.Composition)
	for id, n := range h.nodes {
		if !n.IsMember() {
			if n.replica != nil || n.peers != nil || len(n.ownPend) != 0 {
				h.t.Errorf("non-member %v holds a replica (%v), a member table (%v) or %d pending ops",
					id, n.replica != nil, n.peers != nil, len(n.ownPend))
			}
			continue
		}
		comp := n.Comp()
		if !comp.Contains(id) {
			h.t.Errorf("node %v reports group %v that does not contain it", id, comp.GroupID)
		}
		if n.replica == nil || n.replicaEpoch != comp.Epoch {
			h.t.Errorf("member %v of %v/%d has a replica at epoch %d (built: %v)",
				id, comp.GroupID, comp.Epoch, n.replicaEpoch, n.replica != nil)
		}
		if len(n.peers) != comp.N()-1 {
			h.t.Errorf("member %v has %d member records for %d other members", id, len(n.peers), comp.N()-1)
		}
		for _, m := range comp.Members {
			if m.ID != id && n.peers[m.ID] == nil {
				h.t.Errorf("member %v has no record of member %v", id, m.ID)
			}
		}
		for k := range n.pen {
			if k.GroupID == comp.GroupID && k.Epoch <= comp.Epoch {
				h.t.Errorf("member %v of %v/%d buffers SMR traffic of epoch %d", id, comp.GroupID, comp.Epoch, k.Epoch)
			}
		}
		eps, ok := byGroup[comp.GroupID]
		if !ok {
			eps = make(map[uint64]group.Composition)
			byGroup[comp.GroupID] = eps
		}
		if prev, ok := eps[comp.Epoch]; ok {
			if !prev.Equal(comp) {
				h.t.Errorf("group %v epoch %d: divergent compositions", comp.GroupID, comp.Epoch)
			}
		} else {
			eps[comp.Epoch] = comp
		}
	}
}

func simScheme() crypto.Scheme { return crypto.SimScheme{} }
