package core

import (
	"testing"
	"time"

	"atum/internal/actor"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/smr"
)

// nowHook is an actor.Env that runs a test's function before each Now.
type nowHook struct {
	actor.Env
	hook func()
}

func (e nowHook) Now() time.Duration {
	e.hook()
	return e.Env.Now()
}

// TestMergeOnShrink drives a two-vgroup system below GMin by leaving nodes
// and verifies the survivors converge to one consistent vgroup (merge) with
// broadcasts still flowing. A dissolving member departs its vgroup like any
// member that moves: from the moment it awaits the absorber's snapshot (the
// first clock read after it enters phaseAwaitSnapshot, where departed arms
// the orphan deadline) it holds no operation of the dissolved vgroup to
// re-propose at a later barrier and no member table. Shuffling is off, so a
// dissolve is the only way into that phase.
func TestMergeOnShrink(t *testing.T) {
	// A dissolving member moves: it gets no OnLeft and one more OnJoined, at
	// the absorber's snapshot.
	joined, left := map[ids.NodeID]int{}, map[ids.NodeID]int{}
	h := newHarness(t, smr.ModeSync, 13, func(cfg *Config) {
		cfg.Params = Params{HC: 2, RWL: 2, GMax: 4, GMin: 3}
		cfg.DisableShuffle = true
		id := cfg.Identity.ID
		cfg.Callbacks.OnJoined = func(group.Composition) { joined[id]++ }
		cfg.Callbacks.OnLeft = func(string) { left[id]++ }
	})
	dissolved := map[ids.NodeID]bool{}
	joinedAt, leftAt := map[ids.NodeID]int{}, map[ids.NodeID]int{}
	h.wrapEnv = func(n *Node, env actor.Env) actor.Env {
		return nowHook{Env: env, hook: func() {
			id := n.cfg.Identity.ID
			if n.phase != phaseAwaitSnapshot || dissolved[id] {
				return
			}
			dissolved[id] = true
			joinedAt[id], leftAt[id] = joined[id], left[id]
			if len(n.ownPend) != 0 || n.peers != nil {
				t.Errorf("%v awaits the absorber's snapshot holding %d pending ops and a member table (%v)",
					id, len(n.ownPend), n.peers != nil)
			}
		}}
	}
	nodes := h.bootstrapSystem(smr.ModeSync, 6, 120*time.Second) // splits into two groups
	h.net.Run(h.net.Now() + 10*time.Second)
	if len(h.groupsOf()) < 2 {
		t.Skip("no split occurred at this seed; merge path exercised elsewhere")
	}
	// Leave two members of one group that keeps a member: it shrinks below
	// GMin and must merge. (The split need not halve the system evenly, and
	// a group left empty has nothing to merge.)
	groups := h.groupsOf()
	var leavers []*Node
	for _, members := range groups {
		if len(members) > 2 {
			for _, id := range members[:2] {
				leavers = append(leavers, h.nodes[id])
			}
			break
		}
	}
	for _, l := range leavers {
		_ = l.Leave()
		deadline := h.net.Now() + 60*time.Second
		for l.IsMember() && h.net.Now() < deadline {
			h.net.Run(h.net.Now() + 100*time.Millisecond)
		}
	}
	h.net.Run(h.net.Now() + 60*time.Second)
	h.checkMembershipConsistent()
	members := h.memberCount()
	if members < 4 {
		t.Fatalf("members = %d, want >= 4 after two leaves", members)
	}
	if len(dissolved) == 0 {
		t.Fatal("no member awaited a snapshot: the shrunken vgroup never dissolved")
	}
	for id := range dissolved {
		if j, l := joined[id]-joinedAt[id], left[id]-leftAt[id]; j != 1 || l != 0 {
			t.Errorf("dissolving member %v got %d OnJoined and %d OnLeft since it dissolved, want 1 and 0", id, j, l)
		}
	}
	// Broadcast still reaches every survivor.
	var origin *Node
	for _, n := range nodes {
		if n.IsMember() {
			origin = n
			break
		}
	}
	if err := origin.BroadcastWith([]byte("post-merge"), BroadcastOpts{}); err != nil {
		t.Fatal(err)
	}
	h.net.Run(h.net.Now() + 20*time.Second)
	for _, n := range nodes {
		if !n.IsMember() {
			continue
		}
		found := false
		for _, m := range h.delivered[n.cfg.Identity.ID] {
			if m == "post-merge" {
				found = true
			}
		}
		if !found {
			t.Errorf("member %v missed post-merge broadcast", n.cfg.Identity.ID)
		}
	}
}
