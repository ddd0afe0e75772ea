package atum_test

// Regression test for merge-retry starvation under churn: merge request
// MsgIDs must be unique per attempt (derived from the committed op digest,
// which includes the attempt counter). With an attempt-independent MsgID, a
// requester whose first attempt hit a busy absorber could never effectively
// retry within the same epoch — the target's inbox deduplicated every retry
// against the already-accepted first request until the inbox prune — so the
// undersized vgroup stayed `busy` for minutes and every join through its
// members (including the cluster's contact node) timed out. Seed 7
// reproduces that exact wedge at churn event 6 with the unified egress
// scheduler's timing.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"atum"
)

func churnJoins(t *testing.T) error {
	t.Helper()
	cluster := atum.NewSimCluster(atum.SimOptions{Seed: 7})
	rng := rand.New(rand.NewSource(7))
	newNode := func() *atum.Node {
		return cluster.AddNode(atum.Callbacks{Deliver: func(atum.Delivery) {}})
	}
	nodes := []*atum.Node{newNode()}
	cluster.Run(10 * time.Millisecond)
	if err := nodes[0].Bootstrap(); err != nil {
		return err
	}
	contact := nodes[0].Identity()
	for len(nodes) < 24 {
		n := newNode()
		if err := n.Join(contact); err != nil {
			return err
		}
		if !cluster.RunUntil(n.IsMember, 2*time.Minute) {
			return fmt.Errorf("initial join of %v timed out", n.Identity().ID)
		}
		nodes = append(nodes, n)
	}
	for event := 0; event < 10; event++ {
		cluster.Run(4 * time.Second)
		victim := nodes[1+rng.Intn(len(nodes)-1)]
		if victim.IsMember() {
			if err := victim.Leave(); err == nil {
				cluster.RunUntil(func() bool { return !victim.IsMember() }, time.Minute)
			}
		}
		for i, n := range nodes {
			if n == victim {
				nodes = append(nodes[:i], nodes[i+1:]...)
				break
			}
		}
		fresh := newNode()
		if err := fresh.Join(contact); err != nil {
			return err
		}
		if !cluster.RunUntil(fresh.IsMember, 2*time.Minute) {
			return fmt.Errorf("churn join %d timed out", event)
		}
		nodes = append(nodes, fresh)
		_ = nodes[0].BroadcastWith([]byte(fmt.Sprintf("update-%d", event)), atum.BroadcastOpts{})
	}
	return nil
}

func TestChurnJoinsSurviveMergeRetries(t *testing.T) {
	if err := churnJoins(t); err != nil {
		t.Fatal(err)
	}
}
