package core

// The vgroup catch-up exchange (pull.go, checkLacks): a member cut off by a
// partition caught up after the heal, a late member caught up on more than a
// heartbeat's worth of deliveries, the joiner rule on the lister's side, and
// the bounds of the check's per-peer record.

import (
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/smr"
)

// TestPartitionedMemberCatchesUpAfterHeal: one member of a vgroup of at least
// four is cut off while three broadcasts from other vgroups, 100 ms apart,
// reach the rest of the system, and the partition heals 900 ms after the last.
// Its heartbeats after the heal carry tags that lack all three, so its peers
// list them to it, and it delivers each exactly once through a catch-up —
// while its peers still hold the payloads. A list sent during the partition
// would have been lost, and the member never told.
func TestPartitionedMemberCatchesUpAfterHeal(t *testing.T) {
	for _, seed := range []int64{7, 8, 9} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			h := newHarness(t, smr.ModeSync, seed, func(cfg *Config) {
				cfg.DisableShuffle = true
				cfg.HeartbeatEvery = 500 * time.Millisecond
			})
			nodes := h.bootstrapSystem(smr.ModeSync, 16, 120*time.Second)
			h.net.Run(h.net.Now() + 5*time.Second)

			var cut *Node
			for _, n := range nodes {
				if n.IsMember() && n.Comp().N() >= 4 {
					cut = n
					break
				}
			}
			if cut == nil {
				t.Fatal("no vgroup of four or more")
			}
			var rest, publishers []ids.NodeID
			for _, n := range nodes {
				if id := n.cfg.Identity.ID; id != cut.cfg.Identity.ID {
					rest = append(rest, id)
				}
			}
			for _, n := range nodes {
				if n.IsMember() && n.Comp().GroupID != cut.Comp().GroupID && len(publishers) < 3 {
					publishers = append(publishers, n.cfg.Identity.ID)
				}
			}
			h.net.SetPartitions([]ids.NodeID{cut.cfg.Identity.ID}, rest)
			var want []string
			sentAt := map[string]time.Duration{}
			for i, id := range publishers {
				data := fmt.Sprintf("published while cut off %d", i)
				want = append(want, data)
				sentAt[data] = h.net.Now()
				if err := h.nodes[id].BroadcastWith([]byte(data), BroadcastOpts{}); err != nil {
					t.Fatal(err)
				}
				h.net.Run(h.net.Now() + 100*time.Millisecond)
			}
			h.net.Run(h.net.Now() + 800*time.Millisecond) // 900 ms after the last
			h.net.Heal()
			h.net.Run(h.net.Now() + 10*time.Second)

			id := cut.cfg.Identity.ID
			if !cut.IsMember() {
				t.Fatal("the cut-off member is no longer a member")
			}
			got := slices.Sorted(slices.Values(h.delivered[id]))
			if !slices.Equal(got, want) {
				t.Fatalf("the cut-off member delivered %q, want each of %q once", got, want)
			}
			if st := cut.Stats(); st.CaughtUp != uint64(len(want)) {
				t.Errorf("%d catch-ups, want %d", st.CaughtUp, len(want))
			}
			var worst time.Duration
			for _, d := range want {
				worst = max(worst, h.deliverAt[id][d]-sentAt[d])
			}
			t.Logf("caught up on %d broadcasts; the slowest %v after it was published", len(want), worst)
			for _, n := range nodes {
				if n.IsMember() && n != cut {
					if got := slices.Sorted(slices.Values(h.delivered[n.cfg.Identity.ID])); !slices.Equal(got, want) {
						t.Errorf("member %v delivered %q", n.cfg.Identity.ID, got)
					}
				}
			}
		})
	}
}

// TestLateMemberCaughtUpOnEveryDelivery: a late member misses 2 × 256
// deliveries in one heartbeat period — twice what a heartbeat used to list.
// Its vgroup runs round by round: heartbeats, its repair ticks, and every
// message handed on until none is left. It catches up on every one of them,
// exactly once, before its peers' cache horizon passes. Each member's
// heartbeats open at most maxListedPerMember entries of its catch-up table,
// so the last of a heartbeat's lists reach it with fewer than f+1 listers;
// its peers list what it still lacks again at their next heartbeat.
func TestLateMemberCaughtUpOnEveryDelivery(t *testing.T) {
	K := testComp(5, 1, 1, 2, 3, 4, 5, 6, 7)
	X := testComp(2, 1, 11, 12, 13)
	nodes := map[ids.NodeID]*Node{}
	var k []*Node
	for _, m := range K.Members {
		n, _ := memberNode(t, m.ID, K, X)
		nodes[m.ID], k = n, append(k, n)
	}
	late := k[len(k)-1]
	delivered := map[string]int{}
	late.cfg.Callbacks.Deliver = func(d Delivery) { delivered[string(d.Data)]++ }

	hb, round := late.cfg.HeartbeatEvery, late.cfg.RoundDuration
	step := func(now time.Duration) {
		at(now, k...)
		for _, n := range k {
			n.heartbeatTick(now, false)
		}
		late.repairTick(now)
		for relay(k, nodes) > 0 {
		}
	}
	start := 3 * hb
	step(start)
	const missed = 2 * 256
	missedAt := start + hb/2 // between two heartbeats of the late member
	at(missedAt, k...)
	for i := 0; i < missed; i++ {
		p, d := gossipOf(fmt.Sprint("missed ", i))
		for _, n := range k[:len(k)-1] {
			n.delivered.add(d, p, missedAt)
		}
	}
	for now := missedAt + round; now <= missedAt+late.cacheHorizon(); now += round {
		step(now)
	}
	if len(delivered) != missed {
		t.Fatalf("the late member delivered %d of the %d broadcasts it missed", len(delivered), missed)
	}
	for data, times := range delivered {
		if times != 1 {
			t.Fatalf("%q delivered %d times", data, times)
		}
	}
	if st := late.Stats(); st.CaughtUp != missed {
		t.Errorf("%d catch-ups, want %d", st.CaughtUp, missed)
	}
}

// lacksTo returns the digests node n's heartbeat lists as lacked by to: the
// Lacks of the heartbeat it sent to, nil when it sent none.
func lacksTo(t *testing.T, n *Node, to ids.NodeID) []crypto.Digest {
	t.Helper()
	var lacks []crypto.Digest
	sent := false
	for _, s := range drainGroupSends(n) {
		if hb, ok := s.msg.(Heartbeat); ok && s.to == to {
			lacks, sent = hb.Lacks, true
		}
	}
	if !sent {
		t.Fatalf("node %v sent no heartbeat to %v", n.cfg.Identity.ID, to)
	}
	return lacks
}

// deliverAt delivers a broadcast at n at now and returns its digest.
func deliverAt(t *testing.T, n *Node, now time.Duration, data string) crypto.Digest {
	t.Helper()
	at(now, n)
	p, d := gossipOf(data)
	if !n.delivered.add(d, p, now) {
		t.Fatalf("%q was delivered already", data)
	}
	return d
}

// TestAdmittedMemberListedNothingInItsFirstPeriod is the joiner rule on the
// lister's side. Node 4's vgroup admits 7 at epoch 2; 5 was a member
// throughout. Heartbeats of both with empty tag sets reach 4 half a heartbeat
// period after the admission: 5 is listed both broadcasts 4 delivered, the one
// from before the admission and the one after, and 7 neither, since a member
// is not served broadcasts that may predate it. A broadcast 4 delivers after
// 7's first period is listed to 7.
func TestAdmittedMemberListedNothingInItsFirstPeriod(t *testing.T) {
	B := testComp(3, 1, 4, 5, 6)
	n, _ := memberNode(t, 4, B, testComp(2, 1, 11, 12, 13))
	hb := n.cfg.HeartbeatEvery
	empty := func(epoch uint64) Heartbeat { return Heartbeat{GroupID: B.GroupID, Epoch: epoch, Salt: 1} }

	start := 3 * hb
	at(start, n)
	n.Receive(5, empty(1))
	before := deliverAt(t, n, start+time.Second, "before the admission")
	at(start+2*time.Second, n)
	n.reconfigure(append(slices.Clone(B.Members), ids.Identity{ID: 7, Addr: "t:7"}), causeJoin)
	if !n.st.comp.Contains(7) || n.st.comp.Epoch != 2 {
		t.Fatalf("composition %v/%d after the admission", ids.IdentityIDs(n.st.comp.Members), n.st.comp.Epoch)
	}
	admitted := n.Now()
	after := deliverAt(t, n, admitted+time.Second, "after the admission")
	drainGroupSends(n)

	at(admitted+hb/2, n)
	n.Receive(5, empty(2))
	n.Receive(7, empty(2))
	n.heartbeatTick(n.Now(), false)
	sends := drainGroupSends(n)
	for _, c := range []struct {
		to   ids.NodeID
		want []crypto.Digest
	}{{5, []crypto.Digest{before, after}}, {7, nil}} {
		var got []crypto.Digest
		for _, s := range sends {
			if m, ok := s.msg.(Heartbeat); ok && s.to == c.to {
				got = m.Lacks
			}
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("member %v is listed %x, want %x", c.to, got, c.want)
		}
	}

	later := deliverAt(t, n, admitted+hb+time.Second, "after the first period")
	at(admitted+3*hb/2, n)
	n.Receive(7, empty(2))
	n.heartbeatTick(n.Now(), false)
	if got := lacksTo(t, n, 7); !slices.Equal(got, []crypto.Digest{later}) {
		t.Errorf("after its first period member 7 is listed %x, want %x", got, later)
	}
}

// TestLacksQueueBounded: a member whose heartbeat tags nothing lacks every
// recent delivery, but its queue holds the first maxListed, and so does a
// heartbeat to it. A digest leaves the queue when the member's tags show it
// or cacheHorizon has passed since its delivery.
func TestLacksQueueBounded(t *testing.T) {
	B := testComp(3, 1, 4, 5, 6)
	n, _ := memberNode(t, 4, B, testComp(2, 1, 11, 12, 13))
	start := 3 * n.cfg.HeartbeatEvery
	var ds []crypto.Digest
	for i := 0; i < maxListed+50; i++ {
		ds = append(ds, deliverAt(t, n, start+time.Duration(i)*time.Millisecond, fmt.Sprint("delivered ", i)))
	}
	now := start + n.cfg.HeartbeatEvery
	at(now, n)
	n.Receive(5, Heartbeat{GroupID: B.GroupID, Epoch: B.Epoch, Salt: 1})
	q := n.peers[5]
	if q == nil || !slices.Equal(q.lacks, ds[:maxListed]) {
		t.Fatalf("the queue for 5 holds %d digests, want the first %d", len(q.lacks), maxListed)
	}
	n.heartbeatTick(now, false)
	if got := lacksTo(t, n, 5); len(got) != maxListed {
		t.Fatalf("a heartbeat lists %d lacks, want the bound %d", len(got), maxListed)
	}
	if b, ok := (MessageCodec{}).EncodeMessage(Heartbeat{Lacks: q.lacks}); !ok {
		t.Fatal("a full heartbeat does not encode")
	} else if _, err := (MessageCodec{}).DecodeMessage(b); err != nil {
		t.Fatalf("a full heartbeat does not decode: %v", err)
	}

	// 5's next heartbeat tags the first ten: they leave its queue.
	const salt = 99
	var shown []uint32
	for _, d := range ds[:10] {
		shown = append(shown, haveTag(salt, d))
	}
	slices.Sort(shown)
	at(now+time.Second, n)
	n.Receive(5, Heartbeat{GroupID: B.GroupID, Epoch: B.Epoch, Salt: salt, Have: slices.Compact(shown)})
	if !slices.Equal(q.lacks, ds[10:maxListed]) {
		t.Fatalf("after tags showed ten the queue holds %d digests, want %d", len(q.lacks), maxListed-10)
	}
	at(start+n.cacheHorizon()+2*time.Second, n)
	n.Receive(5, Heartbeat{GroupID: B.GroupID, Epoch: B.Epoch, Salt: 1})
	if len(q.lacks) != 0 {
		t.Errorf("past the cache horizon the queue holds %d digests, want none", len(q.lacks))
	}
}

// TestPeerChecksFreedWithMembership is the member table's lifecycle: one
// record per other member of the node's composition. A non-member's heartbeat
// opens none. Across a reconfiguration a member who stays keeps its record —
// its catch-up check, its re-share pacing and the epoch it last heartbeated —
// while its heartbeat clock restarts and its eviction vote is cleared; a
// member who leaves loses its record; a new member's check starts one
// heartbeat period ahead. The node's own departure drops the table.
func TestPeerChecksFreedWithMembership(t *testing.T) {
	prev, B := testComp(3, 1, 4, 5, 6), testComp(3, 2, 4, 5, 6)
	n, _ := memberNode(t, 4, B, testComp(2, 1, 11, 12, 13))
	hb := n.cfg.HeartbeatEvery
	if got := slices.Sorted(maps.Keys(n.peers)); !slices.Equal(got, []ids.NodeID{5, 6}) {
		t.Fatalf("a new member's table holds %v, want the other members 5 and 6", got)
	}
	n.learnComp(prev)
	n.cacheSnapshot(prev.Epoch, []byte("snapshot attested by epoch 1"))
	deliverAt(t, n, 2*hb, "delivered")
	at(3*hb, n)
	n.Receive(5, Heartbeat{GroupID: B.GroupID, Epoch: prev.Epoch}) // a re-share
	for _, from := range []ids.NodeID{5, 6, 11, 99} {
		n.Receive(from, Heartbeat{GroupID: B.GroupID, Epoch: B.Epoch, Salt: 1})
	}
	if got := slices.Sorted(maps.Keys(n.peers)); !slices.Equal(got, []ids.NodeID{5, 6}) {
		t.Fatalf("after heartbeats of members and non-members: records for %v, want for 5 and 6", got)
	}
	n.heartbeatTick(3*hb, true) // an eviction vote for each
	kept := n.peers[5]
	before := *kept
	if len(before.lacks) != 1 || before.reShareAt <= 3*hb || before.evictEpoch != B.Epoch {
		t.Fatalf("5's record %+v: want one lack, a re-share pacing and an eviction vote", before)
	}

	now := 3*hb + time.Second
	at(now, n)
	seven := testComp(3, 0, 7).Members[0]
	n.reconfigure(append(ids.Without(B.Members, 6), seven), causeLeave)
	if got := slices.Sorted(maps.Keys(n.peers)); !slices.Equal(got, []ids.NodeID{5, 7}) || n.peers[5] != kept {
		t.Fatalf("after 6 left and 7 came: records for %v (5's kept: %v)", got, n.peers[5] == kept)
	}
	if kept.upTo != before.upTo || !slices.Equal(kept.lacks, before.lacks) || kept.reShareAt != before.reShareAt || kept.heard != before.heard {
		t.Errorf("5 stayed, yet its record went from %+v to %+v", before, *kept)
	}
	if kept.heardAt != now || kept.evictEpoch != 0 {
		t.Errorf("5's heartbeat clock %v and eviction epoch %d, want %v and none", kept.heardAt, kept.evictEpoch, now)
	}
	if p := n.peers[7]; p.upTo != now+hb || p.heardAt != now || p.heard != (group.Key{}) || p.reShareAt != 0 || len(p.lacks) != 0 {
		t.Errorf("7's new record %+v, want its check to start at %v", *p, now+hb)
	}

	n.reconfigure(ids.Without(n.st.comp.Members, 4), causeLeave)
	if n.IsMember() || n.peers != nil {
		t.Errorf("after leaving, member %v keeps %d records", n.IsMember(), len(n.peers))
	}
}
