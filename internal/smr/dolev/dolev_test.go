package dolev

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"atum/internal/actor"
	"atum/internal/crypto"
	"atum/internal/ids"
	"atum/internal/smr"
	"atum/internal/wire"
)

// cluster is a lockstep test harness: messages sent during a round are
// delivered (in configurable order) before the next Tick, which matches the
// synchrony assumption of the protocol.
type cluster struct {
	t         *testing.T
	scheme    crypto.Scheme
	members   []ids.Identity
	signers   map[ids.NodeID]crypto.Signer
	replicas  map[ids.NodeID]*Replica
	inbox     map[ids.NodeID][]envelope
	committed map[ids.NodeID][]smr.Operation
	drop      func(from, to ids.NodeID, msg actor.Message) bool
	rng       *rand.Rand
}

type envelope struct {
	from ids.NodeID
	msg  actor.Message
}

// newCluster creates n replicas with IDs 1..n; byzantine lists members that
// exist in the composition but run no replica (the tests drive them by hand).
func newCluster(t *testing.T, n int, byzantine ...ids.NodeID) *cluster {
	c := &cluster{
		t:         t,
		scheme:    crypto.SimScheme{},
		signers:   make(map[ids.NodeID]crypto.Signer),
		replicas:  make(map[ids.NodeID]*Replica),
		inbox:     make(map[ids.NodeID][]envelope),
		committed: make(map[ids.NodeID][]smr.Operation),
		rng:       rand.New(rand.NewSource(7)),
	}
	byz := make(map[ids.NodeID]bool)
	for _, b := range byzantine {
		byz[b] = true
	}
	for i := 1; i <= n; i++ {
		id := ids.NodeID(i)
		signer := c.scheme.NewSigner([]byte(fmt.Sprintf("node-%d", i)))
		c.signers[id] = signer
		c.members = append(c.members, ids.Identity{ID: id, PubKey: signer.Public()})
	}
	ids.SortIdentities(c.members)
	for i := 1; i <= n; i++ {
		id := ids.NodeID(i)
		if byz[id] {
			continue
		}
		cfg := smr.Config{
			GroupID: 1,
			Epoch:   1,
			Members: c.members,
			Self:    id,
			Scheme:  c.scheme,
			Signer:  c.signers[id],
			Send: func(to ids.NodeID, msg actor.Message) {
				c.send(id, to, msg)
			},
			Commit: func(op smr.Operation) {
				c.committed[id] = append(c.committed[id], op)
			},
		}
		c.replicas[id] = New(cfg)
	}
	return c
}

func (c *cluster) send(from, to ids.NodeID, msg actor.Message) {
	if c.drop != nil && c.drop(from, to, msg) {
		return
	}
	c.inbox[to] = append(c.inbox[to], envelope{from: from, msg: msg})
}

// deliverAll drains inboxes (including messages generated by relays) in a
// randomized but seed-deterministic order.
func (c *cluster) deliverAll() {
	for {
		var targets []ids.NodeID
		for id, q := range c.inbox {
			if len(q) > 0 {
				targets = append(targets, id)
			}
		}
		if len(targets) == 0 {
			return
		}
		// Deterministic iteration order.
		for i := range targets {
			j := c.rng.Intn(i + 1)
			targets[i], targets[j] = targets[j], targets[i]
		}
		for _, id := range targets {
			q := c.inbox[id]
			c.inbox[id] = nil
			r, ok := c.replicas[id]
			if !ok {
				continue // byzantine or absent: drop
			}
			for _, e := range q {
				r.Receive(e.from, e.msg)
			}
		}
	}
}

func (c *cluster) tick(round uint64) {
	for _, m := range c.members {
		if r, ok := c.replicas[m.ID]; ok {
			r.Tick(round)
		}
	}
	c.deliverAll()
}

func (c *cluster) runRounds(from, to uint64) {
	for r := from; r <= to; r++ {
		c.tick(r)
	}
}

// checkAgreement verifies all correct replicas committed identical sequences
// and returns that sequence. A replica that committed nothing counts as an
// empty sequence, so one replica committing alone is a divergence.
func (c *cluster) checkAgreement() []smr.Operation {
	c.t.Helper()
	var ref []smr.Operation
	var refID ids.NodeID
	first := true
	for _, m := range c.members {
		if _, isReplica := c.replicas[m.ID]; !isReplica {
			continue
		}
		seq := c.committed[m.ID]
		if first {
			ref, refID, first = seq, m.ID, false
			continue
		}
		if len(ref) != len(seq) || (len(seq) > 0 && !reflect.DeepEqual(ref, seq)) {
			c.t.Fatalf("commit sequences diverge: %v=%v vs %v=%v", refID, ref, m.ID, seq)
		}
	}
	return ref
}

func op(proposer ids.NodeID, opID uint64, data string) smr.Operation {
	return smr.Operation{Proposer: proposer, OpID: opID, Data: []byte(data)}
}

func TestSingleNodeCommits(t *testing.T) {
	c := newCluster(t, 1)
	c.replicas[1].Propose(op(1, 1, "a"))
	c.runRounds(1, 3)
	got := c.checkAgreement()
	if len(got) != 1 || string(got[0].Data) != "a" {
		t.Fatalf("committed = %v, want [a]", got)
	}
}

func TestAllCorrectTotalOrder(t *testing.T) {
	c := newCluster(t, 4) // f = 1, slots finalize after 2 rounds
	c.replicas[1].Propose(op(1, 1, "x"))
	c.replicas[3].Propose(op(3, 1, "y"))
	c.runRounds(1, 4)
	got := c.checkAgreement()
	if len(got) != 2 {
		t.Fatalf("committed %d ops, want 2: %v", len(got), got)
	}
	// Both started in round 1; finalization order is member order: 1 then 3.
	if got[0].Proposer != 1 || got[1].Proposer != 3 {
		t.Errorf("commit order = [%v %v], want [n1 n3]", got[0].Proposer, got[1].Proposer)
	}
}

func TestLatencyIsFPlusOneRounds(t *testing.T) {
	c := newCluster(t, 5) // f = 2
	c.replicas[1].Propose(op(1, 1, "x"))
	c.tick(1) // broadcast happens here
	c.tick(2)
	c.tick(3)
	if len(c.committed[2]) != 0 {
		t.Fatal("committed before f+1 rounds elapsed")
	}
	c.tick(4) // round 1 + f + 1 = 4: finalize
	if len(c.committed[2]) != 1 {
		t.Fatalf("not committed at round f+1: %v", c.committed[2])
	}
	c.checkAgreement()
}

func TestSenderOmissionStillAgrees(t *testing.T) {
	// Node 1's initial broadcast reaches only node 2 (crash mid-send).
	// Relaying must ensure all correct nodes commit the value anyway.
	c := newCluster(t, 5)
	first := true
	c.drop = func(from, to ids.NodeID, _ actor.Message) bool {
		if from == 1 && first && to != 2 {
			return true
		}
		return false
	}
	c.replicas[1].Propose(op(1, 1, "survivor"))
	c.tick(1)
	first = false
	c.drop = func(from, _ ids.NodeID, _ actor.Message) bool { return from == 1 } // node 1 silent now
	c.runRounds(2, 5)
	got := c.checkAgreement()
	if len(got) != 1 || string(got[0].Data) != "survivor" {
		t.Fatalf("committed = %v, want [survivor]", got)
	}
}

func TestEquivocationCommitsNothing(t *testing.T) {
	// Byzantine node 5 sends value A to nodes {1,2} and value B to {3,4}.
	c := newCluster(t, 5, 5) // 5 is byzantine (no replica)
	signer := c.signers[5]
	mkMsg := func(data string) SlotMsg {
		ops := []smr.Operation{op(5, 1, data)}
		d := smr.OpsDigest(1, 1, 1, 5, ops)
		return SlotMsg{
			GroupID: 1, Epoch: 1, StartRound: 1, Sender: 5,
			Ops:  ops,
			Sigs: []SigEntry{{Node: 5, Sig: signer.Sign(d[:])}},
		}
	}
	msgA, msgB := mkMsg("A"), mkMsg("B")
	c.tick(1)
	c.send(5, 1, msgA)
	c.send(5, 2, msgA)
	c.send(5, 3, msgB)
	c.send(5, 4, msgB)
	c.deliverAll()
	c.runRounds(2, 6)
	got := c.checkAgreement()
	if len(got) != 0 {
		t.Fatalf("equivocated slot committed %v, want nothing", got)
	}
}

func TestForgedChainRejected(t *testing.T) {
	c := newCluster(t, 3, 3)
	// Byzantine 3 claims an op from node 1 with its own signature only.
	ops := []smr.Operation{op(1, 9, "forged")}
	d := smr.OpsDigest(1, 1, 1, 1, ops)
	msg := SlotMsg{
		GroupID: 1, Epoch: 1, StartRound: 1, Sender: 1,
		Ops:  ops,
		Sigs: []SigEntry{{Node: 1, Sig: c.signers[3].Sign(d[:])}}, // wrong key
	}
	c.tick(1)
	c.send(3, 2, msg)
	c.deliverAll()
	c.runRounds(2, 4)
	if len(c.committed[2]) != 0 {
		t.Fatalf("forged message committed: %v", c.committed[2])
	}
}

func TestTamperedOpsRejected(t *testing.T) {
	c := newCluster(t, 3, 3)
	// A valid message from node 1...
	c.replicas[1].Propose(op(1, 1, "good"))
	c.tick(1)
	// ...whose ops a Byzantine relay alters. Signature binds the digest, so
	// the altered message must be rejected by receivers.
	ops := []smr.Operation{op(1, 1, "evil")}
	d := smr.OpsDigest(1, 1, 1, 1, ops)
	_ = d
	var stolen SlotMsg
	for _, e := range c.inbox[3] {
		if m, ok := e.msg.(SlotMsg); ok {
			stolen = m
		}
	}
	if stolen.Sender != 1 {
		t.Skip("no slot message captured (delivery raced)")
	}
	stolen.Ops = ops
	c.send(3, 2, stolen)
	c.runRounds(2, 4)
	got := c.checkAgreement()
	if len(got) != 1 || string(got[0].Data) != "good" {
		t.Fatalf("committed = %v, want only [good]", got)
	}
}

func TestWrongEpochIgnored(t *testing.T) {
	c := newCluster(t, 3)
	msg := SlotMsg{GroupID: 1, Epoch: 99, StartRound: 1, Sender: 2,
		Ops: []smr.Operation{op(2, 1, "stale")}}
	c.tick(1)
	c.send(2, 1, msg)
	c.runRounds(2, 4)
	if len(c.committed[1]) != 0 {
		t.Fatalf("wrong-epoch message committed: %v", c.committed[1])
	}
}

func TestStoppedReplicaInert(t *testing.T) {
	c := newCluster(t, 3)
	c.replicas[1].Stop()
	c.replicas[1].Propose(op(1, 1, "late"))
	c.runRounds(1, 4)
	if len(c.committed[1]) != 0 {
		t.Fatal("stopped replica committed")
	}
}

func TestManyProposersProperty(t *testing.T) {
	// Random proposals over several rounds; all correct replicas must end
	// with identical sequences containing every proposed op exactly once.
	for seed := int64(0); seed < 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			n := 4 + rng.Intn(4) // 4..7 replicas
			c := newCluster(t, n)
			c.rng = rand.New(rand.NewSource(seed + 100))
			proposed := 0
			var round uint64
			for round = 1; round <= 6; round++ {
				for id, r := range c.replicas {
					if rng.Intn(2) == 0 {
						proposed++
						r.Propose(op(id, uint64(proposed), fmt.Sprintf("op%d", proposed)))
					}
				}
				c.tick(round)
			}
			// Drain: run f+2 extra empty rounds.
			for ; round <= 6+uint64(smr.SyncF(n))+2; round++ {
				c.tick(round)
			}
			got := c.checkAgreement()
			if len(got) != proposed {
				t.Fatalf("committed %d ops, proposed %d", len(got), proposed)
			}
			seen := make(map[string]bool)
			for _, o := range got {
				key := fmt.Sprintf("%v-%d", o.Proposer, o.OpID)
				if seen[key] {
					t.Fatalf("duplicate commit %s", key)
				}
				seen[key] = true
			}
		})
	}
}

// TestWireSizeGrowsWithChain: the measured walk of a slot counts its signature
// chain, byte for byte as the encoding walk writes it.
func TestWireSizeGrowsWithChain(t *testing.T) {
	base := SlotMsg{Ops: []smr.Operation{op(1, 1, "x")}}
	withSigs := base
	withSigs.Sigs = []SigEntry{{Node: 1, Sig: make([]byte, 32)}, {Node: 2, Sig: make([]byte, 32)}}
	measure := func(m SlotMsg) int {
		n := 0
		m.Wire(wire.Measure(&n))
		if enc := len(wire.Encode(m.Wire)); n != enc {
			t.Errorf("%d sigs: measured %d bytes, encoded %d", len(m.Sigs), n, enc)
		}
		return n
	}
	if measure(withSigs) <= measure(base) {
		t.Error("the measured size must account for the signature chain")
	}
}

// countingScheme counts the signature checks a replica makes.
type countingScheme struct {
	crypto.Scheme
	verifies *int
}

func (s countingScheme) Verify(pub, msg, sig []byte) bool {
	*s.verifies++
	return s.Scheme.Verify(pub, msg, sig)
}

// countVerifies makes every replica of c count its signature checks into one
// counter and returns it.
func (c *cluster) countVerifies() *int {
	n := new(int)
	for _, r := range c.replicas {
		r.cfg.Scheme = countingScheme{Scheme: c.scheme, verifies: n}
	}
	return n
}

// slotSnapshot copies what a replica holds for its open slots.
func slotSnapshot(r *Replica) map[slotKey][][]smr.Operation {
	out := make(map[slotKey][][]smr.Operation, len(r.slots))
	for k, batches := range r.slots {
		out[k] = append([][]smr.Operation(nil), batches...)
	}
	return out
}

func TestAcceptedValueVerifiedOnce(t *testing.T) {
	for _, g := range []int{4, 7, 8} {
		t.Run(fmt.Sprintf("g=%d", g), func(t *testing.T) {
			c := newCluster(t, g)
			verifies := c.countVerifies()
			c.replicas[1].Propose(op(1, 1, "x"))
			c.runRounds(1, uint64(smr.SyncF(g))+2)
			// The sender verifies nothing and every other member verifies the
			// chain of the first copy it gets, the sender's own (one
			// signature); every relayed copy after it is dropped unverified.
			if *verifies != g-1 {
				t.Errorf("%d verifies for one slot, want g-1 = %d", *verifies, g-1)
			}
			if got := c.checkAgreement(); len(got) != 1 {
				t.Fatalf("committed %v, want one op", got)
			}
		})
	}
	t.Run("garbage chain", func(t *testing.T) {
		c := newCluster(t, 5)
		verifies := c.countVerifies()
		c.replicas[1].Propose(op(1, 1, "x"))
		c.tick(1)
		sent := 0
		c.drop = func(from, _ ids.NodeID, _ actor.Message) bool {
			if from == 2 {
				sent++
			}
			return false
		}
		// A copy of the value member 2 accepted, its chain replaced.
		before, checks := slotSnapshot(c.replicas[2]), *verifies
		c.replicas[2].Receive(3, SlotMsg{
			GroupID: 1, Epoch: 1, StartRound: 1, Sender: 1,
			Ops:  []smr.Operation{op(1, 1, "x")},
			Sigs: []SigEntry{{Node: 1, Sig: []byte("garbage")}, {Node: 3, Sig: nil}, {Node: 3, Sig: []byte{1}}},
		})
		if *verifies != checks {
			t.Errorf("the copy cost %d verifies, want 0", *verifies-checks)
		}
		if sent != 0 {
			t.Errorf("the copy made member 2 send %d messages", sent)
		}
		if after := slotSnapshot(c.replicas[2]); !reflect.DeepEqual(before, after) {
			t.Errorf("slot state changed:\n before %v\n after  %v", before, after)
		}
		c.drop = nil
		c.runRounds(2, 4)
		if got := c.checkAgreement(); len(got) != 1 || string(got[0].Data) != "x" {
			t.Fatalf("committed %v, want [x]", got)
		}
	})
}

func TestEquivocatorCannotFloodSlot(t *testing.T) {
	// Byzantine node 5 signs ten distinct values for slot (1, 5) and sends
	// every one of them to every member.
	c := newCluster(t, 5, 5)
	signer := c.signers[5]
	relayed := make(map[ids.NodeID]map[string]bool)
	c.drop = func(from, _ ids.NodeID, msg actor.Message) bool {
		if m, ok := msg.(SlotMsg); ok && from != 5 && m.Sender == 5 {
			if relayed[from] == nil {
				relayed[from] = make(map[string]bool)
			}
			relayed[from][string(m.Ops[0].Data)] = true
		}
		return false
	}
	c.tick(1)
	for i := 0; i < 10; i++ {
		ops := []smr.Operation{op(5, 1, fmt.Sprintf("v%d", i))}
		d := smr.OpsDigest(1, 1, 1, 5, ops)
		msg := SlotMsg{
			GroupID: 1, Epoch: 1, StartRound: 1, Sender: 5,
			Ops:  ops,
			Sigs: []SigEntry{{Node: 5, Sig: signer.Sign(d[:])}},
		}
		for to := ids.NodeID(1); to <= 4; to++ {
			c.send(5, to, msg)
		}
	}
	c.deliverAll()
	key := slotKey{startRound: 1, sender: 5}
	for id, r := range c.replicas {
		if held := len(r.slots[key]); held != 2 {
			t.Errorf("member %v holds %d values for the slot, want 2", id, held)
		}
		if n := len(relayed[id]); n > 2 {
			t.Errorf("member %v relayed %d values, want at most 2", id, n)
		}
	}
	c.runRounds(2, 5)
	if got := c.checkAgreement(); len(got) != 0 {
		t.Fatalf("equivocated slot committed %v, want nothing", got)
	}
}

// TestPreBirthCatchUpTrustsLoneSender pins a known limit (docs/ARCHITECTURE.md
// "Known limits", ROADMAP item 13): a replica born after a slot started
// accepts that slot on a chain holding only the sender's signature, so a
// faulty sender can make a late member alone commit a value. The fix needs
// f+1 members to vouch for such a value; when it lands, this test must be
// inverted to checkAgreement.
func TestPreBirthCatchUpTrustsLoneSender(t *testing.T) {
	c := newCluster(t, 5, 5) // f = 2; 5 is faulty
	ops := []smr.Operation{op(5, 1, "lone")}
	d := smr.OpsDigest(1, 1, 3, 5, ops)
	lone := SlotMsg{
		GroupID: 1, Epoch: 1, StartRound: 3, Sender: 5,
		Ops:  ops,
		Sigs: []SigEntry{{Node: 5, Sig: c.signers[5].Sign(d[:])}},
	}
	for round := uint64(1); round <= 7; round++ {
		for id := ids.NodeID(1); id <= 4; id++ {
			if id < 4 || round >= 5 { // member 4's replica is born at round 5
				c.replicas[id].Tick(round)
			}
		}
		if round == 5 {
			c.send(5, 4, lone)
		}
		c.deliverAll()
	}
	for id := ids.NodeID(1); id <= 3; id++ {
		if len(c.committed[id]) != 0 {
			t.Fatalf("member %v committed %v, want nothing", id, c.committed[id])
		}
	}
	if len(c.committed[4]) != 1 {
		t.Fatalf("late member 4 committed %v; the known limit no longer reproduces", c.committed[4])
	}
}

// TestSlotCarriesOnlyItsSendersOps: faulty member 5 signs a slot whose ops
// name members 1 and 3 as their proposers. The sender's signature vouches for
// its own ops only, so no member commits them.
func TestSlotCarriesOnlyItsSendersOps(t *testing.T) {
	c := newCluster(t, 5, 5)
	ops := []smr.Operation{op(1, 9, "in 1's name"), op(3, 9, "in 3's name")}
	d := smr.OpsDigest(1, 1, 1, 5, ops)
	msg := SlotMsg{
		GroupID: 1, Epoch: 1, StartRound: 1, Sender: 5,
		Ops:  ops,
		Sigs: []SigEntry{{Node: 5, Sig: c.signers[5].Sign(d[:])}},
	}
	c.tick(1)
	for to := ids.NodeID(1); to <= 4; to++ {
		c.send(5, to, msg)
	}
	c.deliverAll()
	c.runRounds(2, 5)
	if got := c.checkAgreement(); len(got) != 0 {
		t.Fatalf("committed %v, want nothing: the slot's ops name members other than its sender", got)
	}
}
