package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"atum"
	"atum/internal/actor"
	"atum/internal/crypto"
	"atum/internal/egress"
	"atum/internal/group"
	"atum/internal/overlay"
	"atum/internal/rtnet"
	"atum/internal/simnet"
	"atum/internal/smr"
	"atum/internal/smr/dolev"
	"atum/internal/smr/pbft"
	"atum/internal/tcpnet"
)

// Micro-timings: each layer's exported functions called directly on fixed
// inputs, so a change to one layer shows there before it shows end to end.
// Work is fixed (iteration counts, not durations); every timing is the
// median of microBatches batches.

const microBatches = 5

// timeOp calls fn iters times per batch and returns the median batch's
// nanoseconds per call and the heap allocations per call.
func timeOp(iters int, fn func()) (nsPerOp, allocsPerOp float64) {
	fn() // warm caches and lazy initialisation
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	per := make([]float64, microBatches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		per[b] = float64(time.Since(t0)) / float64(iters)
	}
	runtime.ReadMemStats(&ms1)
	return medianFloat(per), float64(ms1.Mallocs-ms0.Mallocs) / float64(iters*microBatches)
}

// testComposition builds a vgroup of n members with real signers.
func testComposition(scheme crypto.Scheme, gid atum.GroupID, n int) (group.Composition, []crypto.Signer) {
	comp := group.Composition{GroupID: gid, Epoch: 1}
	signers := make([]crypto.Signer, n)
	for i := range signers {
		signers[i] = scheme.NewSigner([]byte(fmt.Sprintf("layer-%d-%d", gid, i)))
		comp.Members = append(comp.Members, atum.Identity{
			ID: atum.NodeID(uint64(gid)*100 + uint64(i) + 1), Addr: "layer", PubKey: signers[i].Public()})
	}
	return comp, signers
}

// layerTimings runs every micro-timing and returns the metrics.
func layerTimings() metrics {
	v := metrics{}
	rng := rand.New(rand.NewSource(1))
	fill := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}

	// crypto: what tcp_loopback pays per signature; the simulator workloads
	// sign with the keyed-hash stand-in and do not move with these.
	ed := crypto.Ed25519Scheme{}
	signer := ed.NewSigner([]byte("layer-signer"))
	msg64 := fill(64)
	sig := signer.Sign(msg64)
	v["crypto.sign_ns"], _ = timeOp(200, func() { sig = signer.Sign(msg64) })
	v["crypto.verify_ns"], _ = timeOp(100, func() { ed.Verify(signer.Public(), msg64, sig) })
	msg256 := fill(256)
	v["crypto.hash_ns"], _ = timeOp(20000, func() { crypto.Hash(msg256) })

	// overlay: a walk certificate chain of RWL=4 steps between vgroups of 6.
	origin, prevSigners := testComposition(ed, 1, 6)
	walkID := crypto.Hash([]byte("layer-walk"))
	var chain []overlay.StepCert
	prev := origin
	for step := 0; step < overlayParams.RWL; step++ {
		next, nextSigners := testComposition(ed, atum.GroupID(step+2), 6)
		cert := overlay.StepCert{Next: next}
		for i := 0; i < prev.Majority(); i++ {
			cert.Sigs = append(cert.Sigs, overlay.SignStep(prevSigners[i], prev.Members[i].ID, walkID, step, next))
		}
		chain = append(chain, cert)
		prev, prevSigners = next, nextSigners
	}
	ns, _ := timeOp(10, func() {
		if _, err := overlay.VerifyChain(ed, origin, walkID, chain); err != nil {
			panic(err)
		}
	})
	v["overlay.verify_chain_us"] = ns / 1e3

	// wire: one group message with a 256-byte payload through the codec
	// byte-level transports use.
	codec := atum.WireMessageCodec()
	gm := group.GroupMsg{SrcGroup: 1, SrcEpoch: 1, DstGroup: 2, DstEpoch: 1, Kind: 1,
		MsgID: crypto.Hash(msg64), PayloadDigest: crypto.Hash(msg256), Payload: msg256}
	encoded, _ := codec.EncodeMessage(gm)
	v["wire.groupmsg_encode_ns"], v["wire.groupmsg_encode_allocs"] = timeOp(20000, func() { codec.EncodeMessage(gm) })
	v["wire.groupmsg_decode_ns"], v["wire.groupmsg_decode_allocs"] = timeOp(20000, func() {
		if _, err := codec.DecodeMessage(encoded); err != nil {
			panic(err)
		}
	})

	// group: a batch frame of 16 distinct 64-byte items, packed and unpacked.
	sim := crypto.SimScheme{}
	src, _ := testComposition(sim, 1, 6)
	dst, _ := testComposition(sim, 2, 6)
	items := make([]group.BatchItem, 16)
	for i := range items {
		p := fill(64)
		items[i] = group.BatchItem{Kind: 1, MsgID: crypto.Hash(p, []byte{byte(i)}), Payload: p}
	}
	var carrier group.GroupMsg
	capture := func(_ atum.NodeID, m actor.Message) { carrier = m.(group.GroupMsg) }
	v["group.batch_pack_ns"], v["group.batch_pack_allocs"] = timeOp(2000, func() {
		group.SendBatchToNode(capture, src, src.Members[0].ID, dst.Members[0].ID, 1, items[0].MsgID, items)
	})
	v["group.batch_frame_bytes"] = float64(len(carrier.Payload))
	v["group.batch_unpack_ns"], v["group.batch_unpack_allocs"] = timeOp(2000, func() {
		if _, err := group.UnpackBatch(carrier); err != nil {
			panic(err)
		}
	})

	// group: the inbox vote. One call = one logical message voted to
	// acceptance by a majority (4 of 6), so 4 Observe calls; reported per
	// Observe.
	var inbox *group.Inbox
	var seq uint64
	vote := group.GroupMsg{SrcGroup: src.GroupID, SrcEpoch: src.Epoch, DstGroup: dst.GroupID, DstEpoch: dst.Epoch,
		Kind: 1, PayloadDigest: crypto.Hash(msg64), Payload: msg64}
	lookup := func(group.Key) (group.Composition, bool) { return src, true }
	ns, allocs := timeOp(1000, func() {
		if seq%1000 == 0 {
			inbox = group.NewInbox(lookup) // bounded per source composition
		}
		seq++
		vote.MsgID = crypto.HashUint64(crypto.Digest{}, seq)
		for i := 0; i < src.Majority(); i++ {
			inbox.Observe(0, src.Members[i].ID, vote)
		}
	})
	v["group.inbox_observe_ns"] = ns / float64(src.Majority())
	v["group.inbox_observe_allocs"] = allocs / float64(src.Majority())

	// egress: 16 deferred enqueues to one vgroup and the round's flush,
	// with a flush that transmits nothing.
	sched := egress.New(egress.Config{MaxBatch: 64, MaxBytes: 256 << 10, MaxWindow: 5 * time.Millisecond,
		Now:   func() time.Duration { return 0 },
		Arm:   func(time.Duration) {},
		Flush: func(_, _ group.Composition, _ atum.NodeID, _ []group.BatchItem) {},
	})
	v["egress.enqueue_flush_ns"], v["egress.enqueue_flush_allocs"] = timeOp(2000, func() {
		for i := range items {
			sched.EnqueueGroup(src, dst, items[i], true)
		}
		sched.FlushDeferred()
	})

	// smr: one Propose to commit at all 7 replicas, engines wired through
	// smr.Config closures with no network in between.
	v["smr.dolev_slot_us"], v["smr.dolev_slot_msgs"] = smrSlot(true,
		func(cfg smr.Config) smr.Replica { return dolev.New(cfg) })
	v["smr.pbft_slot_us"], v["smr.pbft_slot_msgs"] = smrSlot(false,
		func(cfg smr.Config) smr.Replica { return pbft.New(cfg, pbft.Options{RequestTimeout: time.Hour}) })

	// simnet: the scheduler with 10 000 events pending, then a message
	// through send and both delivery stages.
	net := simnet.New(simnet.Config{Seed: 1, Latency: simnet.ConstLatency(time.Millisecond)})
	for i := 0; i < 10000; i++ {
		net.Schedule(time.Hour+time.Duration(i), func() {})
	}
	at := time.Duration(0)
	v["simnet.event_ns"], v["simnet.event_allocs"] = timeOp(20000, func() {
		at += time.Microsecond
		net.Schedule(at, func() {})
		net.Step()
	})
	a, b := &sinkNode{}, &sinkNode{}
	net.Add(1, a)
	net.Add(2, b)
	net.Run(net.Now() + time.Millisecond)
	v["simnet.send_ns"], _ = timeOp(5000, func() {
		a.env.Send(2, gm)
		net.Step()
		net.Step()
	})

	v["rtnet.deliver_ns"] = rtnetDeliver(gm)
	v["tcpnet.roundtrip_us"] = tcpRoundtrip(gm)
	return v
}

// sinkNode is an actor that keeps its Env and drops everything it receives.
type sinkNode struct {
	env      actor.Env
	received int
}

func (s *sinkNode) Start(env actor.Env)                { s.env = env }
func (s *sinkNode) Receive(atum.NodeID, actor.Message) { s.received++ }
func (s *sinkNode) Timer(actor.TimerID, any)           {}
func (s *sinkNode) Stop()                              {}

// smrSlot times one agreement slot of an engine among 7 replicas: Propose
// at one member until every member committed. Messages are handed over
// directly; the synchronous engine gets a round tick whenever the queue is
// empty.
func smrSlot(synchronous bool, newReplica func(smr.Config) smr.Replica) (usPerSlot, msgsPerSlot float64) {
	const n = 7
	scheme := crypto.SimScheme{}
	comp, signers := testComposition(scheme, 9, n)
	type queued struct {
		from, to atum.NodeID
		msg      actor.Message
	}
	var queue []queued
	var sent int
	committed := make([]int, n)
	replicas := make([]smr.Replica, n)
	index := map[atum.NodeID]int{}
	for i, m := range comp.Members {
		i, self := i, m.ID
		index[self] = i
		replicas[i] = newReplica(smr.Config{
			GroupID: comp.GroupID, Epoch: comp.Epoch, Members: comp.Members, Self: self,
			Scheme: scheme, Signer: signers[i],
			Send: func(to atum.NodeID, msg actor.Message) {
				sent++
				queue = append(queue, queued{self, to, msg})
			},
			SetTimer: func(time.Duration, any) {},
			Commit:   func(smr.Operation) { committed[i]++ },
		})
	}
	round := uint64(0)
	tick := func() {
		round++
		for _, r := range replicas {
			r.Tick(round)
		}
	}
	if synchronous {
		tick()
	}
	slot := 0
	ns, _ := timeOp(20, func() {
		slot++
		replicas[slot%n].Propose(smr.Operation{Proposer: comp.Members[slot%n].ID, OpID: uint64(slot), Data: []byte("layer-op")})
		for steps := 0; ; steps++ {
			done := true
			for _, c := range committed {
				done = done && c >= slot
			}
			if done {
				return
			}
			if steps > 64 {
				panic("smr slot did not commit")
			}
			if synchronous {
				tick()
			}
			for len(queue) > 0 {
				q := queue
				queue = nil
				for _, m := range q {
					replicas[index[m.to]].Receive(m.from, m.msg)
				}
			}
		}
	})
	return ns / 1e3, float64(sent) / float64(slot)
}

// rtnetDeliver times a message from Runtime.Deliver through the node's
// mailbox to Receive.
func rtnetDeliver(msg actor.Message) float64 {
	rt := rtnet.New(rtnet.Options{})
	defer rt.Close()
	if err := rt.Add(1, &sinkNode{}); err != nil {
		return 0
	}
	ns, _ := timeOp(20000, func() { rt.Deliver(2, 1, msg) })
	// The mailbox is FIFO: once this runs, everything before it has.
	_ = rt.Invoke(1, func() {})
	return ns
}

// echo bounces what it receives back through its own transport.
type echo struct {
	tr   *tcpnet.Transport
	back chan struct{}
}

func (e *echo) Deliver(from, to atum.NodeID, msg actor.Message) {
	if e.back != nil {
		e.back <- struct{}{}
		return
	}
	e.tr.Send(to, from, msg)
}

// tcpRoundtrip returns the median round trip, in µs, of one group message
// between two transports on 127.0.0.1.
func tcpRoundtrip(msg actor.Message) float64 {
	ping := &echo{back: make(chan struct{}, 1)} // one reply in flight at most
	pong := &echo{}
	opts := tcpnet.Options{ListenAddr: "127.0.0.1:0", Codec: atum.WireMessageCodec()}
	a, err := tcpnet.New(1, ping, opts)
	if err != nil {
		return 0
	}
	defer a.Close()
	b, err := tcpnet.New(2, pong, opts)
	if err != nil {
		return 0
	}
	defer b.Close()
	pong.tr = b
	a.LearnAddr(2, b.Addr())
	b.LearnAddr(1, a.Addr())
	rtt := make([]int64, 0, 300)
	for i := 0; i < 320; i++ {
		t0 := time.Now()
		a.Send(1, 2, msg)
		select {
		case <-ping.back:
		case <-time.After(5 * time.Second):
			return 0
		}
		if i >= 20 { // the first trips pay for dialing
			rtt = append(rtt, int64(time.Since(t0)))
		}
	}
	sort.Slice(rtt, func(i, j int) bool { return rtt[i] < rtt[j] })
	return float64(percentile(rtt, 0.5)) / 1e3
}
