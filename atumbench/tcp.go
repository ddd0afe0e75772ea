package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"atum"
	"atum/internal/actor"
	"atum/internal/crypto"
	"atum/internal/tcpnet"
)

// tcp_loopback: every node has its own real-time runtime and its own TCP
// transport on 127.0.0.1, signs with ed25519, runs the PBFT engine and
// frames messages with the engine's wire codec — the deployment wiring of
// cmd/atum-node, in one process. It is the only workload where signatures,
// message framing, sockets, mailboxes and the Go scheduler sit on the
// latency path.
const (
	// Nine nodes grow into exactly two vgroups (the ninth join splits the
	// first), and no join comes after the split. Past that point a join's
	// random walk picks its vgroup by message timing, and the system a run
	// measures differs from the last: at 12 nodes message counts fall in
	// two clusters 8% apart, at 24 the spread is 30%.
	tcpNodes     = 9
	tcpPayload   = 256
	tcpPerSecond = 120 // open-loop broadcasts per second, about a quarter of one core
	tcpSettle    = time.Second
	tcpDrain     = time.Second
	tcpJoinWait  = 30 * time.Second
	// tcpJoinGap separates growth joins: a join that arrives while the
	// contact's vgroup is still reconfiguring from the previous one is lost
	// and retried only after JoinTimeout (10 s).
	tcpJoinGap = 250 * time.Millisecond
	// tcpSegment is how many broadcasts a latency segment holds: with 9
	// nodes, 1080 samples, so its p99 has ten beyond it; a new segment
	// starts every tcpSegmentStep broadcasts. On a real clock the
	// percentiles are taken per segment — any one second of the schedule —
	// and the run reports the median p50 and the least p99 (endToEndResult).
	// The tail of single seconds ranged from 2.6 to 34 ms inside one run;
	// the least of 9 disjoint seconds still moved 13–24% between runs, and
	// every further candidate second steadies it.
	tcpSegment     = 120
	tcpSegmentStep = 12
)

// countingLink sits between a runtime and its transport (the runtime must
// exist before the transport that delivers into it) and counts every
// node-to-node message handed to the wire.
type countingLink struct {
	tr   atomic.Pointer[tcpnet.Transport]
	sent atomic.Int64
}

func (l *countingLink) Send(from, to atum.NodeID, msg actor.Message) {
	l.sent.Add(1)
	if tr := l.tr.Load(); tr != nil {
		tr.Send(from, to, msg)
	}
}

func (l *countingLink) LearnAddr(id atum.NodeID, addr string) {
	if tr := l.tr.Load(); tr != nil {
		tr.LearnAddr(id, addr)
	}
}

func (l *countingLink) Close() error {
	if tr := l.tr.Load(); tr != nil {
		return tr.Close()
	}
	return nil
}

// countingCodec wraps the engine's wire codec: it counts the encoded bytes
// of every message a transport frames and, in traced runs, times both
// directions.
type countingCodec struct {
	inner tcpnet.Codec
	timed bool
	bytes atomic.Int64
	encNs atomic.Int64
	decNs atomic.Int64
}

func (c *countingCodec) EncodeMessage(msg actor.Message) ([]byte, bool) {
	t0 := time.Now()
	b, ok := c.inner.EncodeMessage(msg)
	if c.timed {
		c.encNs.Add(int64(time.Since(t0)))
	}
	c.bytes.Add(int64(len(b)))
	return b, ok
}

func (c *countingCodec) DecodeMessage(b []byte) (actor.Message, error) {
	if !c.timed {
		return c.inner.DecodeMessage(b)
	}
	t0 := time.Now()
	msg, err := c.inner.DecodeMessage(b)
	c.decNs.Add(int64(time.Since(t0)))
	return msg, err
}

type tcpMember struct {
	rt       *atum.RealtimeRuntime
	tr       *tcpnet.Transport
	link     *countingLink
	codec    *countingCodec
	node     *atum.Node
	identity atum.Identity
	joinedAt atomic.Int64 // ns since the system's base, 0 until OnJoined
}

type tcpSystem struct {
	base    time.Time
	members []*tcpMember
	tk      atomic.Pointer[tracker] // nil during growth
	tr      *tracer
	joinLat []int64
}

func (s *tcpSystem) now() int64 { return int64(time.Since(s.base)) }

// add starts the next node: runtime, transport, engine.
func (s *tcpSystem) add() (*tcpMember, error) {
	col := len(s.members)
	id := atum.NodeID(col + 1)
	m := &tcpMember{link: &countingLink{}}
	m.codec = &countingCodec{inner: atum.WireMessageCodec(), timed: s.tr != nil}
	m.rt = atum.NewRealtimeRuntime(atum.RealtimeOptions{Seed: topologySeed + int64(col), Transport: m.link})
	tr, err := tcpnet.New(id, m.rt.RT, tcpnet.Options{ListenAddr: "127.0.0.1:0", Codec: m.codec})
	if err != nil {
		m.rt.Close()
		return nil, err
	}
	m.tr = tr
	m.link.tr.Store(tr)
	// Every transport starts with the full address book, as a deployment
	// with a static peer list would. Without it joins stall at random once
	// there is more than one vgroup: a vgroup picked by the join's random
	// walk never learns the joiner's address, so its snapshot to the joiner
	// is dropped (tcpnet DroppedAddr) and the join retries every JoinTimeout
	// until a walk happens to end in the contact's own vgroup. README.md
	// files this as a finding.
	for _, e := range s.members {
		e.tr.LearnAddr(id, tr.Addr())
		tr.LearnAddr(e.identity.ID, e.identity.Addr)
	}
	ln := s.tr.node(col)
	m.node = atum.NewNode(atum.Config{
		Identity:       atum.Identity{ID: id, Addr: tr.Addr()},
		SignerSeed:     []byte(fmt.Sprintf("tcp-node-%d", id)),
		Scheme:         crypto.Ed25519Scheme{},
		Mode:           atum.ModeAsync,
		Params:         overlayParams,
		RoundDuration:  roundDuration,
		HeartbeatEvery: heartbeatEvery,
		EvictAfter:     10 * time.Second,
		WalkTimeout:    5 * time.Second,
		JoinTimeout:    10 * time.Second,
		RequestTimeout: time.Second,
		DisableShuffle: true,
		Callbacks: atum.Callbacks{
			Deliver: func(d atum.Delivery) {
				if tk := s.tk.Load(); tk != nil {
					tk.deliverTraced(ln, col, d, s.now())
				}
			},
			OnJoined: func(atum.GroupComposition) {
				m.joinedAt.CompareAndSwap(0, s.now())
			},
		},
	})
	m.identity = m.node.Identity()
	if err := m.rt.RT.Add(id, s.tr.wrap(col, m.node.Inner())); err != nil {
		m.rt.Close()
		return nil, err
	}
	s.members = append(s.members, m)
	return m, nil
}

// close stops every runtime and transport and waits for their goroutines.
func (s *tcpSystem) close() {
	for _, m := range s.members {
		m.rt.Close()
	}
}

// growTCP starts tcpNodes nodes, joins them one at a time through the
// first, and lets the system settle.
func growTCP(tr *tracer) (*tcpSystem, error) {
	s := &tcpSystem{base: time.Now(), tr: tr}
	first, err := s.add()
	if err != nil {
		return nil, err
	}
	if err := first.rt.Bootstrap(first.node); err != nil {
		s.close()
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	for i := 1; i < tcpNodes; i++ {
		m, err := s.add()
		if err != nil {
			s.close()
			return nil, err
		}
		time.Sleep(tcpJoinGap)
		call := s.now()
		if err := m.rt.Join(m.node, first.identity); err != nil {
			s.close()
			return nil, fmt.Errorf("join of node %d: %w", i+1, err)
		}
		for m.joinedAt.Load() == 0 {
			if time.Duration(s.now()-call) > tcpJoinWait {
				s.close()
				return nil, fmt.Errorf("join of node %d timed out after %v", i+1, tcpJoinWait)
			}
			time.Sleep(time.Millisecond)
		}
		s.joinLat = append(s.joinLat, m.joinedAt.Load()-call)
	}
	time.Sleep(tcpSettle)
	return s, nil
}

// traceSummary sums the trace lanes of a live system: each node's lane is
// read inside that node's loop, one after the other.
func (s *tcpSystem) traceSummary() traceSummary {
	sum := traceSummary{unknown: map[string]int64{}}
	s.tr.harness().addTo(&sum)
	for col, m := range s.members {
		ln := s.tr.node(col)
		// Invoke fails only for a node its runtime no longer hosts, and
		// none is removed before the repetition ends.
		_ = m.rt.RT.Invoke(m.identity.ID, func() { ln.addTo(&sum) })
	}
	return sum
}

func (s *tcpSystem) counters() (sent, bytes, encNs, decNs, dropped int64) {
	for _, m := range s.members {
		sent += m.link.sent.Load()
		bytes += m.codec.bytes.Load()
		encNs += m.codec.encNs.Load()
		decNs += m.codec.decNs.Load()
		st := m.tr.Stats()
		dropped += st.DroppedAddr + st.DroppedQ
	}
	return
}

// runTCP is one repetition of tcp_loopback: it grows the system and drives
// the open-loop schedule, one broadcast every 1/tcpPerSecond seconds from a
// rotating origin, each timed from the instant it was due.
func runTCP(seed int64, seconds int, traced bool) (*outcome, error) {
	rng := rand.New(rand.NewSource(seed))
	count := tcpPerSecond * seconds
	nonce := rng.Uint64()
	payloads := makePayloads(rng, nonce, count, tcpPayload)
	first := rng.Intn(tcpNodes)

	out := &outcome{}
	if traced {
		out.trace = newTracer(tcpNodes)
	}
	t0 := time.Now()
	s, err := growTCP(out.trace)
	if err != nil {
		return nil, err
	}
	defer s.close()
	out.setupSec = time.Since(t0).Seconds()
	out.joinLat = s.joinLat
	tk := newTracker(nonce, payloads, tcpNodes)
	s.tk.Store(tk)

	var traceBefore traceSummary
	if traced {
		traceBefore = s.traceSummary()
		out.trace.keep.Store(true)
	}
	runtime.GC()
	out.rt0 = snapRuntime()
	sent0, bytes0, enc0, dec0, drop0 := s.counters()
	cpu0 := cpuMicros()

	const slices = 10
	interval := time.Second / tcpPerSecond
	start := s.now() + int64(interval)
	out.genLate = make([]int64, 0, count)
	prevCPU := cpu0
	for i := 0; i < count; i++ {
		due := start + int64(i)*int64(interval)
		if wait := due - s.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		out.genLate = append(out.genLate, s.now()-due)
		tk.pubAt[i] = due
		m := s.members[(first+i)%tcpNodes]
		var hl *lane
		if traced {
			hl = out.trace.harness()
			hl.begin(spanPublish, i)
		}
		err := m.rt.BroadcastWith(m.node, payloads[i], atum.BroadcastOpts{})
		if hl != nil {
			hl.end(spanPublish)
		}
		if err != nil {
			tk.refused[i] = true
		}
		if (i+1)%(count/slices) == 0 && len(out.sliceCPU) < slices {
			c := cpuMicros()
			out.sliceCPU = append(out.sliceCPU, c-prevCPU)
			out.sliceDeliv = append(out.sliceDeliv, int64(count/slices*tcpNodes))
			prevCPU = c
		}
	}
	time.Sleep(tcpDrain)
	out.cpuUs = cpuMicros() - cpu0
	sent1, bytes1, enc1, dec1, drop1 := s.counters()
	out.rt1 = snapRuntime()
	if traced {
		out.traceSum = s.traceSummary().since(traceBefore)
	}
	out.sent, out.bytesSent, out.dropped = sent1-sent0, bytes1-bytes0, drop1-drop0
	out.encodeNs, out.decodeNs = enc1-enc0, dec1-dec0
	out.heapBytes = liveHeap()
	out.nodesAlive = tcpNodes
	s.census(out)

	// Stop the nodes before reading what their goroutines wrote.
	s.close()
	eligible := make([]bool, tcpNodes)
	for i := range eligible {
		eligible[i] = true
	}
	out.collect(tk, eligible)
	return out, nil
}

// census counts the vgroups the members form and their median size.
func (s *tcpSystem) census(out *outcome) {
	sizes := map[atum.NodeID]int64{} // keyed by the vgroup's lowest member ID
	for _, m := range s.members {
		var members []atum.Identity
		if err := m.rt.RT.Invoke(m.identity.ID, func() { members = m.node.GroupMembers() }); err == nil && len(members) > 0 {
			sizes[members[0].ID] = int64(len(members))
		}
	}
	out.vgroups, out.vgroupP50 = censusOf(sizes)
}

func runTCPWorkload(seed int64, seconds int, traced bool) (*result, error) {
	if !traced {
		var reps []*outcome
		for i := 0; i < repetitions; i++ {
			o, err := runTCP(seed, seconds, false)
			if err != nil {
				return nil, err
			}
			reps = append(reps, o)
		}
		return endToEndResult(reps, reportOpts{steady: true, segment: tcpSegment, segmentStep: tcpSegmentStep, growthJoins: true}), nil
	}
	plain, err := runTCP(seed, seconds, false)
	if err != nil {
		return nil, err
	}
	tr, err := runTCP(seed, seconds, true)
	if err != nil {
		return nil, err
	}
	r := perLayerResult("tcp_loopback", true, tr, plain)
	v := r.values
	b := float64(tr.bcasts)
	v["rtnet.send_us_per_bcast"] = ratio(float64(tr.traceSum.agg[spanSend].selfNs)/1e3, b)
	v["tcpnet.encode_us_per_bcast"] = ratio(float64(tr.encodeNs)/1e3, b)
	v["tcpnet.decode_us_per_bcast"] = ratio(float64(tr.decodeNs)/1e3, b)
	v["tcpnet.dropped"] = float64(tr.dropped)
	late, _ := tailOf(tr.genLate, 0.99)
	v["bench.gen_late_p99_ms"] = nsToMs(late)
	return r, nil
}
