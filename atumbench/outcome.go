package main

import (
	"fmt"
	"path/filepath"
)

// repetitions is how many times a run repeats its workload: set-up, window,
// drain, each time from scratch with the same inputs, so that one disturbed
// repetition cannot move a run. What a run reports of them is in
// endToEndResult. On the simulator the repetitions do identical work, and
// their counts must agree exactly: every untraced run checks that the
// program replays.
const repetitions = 3

// outDir is where traced runs leave their span files (git-ignored).
const outDir = "atumbench/out"

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// outcome is everything one repetition measured, before it is turned into
// metrics. On the simulator workloads every count in it replays exactly for
// equal flags.
type outcome struct {
	setupSec   float64 // wall seconds from nothing to a settled system
	growFailed int

	bcasts     int     // broadcasts attempted
	refused    int     // of those, refused by BroadcastWith
	sent       int64   // node-to-node messages in the window
	bytesSent  int64   // their bytes
	dropped    int64   // messages the network or transport dropped
	deliveries int64   // every Deliver in the window, eligible node or not
	lat        []int64 // publish→deliver ns over eligible (broadcast, node) pairs, in broadcast order
	latOff     []int   // where each broadcast's samples start in lat, plus a closing entry
	latSum     int64   // their sum: a cheap fingerprint of the whole repetition
	pairsGot   int64
	pairsWant  int64
	totals     trackerTotals

	joinLat    []int64 // ns
	joinFailed int
	leaveLat   []int64
	leaveStuck int

	cpuUs      int64   // window CPU, schedule plus drain
	sliceCPU   []int64 // CPU per tenth of the schedule
	sliceDeliv []int64 // deliveries per tenth of the schedule
	rt0, rt1   runtimeSnap
	heapBytes  uint64
	nodesAlive int
	vgroups    int
	vgroupP50  int

	encodeNs, decodeNs int64   // tcp, traced: time inside the wire codec
	genLate            []int64 // tcp: how late each broadcast was issued, ns

	trace    *tracer      // nil unless the repetition was traced
	traceSum traceSummary // the window's share of the trace
}

// collect reads the tracker once the window has drained.
func (o *outcome) collect(tk *tracker, eligible []bool) {
	o.totals = tk.totals()
	o.deliveries = o.totals.delivered
	o.lat, o.latOff, o.pairsGot, o.pairsWant = tk.latencies(eligible)
	for _, l := range o.lat {
		o.latSum += l
	}
	for b := range tk.pubAt {
		if tk.pubAt[b] >= 0 {
			o.bcasts++
		}
		if tk.refused[b] {
			o.refused++
		}
	}
}

// segments cuts the repetition's latencies into the sample sets percentiles
// are taken over: every run of size consecutive broadcasts, starting every
// step broadcasts, each a fresh slice. size 0, or a schedule shorter than
// size, gives the whole repetition as one segment.
func (o *outcome) segments(size, step int) [][]int64 {
	n := len(o.latOff) - 1
	if size <= 0 || size > n {
		return [][]int64{append([]int64(nil), o.lat...)}
	}
	var out [][]int64
	for a := 0; a+size <= n; a += step {
		out = append(out, append([]int64(nil), o.lat[o.latOff[a]:o.latOff[a+size]]...))
	}
	return out
}

// sameCounts reports whether two repetitions agree on every count a
// deterministic program must reproduce.
func (o *outcome) sameCounts(p *outcome) bool {
	return o.sent == p.sent && o.bytesSent == p.bytesSent && o.deliveries == p.deliveries &&
		o.latSum == p.latSum && len(o.joinLat) == len(p.joinLat)
}

func (o *outcome) countsString() string {
	return fmt.Sprintf("sent %d bytes %d deliveries %d latency sum %d joins %d",
		o.sent, o.bytesSent, o.deliveries, o.latSum, len(o.joinLat))
}

// judge adds one repetition's correctness verdict and operation counts to
// r. steady workloads keep membership fixed, so every broadcast must reach
// everyone.
func (o *outcome) judge(steady bool, r *result) {
	fail := func(format string, args ...any) {
		r.correct = false
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
	if o.totals.corrupt > 0 || o.totals.foreign > 0 {
		fail("%d deliveries differ from the published payload, %d are not this run's", o.totals.corrupt, o.totals.foreign)
	}
	if o.totals.duplicate > 0 {
		fail("%d duplicate deliveries", o.totals.duplicate)
	}
	if o.growFailed > 0 {
		fail("%d joins failed while growing the system", o.growFailed)
	}
	if steady && ratio(float64(o.pairsGot), float64(o.pairsWant)) < 0.999 {
		fail("delivery ratio %d/%d below 0.999 on a steady workload", o.pairsGot, o.pairsWant)
	}
	if o.refused > 0 {
		r.notes = append(r.notes, fmt.Sprintf("%d of %d broadcasts refused by BroadcastWith", o.refused, o.bcasts))
	}
	r.attempted += o.pairsWant + int64(len(o.joinLat)+o.joinFailed+len(o.leaveLat)+o.leaveStuck)
	r.failed += (o.pairsWant - o.pairsGot) + int64(o.joinFailed+o.leaveStuck)
}

// reportOpts says how a workload's repetitions are summarised.
type reportOpts struct {
	steady  bool // membership is fixed during the window: delivery must be complete
	replays bool // simulator workload: the repetitions must agree count for count
	// segment and segmentStep cut a repetition's latencies into the sample
	// sets percentiles are taken over (outcome.segments); zero is one set.
	segment, segmentStep int
	// growthJoins: the timed joins are the joins that grew the system from
	// one node, and each takes about twice as long as the one before it
	// (2 ms for the second node, 80 ms for the ninth, on loopback tcp). A
	// nearest-rank median of eight such values sits on the steepest step of
	// the staircase and moved 11–28% between runs; their geometric mean —
	// the median of a log-uniform sample — uses all eight.
	growthJoins bool
}

// endToEndResult turns the repetitions of an untraced run into the
// end-to-end metrics. Counts, sizes, setup_s and deliver_p50_ms are medians
// over the repetitions (over their latency segments for the p50). The other
// three timings — deliver_p99_ms, join_p50_ms, cpu_us_per_delivery — are the
// least of the repetitions (segments): on a real clock a GC pause, a
// scheduler stall or a busy neighbour only ever adds to them, and on this
// class of machine adds up to half, so the quietest repetition is the best
// estimate of the program's own cost. On the simulator every repetition
// gives the same counts and virtual times, and median and least coincide.
func endToEndResult(reps []*outcome, w reportOpts) *result {
	r := &result{correct: true, values: metrics{}}
	var setup, p50, p99, msgs, bytes, join, cpu, heap []float64
	var got, want int64
	tail, samples := 0.0, 0
	for i, o := range reps {
		o.judge(w.steady, r)
		if w.replays && i > 0 && !o.sameCounts(reps[0]) {
			r.correct = false
			r.notes = append(r.notes, fmt.Sprintf("repetition %d did not replay repetition 1: %s / %s",
				i+1, o.countsString(), reps[0].countsString()))
		}
		b := float64(o.bcasts)
		for _, seg := range o.segments(w.segment, w.segmentStep) {
			v50, _ := tailOf(seg, 0.50)
			v99, used := tailOf(seg, 0.99)
			tail, samples = used, len(seg)
			p50 = append(p50, nsToMs(v50))
			p99 = append(p99, nsToMs(v99))
		}
		if w.growthJoins {
			join = append(join, geoMeanMs(o.joinLat))
		} else {
			j50, _ := tailOf(o.joinLat, 0.50)
			join = append(join, nsToMs(j50))
		}
		setup = append(setup, o.setupSec)
		msgs = append(msgs, ratio(float64(o.sent), b))
		bytes = append(bytes, ratio(float64(o.bytesSent), b))
		cpu = append(cpu, ratio(float64(o.cpuUs), float64(o.deliveries)))
		heap = append(heap, ratio(float64(o.heapBytes), float64(o.nodesAlive)))
		got += o.pairsGot
		want += o.pairsWant
	}
	v := r.values
	v["setup_s"] = medianFloat(setup)
	v["deliver_p50_ms"] = medianFloat(p50)
	v["deliver_p99_ms"] = minFloat(p99)
	v["delivery_ratio"] = ratio(float64(got), float64(want))
	v["msgs_per_bcast"] = medianFloat(msgs)
	v["wire_bytes_per_bcast"] = medianFloat(bytes)
	v["join_p50_ms"] = minFloat(join)
	v["cpu_us_per_delivery"] = minFloat(cpu)
	v["heap_bytes_per_node"] = medianFloat(heap)
	r.notes = append(r.notes, fmt.Sprintf(
		"%d repetitions of %d broadcasts; latency percentiles over %d segments of %d samples (tail at p%g); %d joins timed per repetition; cpu per repetition %.1f us",
		len(reps), reps[0].bcasts, len(p50), samples, tail*100, len(reps[0].joinLat), cpu))
	return r
}

// perLayerResult reports the per-layer metrics of a traced repetition o;
// plain is the untraced repetition with the same inputs, which supplies the
// runtime's share and the base of the tracing overhead.
func perLayerResult(workload string, steady bool, o, plain *outcome) *result {
	r := &result{correct: true, values: metrics{}}
	o.judge(steady, r)
	s := o.traceSum
	if names := s.unknownTypes(); len(names) > 0 {
		r.notes = append(r.notes, fmt.Sprintf("message types counted as ctrl because the class switch does not know them: %v", names))
	}
	v := r.values
	b, d := float64(o.bcasts), float64(o.deliveries)
	us := func(k spanKind) float64 { return float64(s.agg[k].selfNs) / 1e3 }
	v["core.recv_smr_us_per_bcast"] = ratio(us(spanRecvSMR), b)
	v["core.recv_group_us_per_bcast"] = ratio(us(spanRecvGroup), b)
	v["core.recv_other_us_per_bcast"] = ratio(us(spanRecvOther), b)
	v["core.timer_us_per_bcast"] = ratio(us(spanTimer), b)
	v["core.bcast_call_us"] = ratio(float64(s.agg[spanPublish].totalNs)/1e3, float64(s.agg[spanPublish].count))
	v["core.callbacks_per_bcast"] = ratio(float64(s.callbacks), b)
	v["net.smr_msgs_per_bcast"] = ratio(float64(s.sent[classSMR].msgs), b)
	v["net.group_msgs_per_bcast"] = ratio(float64(s.sent[classGroup].msgs), b)
	v["net.ctrl_msgs_per_bcast"] = ratio(float64(s.sent[classCtrl].msgs), b)
	v["net.smr_bytes_per_bcast"] = ratio(float64(s.sent[classSMR].bytes), b)
	v["net.group_bytes_per_bcast"] = ratio(float64(s.sent[classGroup].bytes), b)
	v["net.group_msgs_per_delivery"] = ratio(float64(s.sent[classGroup].msgs), d)
	v["net.dropped_msgs"] = float64(o.dropped)
	v["egress.items_per_carrier"] = ratio(float64(s.carrierItems), float64(s.carriers))

	jp99, _ := tailOf(o.joinLat, 0.99)
	lp50, _ := tailOf(o.leaveLat, 0.50)
	v["core.joins_ok"] = float64(len(o.joinLat))
	v["core.joins_failed"] = float64(o.joinFailed)
	v["core.join_p99_ms"] = nsToMs(jp99)
	v["core.leave_p50_ms"] = nsToMs(lp50)
	v["core.vgroups_end"] = float64(o.vgroups)
	v["core.vgroup_size_p50"] = float64(o.vgroupP50)

	pd := float64(plain.deliveries)
	v["runtime.allocs_per_delivery"] = ratio(float64(plain.rt1.mallocs-plain.rt0.mallocs), pd)
	v["runtime.alloc_bytes_per_delivery"] = ratio(float64(plain.rt1.allocBytes-plain.rt0.allocBytes), pd)
	v["runtime.gc_cpu_share"] = ratio((plain.rt1.gcCPUSec-plain.rt0.gcCPUSec)*1e6, float64(plain.cpuUs))
	// CPU per delivery in the last fifth of the schedule over the first
	// fifth: above 1 means the system slows down as it accumulates state.
	if n := len(plain.sliceCPU); n >= 10 {
		first := ratio(float64(plain.sliceCPU[0]+plain.sliceCPU[1]), float64(plain.sliceDeliv[0]+plain.sliceDeliv[1]))
		last := ratio(float64(plain.sliceCPU[n-2]+plain.sliceCPU[n-1]), float64(plain.sliceDeliv[n-2]+plain.sliceDeliv[n-1]))
		v["runtime.cpu_drift_ratio"] = ratio(last, first)
	}
	perDelivery, plainPerDelivery := ratio(float64(o.cpuUs), d), ratio(float64(plain.cpuUs), pd)
	v["bench.trace_overhead_share"] = ratio(perDelivery-plainPerDelivery, plainPerDelivery)

	if err := o.trace.writeFile(filepath.Join(outDir, "trace_"+workload+".json"), workload, s); err != nil {
		r.notes = append(r.notes, "trace file not written: "+err.Error())
	}
	for name, val := range layerTimings() {
		v[name] = val
	}
	return r
}

// simEndToEnd runs a simulator workload's repetitions untraced.
func simEndToEnd(spec simSpec, seed int64, seconds int) (*result, error) {
	var reps []*outcome
	for i := 0; i < repetitions; i++ {
		o, err := runSim(spec, seed, seconds, false)
		if err != nil {
			return nil, err
		}
		reps = append(reps, o)
	}
	return endToEndResult(reps, reportOpts{steady: spec.steady, replays: true}), nil
}

// simTraced runs one repetition twice with one seed — untraced, then with
// the node and Env wrappers in place — and reports the per-layer metrics.
// The wrappers must not change what the program does: the two runs have to
// agree on every count.
func simTraced(spec simSpec, seed int64, seconds int) (*result, error) {
	plain, err := runSim(spec, seed, seconds, false)
	if err != nil {
		return nil, err
	}
	traced, err := runSim(spec, seed, seconds, true)
	if err != nil {
		return nil, err
	}
	r := perLayerResult(spec.name, spec.steady, traced, plain)
	if !traced.sameCounts(plain) {
		r.correct = false
		r.notes = append(r.notes, fmt.Sprintf("the traced repetition diverged from the untraced one: %s / %s",
			traced.countsString(), plain.countsString()))
	}
	s := traced.traceSum
	b := float64(traced.bcasts)
	// What the window's CPU time leaves once every node callback and the
	// harness's own publish calls are taken out is the simulator's event loop.
	spans := s.agg[spanRecvSMR].totalNs + s.agg[spanRecvGroup].totalNs + s.agg[spanRecvOther].totalNs +
		s.agg[spanTimer].totalNs + s.agg[spanPublish].totalNs
	r.values["simnet.send_us_per_bcast"] = ratio(float64(s.agg[spanSend].selfNs)/1e3, b)
	r.values["simnet.loop_us_per_bcast"] = ratio(float64(traced.cpuUs)-float64(spans)/1e3, b)
	return r, nil
}
