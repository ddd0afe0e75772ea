package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"atum"
)

// The percentile rule: a timing is reported at the highest percentile that
// still has ten samples beyond it.
func TestSupportedTail(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0.50}, {19, 0.50}, {20, 0.50}, {99, 0.50},
		{100, 0.90}, {999, 0.90}, {1000, 0.99}, {250000, 0.99},
	}
	for _, c := range cases {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}

	samples := make([]int64, 1000)
	for i := range samples {
		samples[i] = int64(1000 - i) // 1..1000, unsorted
	}
	if v, p := tailOf(samples, 0.99); v != 990 || p != 0.99 {
		t.Errorf("p99 of 1..1000 = %d at p%v, want 990 at p0.99", v, p)
	}
	if v, p := tailOf(samples[:100], 0.99); v != 90 || p != 0.90 {
		t.Errorf("tail of 100 samples = %d at p%v, want the p90 value 90", v, p)
	}
	if v := percentile(nil, 0.5); v != 0 {
		t.Errorf("percentile of nothing = %d", v)
	}
}

// smallSteady is sync_steady scaled down for tier-1: 32 nodes, 40
// broadcasts.
var smallSteady = simSpec{
	name: "sync_steady", nodes: 32, payload: 64, drain: 5 * time.Second, steady: true,
	plan: func(nodes, seconds int, rng *rand.Rand) plan {
		p := planSyncSteady(nodes, seconds, rng)
		p.actions = p.actions[:40]
		p.bcasts = 40
		p.span = 5 * roundDuration
		return p
	},
}

// Two runs with one seed must agree on every counter, a traced run must
// agree with them (the wrappers change nothing the program does), and the
// message-class switch must know every type the wrappers saw, from the
// first join of growth to the last heartbeat of the drain.
func TestScaledSteadyReplaysAndClassifies(t *testing.T) {
	first, err := runSim(smallSteady, 7, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	second, err := runSim(smallSteady, 7, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runSim(smallSteady, 7, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if first.bcasts != 40 || first.deliveries != 40*32 || first.pairsGot != first.pairsWant {
		t.Fatalf("expected 40 broadcasts delivered at all 32 nodes, got %d broadcasts, %d deliveries, %d/%d pairs",
			first.bcasts, first.deliveries, first.pairsGot, first.pairsWant)
	}
	if len(first.joinLat) != steadyJoins || first.joinFailed != 0 {
		t.Fatalf("join phase: %d joined, %d failed", len(first.joinLat), first.joinFailed)
	}
	if !second.sameCounts(first) {
		t.Errorf("second run did not replay the first:\n%s\n%s", second.countsString(), first.countsString())
	}
	if !traced.sameCounts(first) {
		t.Errorf("traced run diverged from the untraced one:\n%s\n%s", traced.countsString(), first.countsString())
	}

	// The tracer has been counting since the first node started, growth
	// included, so this covers the join handshake's message types too.
	all := traced.trace.summary()
	if unknown := all.unknownTypes(); len(unknown) > 0 {
		t.Errorf("classify does not know these node-level message types: %v", unknown)
	}
	for c := msgClass(0); c < numClasses; c++ {
		if all.sent[c].msgs == 0 {
			t.Errorf("no %s message seen: the class switch is not exercised", classNames[c])
		}
	}
	win := traced.traceSum
	if got := win.sent[classSMR].msgs + win.sent[classGroup].msgs + win.sent[classCtrl].msgs; got != traced.sent {
		t.Errorf("wrappers counted %d sends in the window, the simulator %d", got, traced.sent)
	}
	if win.agg[spanPublish].count != 40 || win.agg[spanDeliver].count != 40*32 {
		t.Errorf("spans: %d publish, %d deliver", win.agg[spanPublish].count, win.agg[spanDeliver].count)
	}
	if win.carriers == 0 || win.carrierItems < win.carriers {
		t.Errorf("no batch carriers recognised among %d group messages", win.sent[classGroup].msgs)
	}

	r := endToEndResult([]*outcome{first, second}, reportOpts{steady: true, replays: true})
	if !r.correct || r.failed != 0 {
		t.Errorf("result not correct: %v", r.notes)
	}
	for _, d := range endToEnd {
		if r.values[d.name] <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", d.name, r.values[d.name])
		}
	}
}

// One traced second of tcp_loopback: the wrappers must carry the real-time
// path too — a traced Env that did not forward actor.AddrBook would leave
// the transports without addresses and no join would complete.
func TestTCPLoopbackTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("grows a 9-node system over loopback TCP (about 5 s)")
	}
	o, err := runTCP(3, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if o.bcasts != tcpPerSecond || o.deliveries != int64(tcpPerSecond*tcpNodes) || o.pairsGot != o.pairsWant {
		t.Errorf("%d broadcasts, %d deliveries, %d/%d pairs", o.bcasts, o.deliveries, o.pairsGot, o.pairsWant)
	}
	if o.totals.duplicate+o.totals.corrupt+o.totals.foreign != 0 {
		t.Errorf("bad deliveries: %+v", o.totals)
	}
	if len(o.joinLat) != tcpNodes-1 || o.vgroups != 2 {
		t.Errorf("%d joins timed, %d vgroups; want %d and 2", len(o.joinLat), o.vgroups, tcpNodes-1)
	}
	if unknown := o.trace.summary().unknownTypes(); len(unknown) > 0 {
		t.Errorf("classify does not know these node-level message types: %v", unknown)
	}
	if o.sent == 0 || o.bytesSent == 0 || o.encodeNs == 0 || o.decodeNs == 0 {
		t.Errorf("transport counters: sent %d bytes %d encode %d ns decode %d ns", o.sent, o.bytesSent, o.encodeNs, o.decodeNs)
	}
}

// A delivery that is wrong in any way must fail the run.
func TestTrackerCatchesBadDeliveries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	payloads := makePayloads(rng, 42, 3, 64)
	tk := newTracker(42, payloads, 2)
	deliver := func(node int, data []byte) {
		tk.deliver(node, atum.Delivery{Data: data}, 1000)
	}
	deliver(0, payloads[1])
	deliver(0, payloads[1]) // twice at one node
	corrupt := append([]byte(nil), payloads[2]...)
	corrupt[40] ^= 1
	deliver(1, corrupt)
	deliver(1, []byte("not a benchmark payload"))
	got := tk.totals()
	want := trackerTotals{delivered: 1, duplicate: 1, corrupt: 1, foreign: 1}
	if got != want {
		t.Errorf("totals = %+v, want %+v", got, want)
	}
	o := &outcome{}
	o.collect(tk, []bool{true, true})
	r := &result{correct: true}
	o.judge(false, r)
	if r.correct {
		t.Error("a run with duplicate, corrupt and foreign deliveries was judged correct")
	}
}

// BENCHMARK.json is the contract the driver reads; the tables in metrics.go
// are what the program prints. They must name the same things.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "atumbench" {
		t.Errorf("paths = %v, want [atumbench]", doc.Paths)
	}
	listed := map[string]bool{}
	for _, w := range doc.Workloads {
		listed[w.Name] = true
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
		if w.Why == "" {
			t.Errorf("workload %q has no why", w.Name)
		}
	}
	// tcp_loopback runs on a real clock and is not under the contract
	// (README.md); every simulator workload is.
	for _, spec := range simSpecs {
		if !listed[spec.name] {
			t.Errorf("BENCHMARK.json does not list %s", spec.name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end has %d metrics, the program %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		m := doc.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit {
			t.Errorf("end_to_end[%d] = %s (%s), the program prints %s (%s)", i, m.Name, m.Unit, d.name, d.unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer has %d metrics, the program %d", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if m := doc.PerLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per_layer[%d] = %s (%s), the program prints %s (%s)", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
}

// Every micro-timing must produce a number: a layer whose exported surface
// moved shows up here, in tier-1, not in the next benchmark run.
func TestLayerTimingsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("a few seconds of micro-timings")
	}
	v := layerTimings()
	var missing []string
	for _, d := range microLayer {
		val, ok := v[d.name]
		// An allocation count may honestly be zero; a time or a size may not.
		if !ok || (val <= 0 && !strings.HasSuffix(d.name, "_allocs")) {
			missing = append(missing, d.name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("micro-timings without a value: %v", missing)
	}
	if len(v) != len(microLayer) {
		t.Errorf("layerTimings returned %d metrics, metrics.go lists %d", len(v), len(microLayer))
	}
}
