package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one metric and its unit. The two tables below are the
// single source of the names BENCHMARK.json lists; TestBenchmarkJSONAgrees
// keeps the file and the tables in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them from its untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"deliver_p50_ms", "ms"},
	{"deliver_p99_ms", "ms"},
	{"delivery_ratio", "share"},
	{"msgs_per_bcast", "count"},
	{"wire_bytes_per_bcast", "bytes"},
	{"join_p50_ms", "ms"},
	{"cpu_us_per_delivery", "us"},
	{"heap_bytes_per_node", "bytes"},
}

// tracedLayer are the single-layer metrics (layer = package name) that come
// from the traced repetition of a workload. A metric that does not apply to
// a workload (tcpnet.* on a simulator run) reads 0.
var tracedLayer = []metricDef{
	{"core.recv_smr_us_per_bcast", "us"},
	{"core.recv_group_us_per_bcast", "us"},
	{"core.recv_other_us_per_bcast", "us"},
	{"core.timer_us_per_bcast", "us"},
	{"core.bcast_call_us", "us"},
	{"core.callbacks_per_bcast", "count"},
	{"simnet.send_us_per_bcast", "us"},
	{"simnet.loop_us_per_bcast", "us"},
	{"rtnet.send_us_per_bcast", "us"},
	{"net.smr_msgs_per_bcast", "count"},
	{"net.group_msgs_per_bcast", "count"},
	{"net.ctrl_msgs_per_bcast", "count"},
	{"net.smr_bytes_per_bcast", "bytes"},
	{"net.group_bytes_per_bcast", "bytes"},
	{"net.group_msgs_per_delivery", "count"},
	{"net.dropped_msgs", "count"},
	{"egress.items_per_carrier", "count"},
	{"core.joins_ok", "count"},
	{"core.joins_failed", "count"},
	{"core.join_p99_ms", "ms"},
	{"core.leave_p50_ms", "ms"},
	{"core.vgroups_end", "count"},
	{"core.vgroup_size_p50", "count"},
	{"runtime.allocs_per_delivery", "count"},
	{"runtime.alloc_bytes_per_delivery", "bytes"},
	{"runtime.gc_cpu_share", "share"},
	{"runtime.cpu_drift_ratio", "ratio"},
	{"tcpnet.encode_us_per_bcast", "us"},
	{"tcpnet.decode_us_per_bcast", "us"},
	{"tcpnet.dropped", "count"},
	{"bench.gen_late_p99_ms", "ms"},
	{"bench.trace_overhead_share", "share"},
}

// microLayer are the single-layer metrics that come from micro-timings of
// exported functions on fixed inputs (layers.go); -layers prints them alone.
var microLayer = []metricDef{
	{"crypto.sign_ns", "ns"},
	{"crypto.verify_ns", "ns"},
	{"crypto.hash_ns", "ns"},
	{"overlay.verify_chain_us", "us"},
	{"wire.groupmsg_encode_ns", "ns"},
	{"wire.groupmsg_encode_allocs", "count"},
	{"wire.groupmsg_decode_ns", "ns"},
	{"wire.groupmsg_decode_allocs", "count"},
	{"group.batch_pack_ns", "ns"},
	{"group.batch_pack_allocs", "count"},
	{"group.batch_unpack_ns", "ns"},
	{"group.batch_unpack_allocs", "count"},
	{"group.batch_frame_bytes", "bytes"},
	{"group.inbox_observe_ns", "ns"},
	{"group.inbox_observe_allocs", "count"},
	{"egress.enqueue_flush_ns", "ns"},
	{"egress.enqueue_flush_allocs", "count"},
	{"smr.dolev_slot_us", "us"},
	{"smr.dolev_slot_msgs", "count"},
	{"smr.pbft_slot_us", "us"},
	{"smr.pbft_slot_msgs", "count"},
	{"simnet.event_ns", "ns"},
	{"simnet.event_allocs", "count"},
	{"simnet.send_ns", "ns"},
	{"rtnet.deliver_ns", "ns"},
	{"tcpnet.roundtrip_us", "us"},
}

// perLayer is what -trace 1 prints, in BENCHMARK.json's order.
var perLayer = append(append([]metricDef(nil), tracedLayer...), microLayer...)

// metrics maps a metric name to its measured value.
type metrics map[string]float64

// tailLadder are the percentiles a timing may be reported at.
var tailLadder = []float64{0.50, 0.90, 0.99}

// supportedTail returns the highest percentile of tailLadder that leaves at
// least ten of n samples beyond it (choosing-metrics §1), or 0.50 when even
// the median has fewer.
func supportedTail(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		// n*(1-p) >= 10, in whole per-mille so that 100 samples at p90
		// count as exactly ten beyond.
		if n*(1000-int(math.Round(p*1000))) >= 10*1000 {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank p-quantile of sorted (ascending), or
// 0 for an empty slice.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted))-1e-9)) - 1 // 0.9*100 is 90.00000000000001
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailOf sorts samples in place and returns the value at min(want,
// supportedTail(len)) together with the percentile actually used.
func tailOf(samples []int64, want float64) (int64, float64) {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	p := math.Min(want, supportedTail(len(samples)))
	return percentile(samples, p), p
}

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func minFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := v[0]
	for _, x := range v[1:] {
		m = math.Min(m, x)
	}
	return m
}

// geoMeanMs returns the geometric mean, in ms, of positive durations in ns.
func geoMeanMs(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range ns {
		sum += math.Log(math.Max(float64(v), 1))
	}
	return math.Exp(sum/float64(len(ns))) / 1e6
}

// nsToMs converts nanoseconds to milliseconds.
func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }

// result is what one benchmark run reports.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	values    metrics
	notes     []string // correctness failures and remarks, for the human
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints every metric of defs by name and unit, then the one-line JSON
// object the driver reads, which must stay the last line of stdout.
func (r *result) emit(w io.Writer, defs []metricDef) error {
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		fmt.Fprintf(w, "%-34s %18.6f %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	fmt.Fprintf(w, "ops_attempted %d ops_failed %d correct %v\n", r.attempted, r.failed, r.correct)
	for _, n := range r.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
