// Package experiment regenerates every table and figure of the paper's
// evaluation (§6) on the discrete-event simulator. Each Fig* function runs
// one experiment at a configurable scale and returns a printable table;
// cmd/atum-bench drives them at paper scale, bench_test.go at smoke scale.
// Two scenarios of the repository's own ride along: the churn storm
// (StormRun) and the slow-consumer backpressure comparison.
//
// Every simulated scenario runs on one harness, cluster (cluster.go): it adds
// nodes, optionally running an ashare or astream service, grows them into a
// system one join at a time (grow) or in waves (growInWaves), and records
// each delivery, raw message and given-up join. Shuffling is off unless a
// scenario turns it on; only Fig 13, which counts exchanges, does.
//
// Absolute numbers differ from the paper's EC2 testbed; the shapes —
// exponential growth, bounded Sync latency vs low-median Async latency,
// no decay under Byzantine faults, parallel-GET gains, suppression under
// aggressive growth — are the reproduction targets (see README.md).
package experiment

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"atum"
	"atum/ashare"
	"atum/astream"
	"atum/internal/overlay"
	"atum/internal/simnet"
	"atum/internal/smr"
	"atum/internal/stats"
)

// Table is a printable experiment result.
type Table struct {
	Title   string
	Header  []string
	Rows    [][]string
	Remarks []string
}

// String renders the table.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	fmt.Fprintf(&b, "%s\n", strings.Join(t.Header, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%s\n", strings.Join(r, "\t"))
	}
	for _, r := range t.Remarks {
		fmt.Fprintf(&b, "# %s\n", r)
	}
	return b.String()
}

// Table1 prints the system parameters (paper Table 1).
func Table1() Table {
	return Table{
		Title:  "Table 1: System parameters",
		Header: []string{"param", "description", "typical"},
		Rows: [][]string{
			{"hc", "number of H-graph cycles", "2..12"},
			{"rwl", "length of random walks", "4..15"},
			{"gmax", "maximum vgroup size", "8, 14, 20, ..."},
			{"gmin", "minimum vgroup size", "0.5*gmax"},
			{"k", "robustness parameter (g = k*log N)", "3..7"},
		},
	}
}

// Fig4 regenerates the configuration guideline: for each number of vgroups
// and each hc, the minimal rwl whose endpoint distribution passes Pearson's
// χ² uniformity test at confidence 0.99 (averaged over trials).
func Fig4(vgroupCounts []int, hcs []int, walksPerVertex int, seed int64) Table {
	t := Table{
		Title:  "Fig 4: optimal rwl per (#vgroups, hc), chi^2 @ 0.99",
		Header: []string{"#vgroups"},
	}
	for _, hc := range hcs {
		t.Header = append(t.Header, fmt.Sprintf("hc=%d", hc))
	}
	rng := rand.New(rand.NewSource(seed))
	for _, v := range vgroupCounts {
		row := []string{fmt.Sprintf("%d", v)}
		for _, hc := range hcs {
			row = append(row, fmt.Sprintf("%d", minUniformRWL(v, hc, walksPerVertex, rng)))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Remarks = append(t.Remarks,
		"rwl decreases with hc and grows ~log(#vgroups), matching the paper's guideline")
	return t
}

func minUniformRWL(v, hc, walksPerVertex int, rng *rand.Rand) int {
	g := overlay.NewGraph(v, hc, rng)
	samples := walksPerVertex * v
	for rwl := 2; rwl <= 24; rwl++ {
		counts := make([]int, v)
		start := rng.Intn(v)
		for i := 0; i < samples; i++ {
			counts[g.Walk(start, rwl, rng)]++
		}
		if stats.UniformAtConfidence(counts, 0.99) {
			return rwl
		}
	}
	return 24
}

// Fig6 regenerates the growth-speed experiment: nodes join continuously;
// the table reports system size over virtual time (exponential shape).
func Fig6(mode smr.Mode, target int, seed int64) Table {
	cl := newCluster(mode, seed, nil, nil)
	t := Table{
		Title:  fmt.Sprintf("Fig 6: growth to %d nodes (%v)", target, mode),
		Header: []string{"virtual_seconds", "members"},
	}
	record := func() {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f", cl.c.Now().Seconds()),
			fmt.Sprintf("%d", len(cl.members())),
		})
	}
	// Arrival rate proportional to current size (paper: the bigger the
	// system, the faster it absorbs joiners), up to 2*target nodes.
	err := cl.growInWaves(target, 2*target, 5*time.Second, 30*time.Minute,
		func(members int) int { return members/4 + 1 }, record)
	if err != nil {
		t.Remarks = append(t.Remarks, "bootstrap failed: "+err.Error())
		return t
	}
	t.Remarks = append(t.Remarks, "growth accelerates with system size (exponential shape)",
		fmt.Sprintf("%d of %d joiners gave up", cl.gaveUp, len(cl.nodes)-1))
	return t
}

// Fig7 regenerates churn tolerance: for each system size, the maximum
// sustained re-join rate (churners per minute) that keeps ≥90% membership.
func Fig7(mode smr.Mode, sizes []int, seed int64) Table {
	t := Table{
		Title:  fmt.Sprintf("Fig 7: max sustained churn (%v)", mode),
		Header: []string{"N", "max_rejoins_per_min", "pct_of_N"},
	}
	for _, n := range sizes {
		rate := maxChurnRate(mode, n, seed)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", rate),
			fmt.Sprintf("%.0f%%", 100*float64(rate)/float64(n)),
		})
	}
	t.Remarks = append(t.Remarks, "paper: ~18%/min (Sync), ~22.5%/min (Async) at N=800")
	return t
}

func maxChurnRate(mode smr.Mode, n int, seed int64) int {
	best := 0
	for _, perMin := range []int{n / 8, n / 5, n / 4, n / 3} {
		if perMin < 1 {
			continue
		}
		if churnSustained(mode, n, perMin, seed) {
			best = perMin
		} else {
			break
		}
	}
	return best
}

// churnSustained drives leave+rejoin churn for several virtual minutes.
func churnSustained(mode smr.Mode, n, perMin int, seed int64) bool {
	cl := newCluster(mode, seed, nil, nil)
	if err := cl.grow(n, time.Minute, nil); err != nil {
		return false
	}
	contact := cl.nodes[0].Identity()
	rng := rand.New(rand.NewSource(seed + 7))
	interval := time.Minute / time.Duration(perMin)
	deadline := cl.c.Now() + 3*time.Minute
	for cl.c.Now() < deadline {
		// Pick a random member (never the contact) and churn it.
		idx := 1 + rng.Intn(len(cl.nodes)-1)
		victim := cl.nodes[idx]
		if victim.IsMember() {
			_ = victim.Leave()
		} else {
			_ = victim.Join(contact)
		}
		cl.c.Run(interval)
	}
	cl.c.Run(time.Minute) // settle
	return len(cl.members()) >= n*8/10
}

// Fig8 regenerates group communication latency — percentiles of the paper's
// CDFs — for Atum (optionally with Byzantine members), plus the S.Gossip
// and S.SMR baselines.
func Fig8(mode smr.Mode, n, byzantine, broadcasts int, roundDur time.Duration, seed int64) Table {
	cl := newCluster(mode, seed, nil, func(cfg *atum.Config) {
		cfg.RoundDuration = roundDur
		cfg.EvictAfter = time.Hour // latency experiment: keep membership fixed
	})
	title := fmt.Sprintf("Fig 8: broadcast latency, N=%d (%v)", n, mode)
	if byzantine > 0 {
		title += fmt.Sprintf(" + %d byzantine", byzantine)
	}
	t := Table{Title: title, Header: []string{"metric", "seconds"}}
	if err := cl.grow(n, time.Minute, nil); err != nil {
		t.Remarks = append(t.Remarks, "growth failed: "+err.Error())
		return t
	}
	// Flip the requested number of members to Byzantine behaviour in place.
	behavior := atum.BehaviorHeartbeatOnly
	if mode == smr.ModeAsync {
		behavior = atum.BehaviorSilent
	}
	byz := min(byzantine, len(cl.nodes))
	for _, node := range cl.nodes[len(cl.nodes)-byz:] {
		node.Inner().SetBehavior(behavior)
	}
	cl.c.Run(5 * time.Second)

	rng := rand.New(rand.NewSource(seed + 3))
	var lats stats.Durations
	for b := 0; b < broadcasts; b++ {
		origin := cl.nodes[rng.Intn(len(cl.nodes)-byz)]
		if !origin.IsMember() {
			continue
		}
		payload := fmt.Sprintf("bcast-%d-%s", b, randText(rng, 10+rng.Intn(90)))
		sent := cl.c.Now()
		if err := origin.BroadcastWith([]byte(payload), atum.BroadcastOpts{}); err != nil {
			continue
		}
		cl.c.Run(20 * roundDur)
		for _, node := range cl.members() {
			if at, ok := cl.deliverAt[delivery{node.Identity().ID, payload}]; ok {
				lats = append(lats, at-sent)
			}
		}
	}
	if len(lats) == 0 {
		t.Remarks = append(t.Remarks, "no deliveries recorded")
		return t
	}
	t.Rows = append(t.Rows,
		[]string{"p50", fmt.Sprintf("%.2f", lats.Percentile(50).Seconds())},
		[]string{"p90", fmt.Sprintf("%.2f", lats.Percentile(90).Seconds())},
		[]string{"p99", fmt.Sprintf("%.2f", lats.Percentile(99).Seconds())},
		[]string{"max", fmt.Sprintf("%.2f", lats.Max().Seconds())},
	)
	// Baselines.
	g := gossipBaseline(n, 8, roundDur, seed)
	t.Rows = append(t.Rows, []string{"S.Gossip p99", fmt.Sprintf("%.2f", g.Percentile(99).Seconds())})
	f := (n + byzantine - 1) / 2
	if byzantine > 0 {
		f = byzantine
	}
	t.Rows = append(t.Rows, []string{"S.SMR (f+1 rounds)",
		fmt.Sprintf("%.2f", (time.Duration(f+1) * roundDur).Seconds())})
	t.Remarks = append(t.Remarks,
		"Sync upper-bounded by a few rounds; Byzantine members cause no decay; S.SMR = (f+1)*round")
	return t
}

func randText(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// gossipBaseline simulates the classic round-based crash-tolerant gossip
// protocol with a global membership view (paper §6.1.3): per-node delivery
// latency = round reached × round duration.
func gossipBaseline(n, fanout int, roundDur time.Duration, seed int64) stats.Durations {
	rng := rand.New(rand.NewSource(seed))
	infected := make([]bool, n)
	infected[0] = true
	reachedAt := make([]int, n)
	count := 1
	for round := 1; count < n && round < 1000; round++ {
		next := append([]bool(nil), infected...)
		for i := 0; i < n; i++ {
			if !infected[i] {
				continue
			}
			for k := 0; k < fanout; k++ {
				j := rng.Intn(n)
				if !next[j] {
					next[j] = true
					reachedAt[j] = round
					count++
				}
			}
		}
		infected = next
	}
	var out stats.Durations
	for _, r := range reachedAt[1:] {
		out = append(out, time.Duration(r)*roundDur)
	}
	return out
}

// Fig9 regenerates AShare read performance (latency per MB) against the
// NFS-like single-server baseline, across file sizes.
func Fig9(fileSizesMB []int, seed int64) Table {
	t := Table{
		Title:  "Fig 9: AShare GET latency per MB vs file size",
		Header: []string{"size_MB", "nfs4_s_per_MB", "ashare_simple", "ashare_parallel"},
	}
	for _, mb := range fileSizesMB {
		// The NFS4 baseline: a client reads the whole file from one server
		// as a single sequential chunked stream over the same network.
		nfs := readLatency(mb, 1, 1, 0, true, seed)
		simple := readLatency(mb, 1, 1, 0, false, seed)
		parallel := readLatency(mb, 10, 2, 0, false, seed)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", mb),
			fmt.Sprintf("%.3f", nfs.Seconds()/float64(mb)),
			fmt.Sprintf("%.3f", simple.Seconds()/float64(mb)),
			fmt.Sprintf("%.3f", parallel.Seconds()/float64(mb)),
		})
	}
	t.Remarks = append(t.Remarks,
		"normalized latency falls with size (handshake amortization); parallel beats NFS for large files")
	return t
}

// bandwidthNet returns a simnet config with the Fig 9-12 bandwidth model
// (~100 MB/s NICs, LAN latency).
func bandwidthNet(seed int64) *simnet.Config {
	return &simnet.Config{
		Seed:          seed,
		Latency:       simnet.UniformLatency(500*time.Microsecond, 2*time.Millisecond),
		BandwidthUp:   100 << 20,
		BandwidthDown: 100 << 20,
	}
}

// readLatency measures one AShare GET of a sizeMB file by the first of
// replicas+1 nodes with the bandwidth model. chunks and replicas
// parameterize the transfer; corrupt counts Byzantine replicas (none when
// nfs is set).
func readLatency(sizeMB, chunks, replicas, corrupt int, nfs bool, seed int64) time.Duration {
	nodes := replicas + 1
	cl := newCluster(smr.ModeSync, seed, bandwidthNet(seed), func(cfg *atum.Config) {
		cfg.Params = atum.Params{HC: 2, RWL: 2, GMax: nodes + 2, GMin: 1}
	})
	var svcs []*ashare.Service
	err := cl.grow(nodes, time.Minute, func(i int) app {
		svcs = append(svcs, ashare.New(ashare.Options{
			Rho: replicas, SystemSize: nodes, Corrupt: !nfs && corrupt > 0 && i >= nodes-corrupt,
			ChunkSize:     sizeMB << 20 / max(1, chunks),
			ParallelPulls: max(1, chunks),
		}))
		return svcs[i]
	})
	if err != nil {
		return 0
	}
	// Install the file on the replica holders directly (experiment setup).
	content := make([]byte, sizeMB<<20)
	chunkSize := len(content) / max(1, chunks)
	if chunkSize == 0 {
		chunkSize = len(content)
	}
	meta := ashare.BuildMeta(cl.nodes[1].Identity().ID, "file", content, chunkSize)
	svcs[0].Index().Put(meta)
	for i := 1; i < nodes; i++ {
		svcs[i].HoldReplica(meta, content)
		svcs[0].Index().AddReplica(meta.Key, cl.nodes[i].Identity().ID)
	}
	start := cl.c.Now()
	var doneAt time.Duration
	svcs[0].Get(meta.Key, func(_ []byte, _ int, err error) {
		if err == nil {
			doneAt = cl.c.Now()
		}
	})
	if !cl.c.RunUntil(func() bool { return doneAt > 0 }, 10*time.Minute) {
		return 0
	}
	return doneAt - start
}

// Fig10 regenerates the Byzantine-replica read-latency experiment: latency
// per MB as a function of replica count, all-correct vs corrupt replicas.
func Fig10(sizeMB int, replicaCounts []int, corrupt int, seed int64) Table {
	t := Table{
		Title:  fmt.Sprintf("Fig 10/11: read latency vs replicas (%d corrupt)", corrupt),
		Header: []string{"replicas", "all_correct_s_per_MB", "with_corrupt_s_per_MB"},
	}
	for _, r := range replicaCounts {
		ok := readLatency(sizeMB, 10, r, 0, false, seed)
		bad := readLatency(sizeMB, 10, r, min(corrupt, r-1), false, seed)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r),
			fmt.Sprintf("%.3f", ok.Seconds()/float64(sizeMB)),
			fmt.Sprintf("%.3f", bad.Seconds()/float64(sizeMB)),
		})
	}
	t.Remarks = append(t.Remarks,
		"corrupt replicas inflate latency (re-pulls); penalty shrinks as replicas approach chunk count")
	return t
}

// Fig12 regenerates AStream tier-2 latency under Single vs Double cycle
// digest dissemination.
func Fig12(n int, chunks int, seed int64) Table {
	t := Table{
		Title:  fmt.Sprintf("Fig 12: AStream latency, N=%d", n),
		Header: []string{"mode", "tier2_ms", "digest_s"},
	}
	for _, mode := range []astream.CycleMode{astream.Single, astream.Double} {
		tier2, digest := streamRun(n, chunks, mode, seed)
		t.Rows = append(t.Rows, []string{
			mode.String(),
			fmt.Sprintf("%.0f", float64(tier2.Milliseconds())),
			fmt.Sprintf("%.2f", digest.Seconds()),
		})
	}
	t.Remarks = append(t.Remarks, "double-cycle digests cut dissemination latency; tier 2 adds little")
	return t
}

func streamRun(n, chunks int, mode astream.CycleMode, seed int64) (tier2 time.Duration, digest time.Duration) {
	cl := newCluster(smr.ModeSync, seed, bandwidthNet(seed), func(cfg *atum.Config) {
		cfg.Params = atum.Params{HC: 3, RWL: 3, GMax: 8, GMin: 4}
	})
	var svcs []*astream.Service
	err := cl.grow(n, time.Minute, func(i int) app {
		svcs = append(svcs, astream.New(astream.Options{Mode: mode}))
		return svcs[i]
	})
	if err != nil {
		return 0, 0
	}
	// 1 MB/s stream: one 100 KiB chunk every 100 ms.
	payload := make([]byte, 100<<10)
	sentAt := make(map[uint64]time.Duration)
	for seq := uint64(1); seq <= uint64(chunks); seq++ {
		sentAt[seq] = cl.c.Now()
		_ = svcs[0].Publish(seq, payload)
		cl.c.Run(100 * time.Millisecond)
	}
	cl.c.Run(30 * time.Second)
	var t2s, digs stats.Durations
	for seq := uint64(1); seq <= uint64(chunks); seq++ {
		for _, svc := range svcs[1:] {
			if lat, ok := svc.TierTwoLatency(seq); ok {
				t2s = append(t2s, lat)
			}
			if at, ok := svc.DigestLatencyOf(seq); ok {
				digs = append(digs, at-sentAt[seq])
			}
		}
	}
	return t2s.Mean(), digs.Mean()
}

// Fig13 regenerates exchange suppression under aggressive growth: the
// fraction of completed (vs suppressed) shuffle exchanges at increasing
// join rates.
func Fig13(target int, ratesPctPerMin []int, seed int64) Table {
	t := Table{
		Title:  fmt.Sprintf("Fig 13: exchange completion while growing to N=%d", target),
		Header: []string{"join_rate_pct_per_min", "completed", "suppressed", "completion_rate"},
	}
	for _, rate := range ratesPctPerMin {
		comp, supp := growthExchanges(target, rate, seed)
		total := comp + supp
		frac := 1.0
		if total > 0 {
			frac = float64(comp) / float64(total)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d%%", rate),
			fmt.Sprintf("%d", comp),
			fmt.Sprintf("%d", supp),
			fmt.Sprintf("%.2f", frac),
		})
	}
	t.Remarks = append(t.Remarks, "higher join rates suppress more exchanges (flexibility vs robustness)")
	return t
}

func growthExchanges(target, ratePctPerMin int, seed int64) (completed, suppressed int) {
	cl := newCluster(smr.ModeSync, seed, nil, func(cfg *atum.Config) {
		cfg.Params = atum.Params{HC: 2, RWL: 3, GMax: 6, GMin: 3}
		cfg.DisableShuffle = false // the exchanges are what this figure counts
	})
	// rate% of current size joins per minute.
	err := cl.growInWaves(target, 0, time.Minute, 20*time.Minute,
		func(members int) int { return max(1, members*ratePctPerMin/100) }, nil)
	if err != nil {
		return 0, 0
	}
	cl.c.Run(time.Minute)
	for _, n := range cl.nodes {
		st := n.Stats()
		completed += int(st.ExchangesCompleted)
		suppressed += int(st.ExchangesSuppressed)
	}
	return completed, suppressed
}
