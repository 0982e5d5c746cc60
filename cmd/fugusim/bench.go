package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"fugu/internal/apps"
	"fugu/internal/harness"
	"fugu/internal/metrics"
	"fugu/internal/telemetry"
)

// BenchRow is one workload's measurement in the machine-readable report.
// The throughput figure is simulated megacycles advanced per wall-clock
// second — the end-to-end speed of the simulator core — and the per-event
// columns normalize by dispatched engine events so runs of different sizes
// compare directly.
type BenchRow struct {
	Workload       string  `json:"workload"`
	McyclesPerSec  float64 `json:"mcycles_per_sec"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	NsPerEvent     float64 `json:"ns_per_event"`
}

// benchCmd implements `fugusim bench`: run the three representative
// workloads (barrier: proc-switch-heavy synchronization; synth: multiprogrammed
// producer/consumer traffic; crlstress: coherence-protocol request/reply
// plus bulk data), measure simulator throughput and allocation rates, and
// write the report as JSON. With -baseline it compares throughput against a
// committed report and exits nonzero on a regression beyond -max-regress —
// the CI perf gate.
func benchCmd(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	common := registerCommon(fs)
	out := fs.String("o", "BENCH_9.json", "write the JSON report to this path (- for stdout only)")
	force := fs.Bool("force", false, "overwrite an existing -o report file")
	baseline := fs.String("baseline", "", "compare against this committed report; exit 1 on regression")
	maxRegress := fs.Float64("max-regress", 0.20, "tolerated fractional throughput drop vs -baseline")
	maxAllocRegress := fs.Float64("max-alloc-regress", 0.10,
		"tolerated fractional allocs/event growth vs -baseline (plus a 0.01 absolute epsilon)")
	minSpeedup := fs.Float64("min-speedup", 0,
		"fail unless bigmesh-p4 beats bigmesh-p1 throughput by this factor (only enforced with 4+ cores)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the bench run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile at the end of the run to this file")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: fugusim bench [flags]\n")
		fs.PrintDefaults()
	}
	if names := parseInterleaved(fs, args); len(names) != 0 {
		fs.Usage()
		os.Exit(2)
	}
	common.resolve()
	// Refuse a clobbering -o before the measurement, not after: a bench run
	// that ends by silently destroying the committed baseline is the worst
	// failure order.
	if *out != "-" {
		if err := prepareOutputPath(*out, *force); err != nil {
			fmt.Fprintf(os.Stderr, "fugusim: bench: %v\n", err)
			os.Exit(2)
		}
	}
	stopProf, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fugusim: %v\n", err)
		os.Exit(1)
	}
	defer stopProf()

	barrierN, crlOps := 2000, 20
	if *common.full {
		barrierN, crlOps = 10000, 45
	}
	s := *common.seed
	mut := common.configMut()

	var crlOpts []harness.Option
	if common.policy != nil {
		crlOpts = append(crlOpts, harness.WithDeliveryPolicy(common.policy))
	}
	if tc := common.telemetryConfig(); tc.Enabled() {
		crlOpts = append(crlOpts, harness.WithTelemetry(tc))
	}
	snaps := map[string]metrics.Snapshot{}
	tlsByName := map[string]telemetry.Timeline{}
	keep := func(name string, cycles uint64, snap metrics.Snapshot, tl telemetry.Timeline) (uint64, metrics.Snapshot) {
		snaps[name] = snap
		tlsByName[name] = tl
		return cycles, snap
	}
	rows := []BenchRow{
		measure("barrier", func() (uint64, metrics.Snapshot) {
			rs := harness.RunStandaloneMut(func() apps.Instance { return apps.NewBarrierApp(barrierN) }, s, mut)
			mustOK("barrier", rs.Err)
			return keep("barrier", rs.Runtime, rs.Metrics, rs.Timeline)
		}),
		measure("synth", func() (uint64, metrics.Snapshot) {
			rs := harness.RunMultiprogrammedQ(
				func() apps.Instance { return apps.NewSynth(100, 20, 100) },
				0, s, 50_000, mut)
			mustOK("synth", rs.Err)
			return keep("synth", rs.Runtime, rs.Metrics, rs.Timeline)
		}),
		measure("crlstress", func() (uint64, metrics.Snapshot) {
			row, snap, tl := harness.RunCRLStressOnce(crlOps, s, crlOpts...)
			if !row.Completed {
				mustOK("crlstress", fmt.Errorf("workload wedged"))
			}
			if row.Total != row.Expected {
				mustOK("crlstress", fmt.Errorf("lost updates: total %d, expected %d", row.Total, row.Expected))
			}
			return keep("crlstress", row.Cycles, snap, tl)
		}),
	}
	// The bigmesh pair measures the parallel partition driver itself: the
	// same open-loop traffic serial and sharded four ways. Identical
	// simulations (the determinism tests pin byte-equality), so the
	// throughput ratio is a pure measurement of the window protocol.
	bmCfg := harness.DefaultBigMesh(!*common.full)
	bmCfg.Seed = s
	for _, parts := range []int{1, 4} {
		parts := parts
		rows = append(rows, measure(fmt.Sprintf("bigmesh-p%d", parts), func() (uint64, metrics.Snapshot) {
			cfg := bmCfg
			cfg.Parts = parts
			res, err := harness.RunBigMesh(cfg)
			mustOK(fmt.Sprintf("bigmesh-p%d", parts), err)
			snaps[fmt.Sprintf("bigmesh-p%d", parts)] = res.Metrics
			return res.Cycles, res.Metrics
		}))
	}
	var labeled []telemetry.LabeledTimeline
	for i, r := range rows {
		if tl := tlsByName[r.Workload]; !tl.Empty() {
			labeled = append(labeled, telemetry.LabeledTimeline{Point: i, Label: r.Workload, Timeline: tl})
		}
	}
	common.writeTimelines("bench", labeled)

	if *common.metricsDir != "" {
		for _, r := range rows {
			writeMetrics(*common.metricsDir, "bench."+r.Workload)(snaps[r.Workload])
		}
	}
	for _, r := range rows {
		fmt.Printf("%-10s %10.2f Mcycles/s %10.3f allocs/event %10.1f ns/event\n",
			r.Workload, r.McyclesPerSec, r.AllocsPerEvent, r.NsPerEvent)
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "fugusim: bench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out != "-" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "fugusim: bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bench: report written to %s\n", *out)
	} else {
		os.Stdout.Write(data)
	}

	if report, ok := checkSpeedup(rows, *minSpeedup); report != "" {
		fmt.Fprint(os.Stderr, report)
		if !ok {
			os.Exit(1)
		}
	}

	if *baseline != "" {
		report, ok := compareBaseline(rows, *baseline, *maxRegress, *maxAllocRegress)
		fmt.Fprint(os.Stderr, report)
		if !ok {
			os.Exit(1)
		}
	}
}

// checkSpeedup reports the bigmesh-p4/bigmesh-p1 throughput ratio and — when
// minSpeedup > 0 — gates on it. The gate only arms on machines with at
// least 4 CPUs: below that the partitions time-slice one another and the
// ratio measures the scheduler, not the driver (CI sets -min-speedup; local
// single-core runs still see the ratio reported).
func checkSpeedup(rows []BenchRow, minSpeedup float64) (string, bool) {
	byName := make(map[string]BenchRow, len(rows))
	for _, r := range rows {
		byName[r.Workload] = r
	}
	p1, ok1 := byName["bigmesh-p1"]
	p4, ok4 := byName["bigmesh-p4"]
	if !ok1 || !ok4 || p1.McyclesPerSec == 0 {
		return "", true
	}
	ratio := p4.McyclesPerSec / p1.McyclesPerSec
	var b strings.Builder
	fmt.Fprintf(&b, "bench: bigmesh p4/p1 speedup %.2fx (%d CPUs)\n", ratio, runtime.NumCPU())
	if minSpeedup <= 0 {
		return b.String(), true
	}
	if runtime.NumCPU() < 4 {
		fmt.Fprintf(&b, "bench: -min-speedup %.2f not enforced: only %d CPUs\n", minSpeedup, runtime.NumCPU())
		return b.String(), true
	}
	if ratio < minSpeedup {
		fmt.Fprintf(&b, "bench: FAIL bigmesh speedup %.2fx < required %.2fx\n", ratio, minSpeedup)
		return b.String(), false
	}
	return b.String(), true
}

// measure runs one workload with a clean heap and reports throughput and
// per-event allocation cost. Events come from the engine's "sim.events"
// counter in the run's merged metrics snapshot; allocations are the
// process-wide Mallocs delta across the run, which is why the heap is
// settled with a GC first.
func measure(name string, run func() (cycles uint64, snap metrics.Snapshot)) BenchRow {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	cycles, snap := run()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	events := snap.Counters["sim.events"]
	r := BenchRow{Workload: name}
	if sec := wall.Seconds(); sec > 0 {
		r.McyclesPerSec = float64(cycles) / 1e6 / sec
	}
	if events > 0 {
		r.AllocsPerEvent = float64(after.Mallocs-before.Mallocs) / float64(events)
		r.NsPerEvent = float64(wall.Nanoseconds()) / float64(events)
	}
	return r
}

// mustOK aborts the bench when a workload failed its own correctness check:
// a broken simulation's throughput is not a datum.
func mustOK(name string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "fugusim: bench: %s: %v\n", name, err)
		os.Exit(1)
	}
}

// allocAbsEpsilon is the absolute slack added to the allocs/event ceiling:
// at the baseline's event counts (hundreds of thousands of events) a 0.01
// allocs/event drift is a few thousand allocations — measurement noise, not
// a leak — while a telemetry path accidentally left on in the default
// configuration costs an allocation every sample and clears the bar.
const allocAbsEpsilon = 0.01

// compareBaseline checks each measured workload against the committed
// report and returns a per-workload delta report plus the verdict. Two
// gates per workload: throughput (Mcycles/s) must not drop more than
// maxRegress below baseline, and allocs/event must not grow more than
// maxAllocRegress above baseline (plus allocAbsEpsilon absolute slack) —
// the latter is what keeps telemetry-disabled runs at zero added
// allocations per event. ns/event is reported for context but not gated;
// it moves with host load in ways the throughput gate already bounds.
// Workloads missing from the baseline pass (new workloads shouldn't brick
// CI); a workload present only in the baseline fails, so coverage cannot
// silently shrink.
func compareBaseline(rows []BenchRow, path string, maxRegress, maxAllocRegress float64) (string, bool) {
	var b strings.Builder
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(&b, "fugusim: bench: baseline: %v\n", err)
		return b.String(), false
	}
	var base []BenchRow
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(&b, "fugusim: bench: baseline %s: %v\n", path, err)
		return b.String(), false
	}
	measured := make(map[string]BenchRow, len(rows))
	for _, r := range rows {
		measured[r.Workload] = r
	}
	pct := func(cur, ref float64) string {
		if ref == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%+.1f%%", (cur-ref)/ref*100)
	}
	ok := true
	for _, bl := range base {
		r, found := measured[bl.Workload]
		if !found {
			fmt.Fprintf(&b, "bench: FAIL %s: in baseline but not measured\n", bl.Workload)
			ok = false
			continue
		}
		floor := bl.McyclesPerSec * (1 - maxRegress)
		ceil := bl.AllocsPerEvent*(1+maxAllocRegress) + allocAbsEpsilon
		verdict := "ok  "
		var why []string
		if r.McyclesPerSec < floor {
			why = append(why, fmt.Sprintf("throughput %.2f < floor %.2f", r.McyclesPerSec, floor))
		}
		if r.AllocsPerEvent > ceil {
			why = append(why, fmt.Sprintf("allocs/event %.4f > ceiling %.4f", r.AllocsPerEvent, ceil))
		}
		if len(why) > 0 {
			verdict = "FAIL"
			ok = false
		}
		fmt.Fprintf(&b, "bench: %s %-10s Mcycles/s %8.2f vs %8.2f (%s)  allocs/event %7.4f vs %7.4f (%s)  ns/event %7.1f vs %7.1f (%s)\n",
			verdict, bl.Workload,
			r.McyclesPerSec, bl.McyclesPerSec, pct(r.McyclesPerSec, bl.McyclesPerSec),
			r.AllocsPerEvent, bl.AllocsPerEvent, pct(r.AllocsPerEvent, bl.AllocsPerEvent),
			r.NsPerEvent, bl.NsPerEvent, pct(r.NsPerEvent, bl.NsPerEvent))
		for _, w := range why {
			fmt.Fprintf(&b, "bench:      %s: %s\n", bl.Workload, w)
		}
	}
	return b.String(), ok
}
