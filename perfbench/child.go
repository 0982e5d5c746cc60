package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"fugu/internal/harness"
)

// childReport is what one child step hands back to the parent as JSON.
type childReport struct {
	Points       int      `json:",omitempty"`
	FailedPoints int      `json:",omitempty"`
	Failures     []string `json:",omitempty"`

	// Repetitions ("reps"). The cold one is the fresh process's first; the
	// memory and leak figures are taken right after it. The warm ones
	// follow in the same process and give the per-repetition costs.
	Cold             sample
	Warm             []sample           `json:",omitempty"`
	SetupS           float64            `json:",omitempty"`
	PeakRSSKiB       int64              `json:",omitempty"`
	GoroutinesLive   int                `json:",omitempty"`
	GoroutinesLeaked int                `json:",omitempty"`
	LiveBytes        int64              `json:",omitempty"`
	RetainedBytes    int64              `json:",omitempty"`
	SimCycles        uint64             `json:",omitempty"`
	BufferedPct      float64            `json:",omitempty"`
	Counts           map[string]float64 `json:",omitempty"`

	// CPU-profiled repetitions ("cpu") or the allocation-profiled one
	// ("allocs"): samples or objects per layer.
	Layers map[string]int64 `json:",omitempty"`

	// Microdrivers and the partition probe.
	Values map[string]float64 `json:",omitempty"`

	// Lines the parent prints (paper oracles).
	Lines []string `json:",omitempty"`
}

// sample is the host cost of one repetition.
type sample struct {
	WallS      float64
	CPUS       float64 // user plus system CPU time of the whole process
	Mallocs    uint64
	AllocBytes uint64
}

func (c *childReport) absorb(o outcome) {
	c.Points += o.points
	c.FailedPoints += o.failed
	c.Failures = append(c.Failures, o.failures...)
}

func runChild(mode string, w workload, seed uint64, seconds float64) (childReport, error) {
	workers := min(maxWorkers, runtime.NumCPU())
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	switch mode {
	case "reps":
		return repsChild(w, seed, workers, deadline)
	case "cpu":
		return cpuChild(w, seed, workers, deadline)
	case "allocs":
		return allocChild(w, seed, workers), nil
	case "micro":
		return childReport{Values: microdrivers()}, nil
	case "probe":
		return probeChild(seed), nil
	case "check":
		return checkChild(w, seed), nil
	}
	return childReport{}, fmt.Errorf("unknown step %q", mode)
}

// minWarm is the fewest warm repetitions a "reps" step makes, however
// short its time.
const minWarm = 3

// repsChild runs repetitions until the deadline. The first runs in a
// fresh process, so the goroutines and live heap left once it returns are
// exactly what one repetition leaks. The warm ones after it are timed:
// by then the heap has grown to the workload's size, so page faults on
// fresh memory, which vary widely with the host's load, stay out of the
// timings. Every repetition must reproduce the first one's deterministic
// results exactly.
func repsChild(w workload, seed uint64, workers int, deadline time.Time) (childReport, error) {
	var rep childReport
	runtime.GC()
	var before, settled runtime.MemStats
	g0 := runtime.NumGoroutine()
	runtime.ReadMemStats(&before)
	first, cold, err := timedRun(w, seed, workers)
	if err != nil {
		return rep, err
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&settled)
	g1 := settledGoroutines()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return rep, err
	}
	rep.Cold = cold
	rep.PeakRSSKiB = int64(ru.Maxrss) // KiB on Linux
	rep.GoroutinesLive, rep.GoroutinesLeaked = g1, g1-g0
	rep.LiveBytes = int64(settled.HeapAlloc)
	rep.RetainedBytes = int64(settled.HeapAlloc) - int64(before.HeapAlloc)
	rep.SimCycles = first.simCycles
	rep.Counts = snapshotCounts(first)
	if first.delivered > 0 {
		rep.BufferedPct = 100 * float64(first.buffered) / float64(first.delivered)
	}
	rep.absorb(first)
	digest := first.digest()

	for len(rep.Warm) < minWarm || time.Now().Before(deadline) {
		runtime.GC()
		o, s, err := timedRun(w, seed, workers)
		if err != nil {
			return rep, err
		}
		rep.absorb(o)
		if o.digest() != digest {
			rep.FailedPoints += o.points
			rep.Failures = append(rep.Failures, fmt.Sprintf(
				"warm repetition %d: deterministic results differ from the first repetition", len(rep.Warm)+1))
		}
		rep.Warm = append(rep.Warm, s)
	}
	rep.SetupS = setupTime(w, seed)
	return rep, nil
}

// timedRun runs one repetition and measures its host cost.
func timedRun(w workload, seed uint64, workers int) (outcome, sample, error) {
	var ms0, ms1 runtime.MemStats
	var ru0, ru1 syscall.Rusage
	runtime.ReadMemStats(&ms0)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		return outcome{}, sample{}, err
	}
	start := time.Now()
	o := w.run(seed, workers)
	wall := time.Since(start)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru1); err != nil {
		return outcome{}, sample{}, err
	}
	runtime.ReadMemStats(&ms1)
	return o, sample{
		WallS:      wall.Seconds(),
		CPUS:       cpuSeconds(ru1) - cpuSeconds(ru0),
		Mallocs:    ms1.Mallocs - ms0.Mallocs,
		AllocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
	}, nil
}

// setupTime builds the repetition's machines repeatedly and returns the
// median build time. The builds take from a fraction of a millisecond to
// a few tens of milliseconds, so it makes as many rounds as fit in
// setupBudget, within [minSetupRounds, maxSetupRounds]. It runs after
// every other measurement, because the machines it builds are never run
// and their parked procs stay behind; maxSetupRounds bounds that garbage.
func setupTime(w workload, seed uint64) float64 {
	const (
		setupBudget    = 100 * time.Millisecond
		minSetupRounds = 5
		maxSetupRounds = 25
	)
	var ts []float64
	var spent time.Duration
	for len(ts) < minSetupRounds || (spent < setupBudget && len(ts) < maxSetupRounds) {
		runtime.GC()
		start := time.Now()
		w.build(seed)
		d := time.Since(start)
		spent += d
		ts = append(ts, d.Seconds())
	}
	return median(ts)
}

// cpuSeconds is the user plus system CPU time in a resource usage record.
func cpuSeconds(ru syscall.Rusage) float64 {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// settledGoroutines reads the goroutine count once goroutines that have
// finished their work (sweep workers past their last Done) have exited.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(2 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// cpuChild runs one unprofiled warm-up repetition, then repetitions under
// the CPU profiler until the deadline, and rolls the samples up by layer.
// Each repetition is preceded by a forced GC, as the untraced ones are, so
// its timing compares with theirs; the profiler is stopped across that GC
// so its work is not charged to the program's layers.
func cpuChild(w workload, seed uint64, workers int, deadline time.Time) (childReport, error) {
	var rep childReport
	rep.absorb(w.run(seed, workers))
	var stacks [][]string
	var weights []int64
	for len(rep.Warm) == 0 || time.Now().Before(deadline) {
		runtime.GC()
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return rep, err
		}
		o, s, err := timedRun(w, seed, workers)
		pprof.StopCPUProfile()
		if err != nil {
			return rep, err
		}
		rep.absorb(o)
		rep.Warm = append(rep.Warm, s)
		st, wt, err := cpuProfileStacks(buf.Bytes())
		if err != nil {
			return rep, err
		}
		stacks, weights = append(stacks, st...), append(weights, wt...)
	}
	rep.Layers = rollup(stacks, weights)
	return rep, nil
}

// allocChild runs one repetition with every heap allocation recorded and
// charges the objects to layers.
func allocChild(w workload, seed uint64, workers int) childReport {
	runtime.MemProfileRate = 1
	runtime.GC()
	before := allocStacks()
	o := w.run(seed, workers)
	runtime.GC()
	after := allocStacks()
	rep := childReport{Layers: allocDelta(before, after)}
	rep.absorb(o)
	return rep
}

// probeChild runs bigmesh serially and on a two-partition parallel group,
// alternating, and reports the speedup with the driver's own counters. The
// partitioned run must reproduce every simulation observable.
func probeChild(seed uint64) childReport {
	const pairs = 3
	rep := childReport{Values: map[string]float64{}}
	var p1, p2 []float64
	for i := 0; i < pairs; i++ {
		serial, par := bigMeshConfig(seed), bigMeshConfig(seed)
		par.Parts = 2
		start := time.Now()
		a, errA := harness.RunBigMesh(serial)
		p1 = append(p1, time.Since(start).Seconds())
		start = time.Now()
		b, errB := harness.RunBigMesh(par)
		p2 = append(p2, time.Since(start).Seconds())
		rep.Points += 2
		for _, err := range []error{errA, errB} {
			if err != nil {
				rep.FailedPoints++
				rep.Failures = append(rep.Failures, "partition probe: "+err.Error())
			}
		}
		if bigMeshObservables(a) != bigMeshObservables(b) {
			rep.FailedPoints++
			rep.Failures = append(rep.Failures, "partition probe: parts=2 observables differ from the serial run")
		}
		rep.Values["sim.group.barriers"] = float64(b.Barriers)
		rep.Values["sim.group.staged"] = float64(b.Staged)
	}
	rep.Values["sim.group.p2_speedup"] = median(p1) / median(p2)
	rep.Values["sim.group.cores"] = float64(runtime.NumCPU())
	return rep
}

// Paper reference values the model is checked against once per invocation.
const (
	paperHardInterrupt   = 87  // Table 4: interrupt total, hard atomicity
	paperBufferedMinimum = 232 // Table 5: minimum buffered total, 180 + 52
)

// checkChild checks the model against the paper's Tables 4 and 5, and the
// glaze set-up build, run to completion, against the harness entry point
// it mirrors.
func checkChild(w workload, seed uint64) childReport {
	rep := childReport{Points: 1}
	fail := func(msg string) { rep.Failures = append(rep.Failures, msg) }
	paperErr := func(name string, got, want uint64) {
		e := 100 * (float64(got) - float64(want)) / float64(want)
		rep.Lines = append(rep.Lines, fmt.Sprintf("paper %s: model %d cycles, paper %d, error %+.1f%%", name, got, want, e))
		if got != want {
			fail(fmt.Sprintf("paper %s: model %d cycles, paper %d", name, got, want))
		}
	}
	if t4, err := harness.Table4(harness.WithQuick()); err != nil {
		fail("table4: " + err.Error())
	} else {
		paperErr("table4 hard-atomicity interrupt", t4.MeasuredIntr[1], paperHardInterrupt)
	}
	if t5, err := harness.Table5(harness.WithQuick()); err != nil {
		fail("table5: " + err.Error())
	} else {
		// InsertMin and Extract are the configured cost model; the simulated
		// per-message means must not undercut them.
		paperErr("table5 buffered minimum", t5.InsertMin+t5.Extract, paperBufferedMinimum)
		rep.Lines = append(rep.Lines, fmt.Sprintf("table5 simulated: insert mean %.1f cycles (minimum %d), extract mean %.1f cycles (minimum %d), %d inserts",
			t5.MeasuredInsertMean, t5.InsertMin, t5.MeasuredExtractMean, t5.Extract, t5.Inserts))
		if t5.Inserts == 0 || t5.MeasuredInsertMean < float64(t5.InsertMin) || t5.MeasuredExtractMean < float64(t5.Extract) {
			fail(fmt.Sprintf("table5: simulated insert mean %.1f / extract mean %.1f over %d inserts undercut the configured minimums %d / %d",
				t5.MeasuredInsertMean, t5.MeasuredExtractMean, t5.Inserts, t5.InsertMin, t5.Extract))
		}
	}

	if w.glaze {
		pts := appsPoints()
		pt := pts[len(pts)-1] // the cheapest point
		m, job, inst := buildGlazePoint(pt, seed)
		m.RunUntilDone(0, job)
		m.FinishTelemetry()
		d := job.Delivery()
		want := harness.RunMultiprogrammedQ(pt.make, pt.skew, seed, quickQuantum, nil)
		if inst.Check() != nil || want.Err != nil || job.DoneAt() != want.Runtime ||
			d.Fast != want.Fast || d.Buffered != want.Buffered ||
			!bytes.Equal(m.MetricsSnapshot().JSON(), want.Metrics.JSON()) {
			fail("timed set-up build diverges from harness.RunMultiprogrammedQ on " + pt.label)
		}
	}
	if len(rep.Failures) > 0 {
		rep.FailedPoints = 1
	}
	return rep
}
