package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf applies f to every warm repetition and returns the median.
func medianOf(reps []sample, f func(sample) float64) float64 {
	xs := make([]float64, len(reps))
	for i, rep := range reps {
		xs[i] = f(rep)
	}
	return median(xs)
}

const mib = 1 << 20

// endToEndValues reduces the repetitions to the end-to-end metrics and
// prints every figure the benchmark tracks, including the ones that are
// zero on some workloads and therefore are not gated.
func endToEndValues(c childReport) map[string]float64 {
	if len(c.Warm) == 0 {
		return nil
	}
	for i, s := range append([]sample{c.Cold}, c.Warm...) {
		kind := "warm"
		if i == 0 {
			kind = "cold"
		}
		fmt.Printf("rep %d (%s): wall %.3fs cpu %.3fs allocs %d\n", i+1, kind, s.WallS, s.CPUS, s.Mallocs)
	}
	m := map[string]float64{
		"wall_s":          medianOf(c.Warm, func(s sample) float64 { return s.WallS }),
		"cpu_s":           medianOf(c.Warm, func(s sample) float64 { return s.CPUS }),
		"setup_s":         c.SetupS,
		"heap_allocs_m":   medianOf(c.Warm, func(s sample) float64 { return float64(s.Mallocs) / 1e6 }),
		"heap_alloc_mib":  medianOf(c.Warm, func(s sample) float64 { return float64(s.AllocBytes) / mib }),
		"peak_rss_mib":    float64(c.PeakRSSKiB) / 1024,
		"live_heap_mib":   float64(c.LiveBytes) / mib,
		"goroutines_live": float64(c.GoroutinesLive),
		"sim_mcycles":     float64(c.SimCycles) / 1e6,
	}
	fmt.Printf("warm repetitions %d\n", len(c.Warm))
	for _, d := range endToEnd {
		fmt.Printf("%-18s %14.6f %s\n", d.Name, m[d.Name], d.Unit)
	}
	// Tracked but not gated: these read exactly 0 on some workloads today
	// (bigmesh has no procs and no glaze), so a share-of-median bound
	// cannot be applied to them.
	fmt.Printf("%-18s %14.6f MiB\n", "retained_heap_mib", float64(c.RetainedBytes)/mib)
	fmt.Printf("%-18s %14d count\n", "goroutines_leaked", c.GoroutinesLeaked)
	fmt.Printf("%-18s %14.6f %%\n", "buffered_pct", c.BufferedPct)
	return m
}

// printHost prints what produced the numbers: host, toolchain, commit and
// the invocation, so a smaller host is not mistaken for a regression.
func printHost(o options, w workload) {
	fmt.Printf("host nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s workers=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), commit(),
		min(maxWorkers, runtime.NumCPU()))
	fmt.Printf("workload %s seed=%d seconds=%g trace=%d\n", w.name, o.seed, o.seconds, o.trace)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit reads the revision the binary was built from, which the go tool
// stamps when it builds inside a git checkout; "unknown" otherwise.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// perLayerValues assembles the per-layer table from the untraced
// repetitions and the traced, microdriver and probe steps.
func perLayerValues(r *runner, reps childReport, profileSeconds float64) map[string]float64 {
	if len(reps.Warm) == 0 {
		return nil
	}
	m := map[string]float64{}
	for k, v := range reps.Counts {
		m[k] = v
	}
	wall := medianOf(reps.Warm, func(s sample) float64 { return s.WallS })
	perEvent := func(x float64) float64 {
		if ev := reps.Counts["sim.events"]; ev > 0 {
			return x / ev
		}
		return 0
	}
	m["sim.ns_per_event"] = perEvent(wall * 1e9)
	m["sim.mcycles_per_s"] = float64(reps.SimCycles) / 1e6 / wall
	m["sim.allocs_per_event"] = perEvent(medianOf(reps.Warm, func(s sample) float64 { return float64(s.Mallocs) }))
	m["sim.goroutines_leaked"] = float64(reps.GoroutinesLeaked)
	m["sim.retained_heap_mib"] = float64(reps.RetainedBytes) / mib

	if cpu, ok := r.step("cpu", r.w.points, profileSeconds); ok {
		r.account(cpu)
		var total int64
		for _, n := range cpu.Layers {
			total += n
		}
		pct := func(k string) float64 {
			if total == 0 {
				return 0
			}
			return 100 * float64(cpu.Layers[k]) / float64(total)
		}
		for _, l := range layers {
			m[l+".cpu_pct"] = pct(l)
		}
		m["runtime.sched_pct"] = pct("runtime.sched")
		m["runtime.gc_pct"] = pct("runtime.gc")
		traced := medianOf(cpu.Warm, func(s sample) float64 { return s.WallS })
		m["traced.overhead_pct"] = 100 * (traced - wall) / wall
		fmt.Printf("cpu profile: %d samples over %d repetitions\n", total, len(cpu.Warm))
	}
	if al, ok := r.step("allocs", r.w.points, 0); ok {
		r.account(al)
		for _, l := range layers {
			m[l+".allocs"] = float64(al.Layers[l])
		}
		m["runtime.allocs"] = float64(al.Layers["runtime.sched"] + al.Layers["runtime.gc"])
	}
	if mi, ok := r.step("micro", 0, 0); ok {
		for k, v := range mi.Values {
			m[k] = v
		}
	}
	// The partition probe applies to bigmesh only: the glaze workloads run
	// on a single engine and have no partition-clean parallel mode.
	for _, k := range []string{"sim.group.p2_speedup", "sim.group.cores", "sim.group.barriers", "sim.group.staged"} {
		m[k] = 0
	}
	if r.w.name == "bigmesh" {
		if pr, ok := r.step("probe", 6, 0); ok {
			r.account(pr)
			for k, v := range pr.Values {
				m[k] = v
			}
		}
	}

	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-36s %16.6f\n", k, m[k])
	}
	return m
}
