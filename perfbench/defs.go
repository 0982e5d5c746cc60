package main

import "fmt"

// metricDef declares one reported metric exactly as BENCHMARK.json lists
// it; a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics of an untraced run. Each is nonzero on every
// workload, so a share-of-median bound applies to it.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"heap_allocs_m", "Mobjects", "lower", 0.1},
	{"heap_alloc_mib", "MiB", "lower", 0.1},
	{"peak_rss_mib", "MiB", "lower", 0.2},
	{"live_heap_mib", "MiB", "lower", 0.2},
	{"goroutines_live", "count", "lower", 0.05},
	{"sim_mcycles", "Mcycles", "lower", 0.1},
}

// perLayer are the metrics of a traced run. Layers a workload does not
// exercise read 0.
var perLayer = func() []metricDef {
	var d []metricDef
	add := func(name, unit, better string) { d = append(d, metricDef{Name: name, Unit: unit, Better: better}) }
	for _, l := range layers {
		add(l+".cpu_pct", "%", "lower")
	}
	add("runtime.sched_pct", "%", "lower")
	add("runtime.gc_pct", "%", "lower")
	add("traced.overhead_pct", "%", "lower")
	for _, l := range layers {
		add(l+".allocs", "count", "lower")
	}
	add("runtime.allocs", "count", "lower")

	add("sim.ns_per_event", "ns", "lower")
	add("sim.mcycles_per_s", "Mcycles/s", "higher")
	add("sim.allocs_per_event", "count", "lower")
	add("sim.events", "count", "lower")
	add("sim.goroutines_leaked", "count", "lower")
	add("sim.retained_heap_mib", "MiB", "lower")
	add("sim.proc_round_trip_ns", "ns", "lower")
	add("sim.schedule_fire_ns", "ns", "lower")
	add("sim.group.p2_speedup", "x", "higher")
	add("sim.group.cores", "count", "higher")
	add("sim.group.barriers", "count", "lower")
	add("sim.group.staged", "count", "lower")

	add("mesh.packets", "count", "lower")
	add("mesh.refused_ratio", "ratio", "lower")
	add("mesh.blocked_max", "count", "lower")
	add("nic.refused_ratio", "ratio", "lower")
	add("nic.queue_len_max", "count", "lower")
	add("niq.admit_drain_ns", "ns", "lower")

	add("delivery.inserts", "count", "lower")
	add("delivery.insert_extract_ns", "ns", "lower")
	add("vm.buffer_vmallocs", "count", "lower")
	add("vm.buffer_pages_max", "pages", "lower")
	add("glaze.mode_enters", "count", "lower")
	add("glaze.fast_ratio", "ratio", "higher")
	add("glaze.buffered_pct", "%", "lower")
	add("glaze.overflow_trips", "count", "lower")
	add("glaze.buffer_residency_p50_cycles", "cycles", "lower")
	add("glaze.fast_latency_p99_cycles", "cycles", "lower")
	add("glaze.buffered_latency_p99_cycles", "cycles", "lower")

	add("crl.hit_ratio", "ratio", "higher")
	add("udm.delivered", "count", "lower")
	add("udm.handler_cycles_p50", "cycles", "lower")
	return d
}()

// checkMetricSet reports any difference between the computed metrics and
// the declared list, so the result line always carries exactly the
// metrics BENCHMARK.json names.
func checkMetricSet(defs []metricDef, values map[string]float64) error {
	want := map[string]bool{}
	for _, d := range defs {
		want[d.Name] = true
		if _, ok := values[d.Name]; !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
	}
	for name := range values {
		if !want[name] {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	return nil
}
