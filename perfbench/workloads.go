package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"

	"fugu/internal/apps"
	"fugu/internal/glaze"
	"fugu/internal/harness"
	"fugu/internal/metrics"
)

// workload is one benchmark input set. run executes one repetition: the
// workload's whole fixed amount of simulated work, built from seed.
type workload struct {
	name   string
	why    string
	glaze  bool // builds its machines with buildGlazePoint, which the check step verifies
	points int  // sweep points per repetition
	run    func(seed uint64, workers int) outcome
	// build builds every machine of one repetition, the same way run
	// does, without running them; the set-up time is measured on it.
	build func(seed uint64)
}

// outcome is what one repetition produced, before host measurements.
type outcome struct {
	simCycles uint64 // simulated cycles summed over the workload's runs
	delivered uint64 // messages delivered by fast or buffered case
	buffered  uint64 // of which through the buffered (second) case
	points    int
	failed    int // points with at least one failure
	failures  []string
	snap      metrics.Snapshot
	// observables are the deterministic per-run results, folded into the
	// repetition digest together with the snapshot.
	observables []string
	// extra holds layer counts the snapshot does not carry.
	extra map[string]float64
}

// workloads is the benchmark's workload list, in report order. Why each was
// chosen is recorded in README.md.
var workloads = []workload{
	{
		name:   "apps-skew",
		why:    "paper's five apps vs null across gang-scheduler skew 0% and 8%: fast-path dominated, proc switching heavy",
		glaze:  true,
		points: len(appsPoints()),
		run:    runAppsSkew,
		build: func(seed uint64) {
			for _, pt := range appsPoints() {
				buildGlazePoint(pt, seed)
			}
		},
	},
	{
		name:   "synth-buffered",
		why:    "synth 1000x40 at skew 8%: most messages take the second case (buffer insert, demand-paged virtual buffer)",
		glaze:  true,
		points: 1,
		run:    runSynthBuffered,
		build:  func(seed uint64) { buildGlazePoint(synthPoint, seed) },
	},
	{
		name:   "bigmesh",
		why:    "64x64 open-loop mesh flood on the serial engine: event heap and mesh only, no procs, glaze or delivery",
		points: 1,
		run:    runBigMesh,
		build:  buildBigMesh,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// appsSkews trims Figure 7/8's quick sweep to its two ends.
var appsSkews = []float64{0, 0.08}

// quickQuantum is the gang-scheduler timeslice of the quick-scale sweeps.
const quickQuantum = 50_000

// glazePoint is one multiprogrammed run: an application against null
// under the gang scheduler.
type glazePoint struct {
	label string
	make  func() apps.Instance
	skew  float64
}

// buildGlazePoint is the build half of harness.RunMultiprogrammedQ:
// machine, jobs, application start and gang schedule, up to the first
// simulated cycle. The set-up time is measured on it, because the harness
// entry point has no seam at the first cycle. The check step runs the built
// machine to completion and compares it with the entry point, so the two
// cannot drift apart unnoticed.
func buildGlazePoint(pt glazePoint, seed uint64) (*glaze.Machine, *glaze.Job, apps.Instance) {
	inst := pt.make()
	m := glaze.NewMachine(glaze.NewConfig(glaze.WithMachineSeed(seed), glaze.WithOutputWords(64)))
	job := m.NewJob(inst.Name())
	null := m.NewJob("null")
	inst.Start(m, job)
	apps.Null{}.Start(m, null)
	m.NewGang(quickQuantum, pt.skew, job, null).Start()
	return m, job, inst
}

// add folds a point's result into the repetition outcome and applies the
// per-point oracles.
func (o *outcome) add(label string, r harness.RunStats) {
	o.points++
	o.simCycles += r.Runtime
	o.delivered += r.Fast + r.Buffered
	o.buffered += r.Buffered
	o.snap = metrics.Merge(o.snap, r.Metrics)
	o.observables = append(o.observables, fmt.Sprintf("%s runtime=%d fast=%d buffered=%d",
		label, r.Runtime, r.Fast, r.Buffered))
	var bad []string
	if r.Err != nil {
		bad = append(bad, fmt.Sprintf("result check: %v", r.Err))
	}
	if s, d := r.Metrics.Counters["udm.sent"], r.Metrics.Counters["udm.delivered"]; s != d {
		bad = append(bad, fmt.Sprintf("udm.sent %d != udm.delivered %d", s, d))
	}
	for _, b := range bad {
		o.failures = append(o.failures, label+": "+b)
	}
	if len(bad) > 0 {
		o.failed++
	}
}

// appsResult carries the sweep's point results out of the harness Runner.
type appsResult struct{ results []harness.RunStats }

func (appsResult) Print(io.Writer) {}

// appsPoints enumerates the sweep longest-first, so the two workers finish
// close together and the repetition's wall time is not set by whichever
// long point happened to start last.
func appsPoints() []glazePoint {
	var pts []glazePoint
	for _, mk := range harness.AppMakers(true) {
		name := mk().Name()
		for _, skew := range appsSkews {
			pts = append(pts, glazePoint{label: fmt.Sprintf("%s skew=%g%%", name, skew*100), make: mk, skew: skew})
		}
	}
	order := map[string]int{"enum": 0, "barnes": 1, "barrier": 2, "lu": 3, "water": 4}
	sort.SliceStable(pts, func(i, j int) bool {
		return order[strings.Fields(pts[i].label)[0]] < order[strings.Fields(pts[j].label)[0]]
	})
	return pts
}

func runAppsSkew(seed uint64, workers int) outcome {
	pts := appsPoints()
	exp := &harness.Experiment{
		Name: "apps-skew",
		Points: func(harness.Options) []harness.Point {
			hp := make([]harness.Point, len(pts))
			for i, pt := range pts {
				pt := pt
				hp[i] = harness.Point{Label: pt.label, Run: func(_ context.Context, opt harness.Options) (any, error) {
					return harness.RunMultiprogrammedQ(pt.make, pt.skew, opt.Seed, quickQuantum, nil), nil
				}}
			}
			return hp
		},
		Assemble: func(_ harness.Options, results []any) (harness.Result, error) {
			var r appsResult
			for _, x := range results {
				r.results = append(r.results, x.(harness.RunStats))
			}
			return r, nil
		},
	}
	var o outcome
	res, err := new(harness.Runner).Run(context.Background(), exp,
		harness.WithSeed(seed), harness.WithTrials(1), harness.WithQuick(), harness.WithParallelism(workers))
	if err != nil {
		o.points, o.failed = len(pts), len(pts)
		o.failures = append(o.failures, err.Error())
		return o
	}
	for i, r := range res.(appsResult).results {
		o.add(pts[i].label, r)
	}
	return o
}

// synthPoint has four nodes each keep 1000 messages outstanding to
// consumers that are descheduled 8% of each quantum, so most messages take
// the buffered path.
var synthPoint = glazePoint{
	label: "synth-1000 skew=8%",
	make:  func() apps.Instance { return apps.NewSynth(1000, 40, 20) },
	skew:  0.08,
}

func runSynthBuffered(seed uint64, _ int) outcome {
	var o outcome
	o.add(synthPoint.label, harness.RunMultiprogrammedQ(synthPoint.make, synthPoint.skew, seed, quickQuantum, nil))
	return o
}

// bigMeshConfig is DefaultBigMesh at paper scale on the serial engine.
func bigMeshConfig(seed uint64) harness.BigMeshConfig {
	cfg := harness.DefaultBigMesh(false)
	cfg.Seed = seed
	return cfg
}

func runBigMesh(seed uint64, _ int) outcome {
	cfg := bigMeshConfig(seed)
	o := outcome{points: 1}
	res, err := harness.RunBigMesh(cfg)
	if err != nil {
		o.failures = append(o.failures, err.Error())
	}
	if res.Injected != res.Delivered {
		o.failures = append(o.failures, fmt.Sprintf("bigmesh injected %d != delivered %d", res.Injected, res.Delivered))
	}
	if len(o.failures) > 0 {
		o.failed = 1
	}
	o.simCycles = res.Cycles
	o.snap = res.Metrics
	// RunBigMesh keeps its mesh off the metrics registry, so the mesh
	// counts come from its result.
	o.extra = map[string]float64{
		"mesh.packets":       float64(res.Injected),
		"mesh.refused_ratio": float64(res.Refused) / float64(res.Injected+res.Refused),
	}
	o.observables = []string{bigMeshObservables(res)}
	return o
}

// bigMeshObservables renders every simulation observable of a bigmesh run,
// leaving out Barriers and Staged, which describe the partition driver.
func bigMeshObservables(r harness.BigMeshResult) string {
	return fmt.Sprintf("nodes=%d cycles=%d events=%d injected=%d delivered=%d latsum=%d maxbatch=%d refused=%d metrics=%s",
		r.Nodes, r.Cycles, r.Events, r.Injected, r.Delivered, r.LatencySum, r.MaxBatch, r.Refused, r.Metrics.JSON())
}

// buildBigMesh times bigmesh's build through the entry point itself: with
// no messages to send, RunBigMesh builds the engine, registry, mesh and
// every node, finds an empty event heap and returns. Only the 4096 initial
// injection events are left out.
func buildBigMesh(seed uint64) {
	cfg := bigMeshConfig(seed)
	cfg.Msgs = 0
	if _, err := harness.RunBigMesh(cfg); err != nil {
		panic(err)
	}
}

// digest fingerprints a repetition's deterministic results: every
// snapshot count, the simulated cycles and the per-run observables.
func (o outcome) digest() string {
	h := sha256.New()
	h.Write(o.snap.JSON())
	fmt.Fprintf(h, "cycles=%d delivered=%d buffered=%d\n", o.simCycles, o.delivered, o.buffered)
	for _, s := range o.observables {
		io.WriteString(h, s+"\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// snapshotCounts derives the per-layer counts and ratios from a
// repetition's merged metrics snapshot. They are deterministic for a seed.
func snapshotCounts(o outcome) map[string]float64 {
	s := o.snap
	c := s.Counters
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	var meshPackets, meshRefused uint64
	for name, v := range c {
		if strings.HasPrefix(name, "mesh.") {
			switch {
			case strings.HasSuffix(name, ".packets"):
				meshPackets += v
			case strings.HasSuffix(name, ".refused"):
				meshRefused += v
			}
		}
	}
	nicRefused := c["nic.refused"] + c["nic.nacked"]
	fast, buffered := c["glaze.deliver.fast"], c["glaze.deliver.buffered"]
	hits, misses := c["crl.hits"], c["crl.misses"]
	m := map[string]float64{
		"sim.events":                        float64(c["sim.events"]),
		"mesh.packets":                      float64(meshPackets),
		"mesh.refused_ratio":                ratio(meshRefused, meshPackets+meshRefused),
		"mesh.blocked_max":                  float64(s.Gauges["mesh.blocked"].Max),
		"nic.refused_ratio":                 ratio(nicRefused, c["nic.arrived"]+nicRefused),
		"nic.queue_len_max":                 float64(s.Gauges["nic.queue_len"].Max),
		"delivery.inserts":                  float64(c["glaze.buffer.inserts"]),
		"vm.buffer_vmallocs":                float64(c["glaze.buffer.insert_vmallocs"]),
		"vm.buffer_pages_max":               float64(s.Gauges["glaze.buffer.pages"].Max),
		"glaze.mode_enters":                 float64(c["glaze.mode.enter_buffered.insert"] + c["glaze.mode.enter_buffered.revoke"] + c["glaze.mode.enter_buffered.fault"]),
		"glaze.fast_ratio":                  ratio(fast, fast+buffered),
		"glaze.buffered_pct":                100 * ratio(o.buffered, o.delivered),
		"glaze.overflow_trips":              float64(c["glaze.overflow.trips"]),
		"glaze.buffer_residency_p50_cycles": quantile(s.Histograms["glaze.buffer.residency"], 0.5),
		"glaze.fast_latency_p99_cycles":     quantile(s.Histograms["glaze.deliver.latency.fast"], 0.99),
		"glaze.buffered_latency_p99_cycles": quantile(s.Histograms["glaze.deliver.latency.buffered"], 0.99),
		"crl.hit_ratio":                     ratio(hits, hits+misses),
		"udm.delivered":                     float64(c["udm.delivered"]),
		"udm.handler_cycles_p50":            quantile(s.Histograms["udm.handler_cycles"], 0.5),
	}
	for k, v := range o.extra {
		m[k] = v
	}
	return m
}

// quantile returns the upper bound of the log2 bucket holding the q-th
// quantile, capped at the largest sample; 0 for an empty histogram.
func quantile(h metrics.HistogramValue, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := uint64(q*float64(h.Count) + 0.5)
	var seen uint64
	for _, b := range h.Buckets {
		seen += b.Count
		if seen >= rank {
			return float64(min(b.Le, h.Max))
		}
	}
	return float64(h.Max)
}
