// Command perfbench is the repository's benchmark. It times the simulator's
// public entry points from outside on three workloads, checks every
// repetition's results, and prints one JSON result line last.
//
//	go build -o perfbench . && ./perfbench -workload bigmesh -seed 1 -seconds 30 -trace 0
//
// With -trace 0 it reports the end-to-end metrics from repetitions in a
// fresh child process: memory and leak figures from the first, timings
// from the warm ones after it. With -trace 1 it reports the per-layer table:
// host CPU samples and heap allocations rolled up by repo package, counts
// from the simulator's metrics snapshot, unit costs from microdrivers and,
// on bigmesh, a two-partition probe. README.md explains the choices.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"time"
)

// maxWorkers caps the worker goroutines of a sweep: the reference host has
// two CPUs, and the cap keeps the sweep's shape the same on larger hosts.
const maxWorkers = 2

// childTimeout bounds one child process, so a wedged simulation cannot
// hold the benchmark past its own deadline.
const childTimeout = 150 * time.Second

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	child    string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: apps-skew, synth-buffered or bigmesh")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are built from")
	flag.Float64Var(&o.seconds, "seconds", 30, "how long to measure")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.StringVar(&o.child, "child", "", "internal: run one measurement step in this process")
	flag.Parse()

	w, ok := lookupWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	if o.child != "" {
		rep, err := runChild(o.child, w, o.seed, o.seconds)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.child, err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			os.Exit(1)
		}
		return
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	res := measure(o, w)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner spawns child steps of this same binary and collects their reports.
type runner struct {
	o         options
	w         workload
	failures  []string
	attempted int
	failed    int
}

// step runs one child process and decodes its report. A child that fails
// or cannot be decoded counts all of its points as failed.
func (r *runner) step(mode string, points int, seconds float64) (childReport, bool) {
	exe, err := os.Executable()
	if err != nil {
		r.fail(points, fmt.Sprintf("%s: %v", mode, err))
		return childReport{}, false
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", mode, "-workload", r.w.name,
		"-seed", fmt.Sprint(r.o.seed), "-seconds", fmt.Sprint(seconds))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var rep childReport
	if runErr == nil {
		runErr = json.Unmarshal(stdout.Bytes(), &rep)
	}
	if runErr != nil {
		r.fail(points, fmt.Sprintf("%s: %v", mode, runErr))
		return childReport{}, false
	}
	return rep, true
}

func (r *runner) fail(points int, msg string) {
	r.failed += points
	r.failures = append(r.failures, msg)
}

// account adds a child's points and failures to the run's totals.
func (r *runner) account(rep childReport) {
	r.attempted += rep.Points
	r.failed += rep.FailedPoints
	r.failures = append(r.failures, rep.Failures...)
}

// measure runs the whole benchmark for one invocation.
func measure(o options, w workload) result {
	r := &runner{o: o, w: w}
	printHost(o, w)
	start := time.Now()
	if chk, ok := r.step("check", 1, 0); ok {
		r.account(chk)
		for _, l := range chk.Lines {
			fmt.Println(l)
		}
	}

	var values map[string]float64
	if o.trace == 0 {
		left := o.seconds - time.Since(start).Seconds()
		if reps, ok := r.step("reps", w.points, left); ok {
			r.account(reps)
			values = endToEndValues(reps)
		}
	} else {
		// Untraced repetitions take the first share of the time and give the
		// timed layer metrics and the baseline for the tracing overhead; the
		// CPU-profiled repetitions take the next share.
		if reps, ok := r.step("reps", w.points, o.seconds*3/10); ok {
			r.account(reps)
			values = perLayerValues(r, reps, o.seconds*35/100)
		}
	}

	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	if err := checkMetricSet(defs, values); err != nil {
		r.fail(0, err.Error())
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	for _, f := range r.failures {
		fmt.Println("FAIL", f)
	}
	res.Attempted = max(res.Attempted, 1)
	res.Failed = min(res.Failed, res.Attempted)
	fmt.Printf("error_rate %.4f (%d of %d points failed)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	res.Correct = len(r.failures) == 0
	return res
}
