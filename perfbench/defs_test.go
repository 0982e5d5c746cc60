package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"

	"fugu/internal/metrics"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range workloads {
		seen[w.name] = true
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q is not a valid name", w.name)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is not a valid name", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("name %q used twice", d.Name)
		}
		seen[d.Name] = true
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is not a valid unit", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	var setup float64
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Bound
		}
	}
	for _, d := range endToEnd {
		if d.Bound > setup {
			t.Errorf("%s: bound %g above setup_s's %g, which must be the largest", d.Name, d.Bound, setup)
		}
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// BENCHMARK.json must list exactly the workloads the command accepts and
// the metrics it prints, in the same order, with the same units.
func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, command has %q: %q", i, bf.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file    %+v\n command %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file    %+v\n command %+v", bf.PerLayer, perLayer)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"perfbench"}) {
		t.Errorf("paths = %v", bf.Paths)
	}
}

// Every count the snapshot rollup produces is a declared per-layer metric.
func TestSnapshotCountsDeclared(t *testing.T) {
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.Name] = true
	}
	for k := range snapshotCounts(outcome{snap: metrics.NewSnapshot()}) {
		if !declared[k] {
			t.Errorf("snapshot count %q is not declared", k)
		}
	}
}

func TestCheckMetricSet(t *testing.T) {
	defs := []metricDef{{Name: "a"}, {Name: "b"}}
	if err := checkMetricSet(defs, map[string]float64{"a": 1, "b": 0}); err != nil {
		t.Error(err)
	}
	if checkMetricSet(defs, map[string]float64{"a": 1}) == nil {
		t.Error("missing metric accepted")
	}
	if checkMetricSet(defs, map[string]float64{"a": 1, "b": 2, "c": 3}) == nil {
		t.Error("undeclared metric accepted")
	}
}

func TestQuantile(t *testing.T) {
	h := metrics.HistogramValue{Count: 10, Max: 900, Buckets: []metrics.Bucket{
		{Le: 127, Count: 5}, {Le: 255, Count: 4}, {Le: 1023, Count: 1},
	}}
	if got := quantile(h, 0.5); got != 127 {
		t.Errorf("p50 = %g, want 127", got)
	}
	if got := quantile(h, 0.99); got != 900 {
		t.Errorf("p99 = %g, want 900 (capped at the largest sample)", got)
	}
	if got := quantile(metrics.HistogramValue{}, 0.5); got != 0 {
		t.Errorf("empty p50 = %g", got)
	}
}

// The microdrivers terminate and leave no proc behind at small sizes.
func TestMicrodriversRun(t *testing.T) {
	procRoundTrip(100)
	scheduleFire(10_000)
	admitDrain(1000)
	insertExtract(1000)
}
