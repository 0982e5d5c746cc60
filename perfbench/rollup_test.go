package main

import (
	"bytes"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"fugu/internal/sim.(*Proc).park":                           "fugu/internal/sim",
		"fugu/internal/glaze.NewMachine.func1":                     "fugu/internal/glaze",
		"fugu/internal/sim.push[go.shape.*fugu/internal/mesh.Pkt]": "fugu/internal/sim",
		"runtime.mallocgc":                                         "runtime",
		"main.buildGlazePoint":                                     "main",
		"fugu.NewMachine":                                          "fugu",
		"internal/runtime/atomic.(*Uint32).Load":                   "internal/runtime/atomic",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// Stacks are innermost frame first, as the profiles give them.
func TestChargeLayer(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		// Runtime leaf frames go to the nearest repo caller.
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.makeslice",
			"fugu/internal/mesh.(*Net).Acquire", "fugu/internal/harness.(*bigMesh).inject",
			"fugu/internal/sim.(*Engine).runLocal"}, "mesh"},
		{[]string{"runtime.chanrecv", "runtime.chanrecv1", "fugu/internal/sim.(*Proc).park",
			"fugu/internal/cpu.(*Task).Spend"}, "sim"},
		{[]string{"runtime.mapassign_faststr", "fugu/internal/metrics.(*Registry).Counter",
			"fugu/internal/nic.(*NI).UseMetrics"}, "observers"},
		{[]string{"fugu/internal/telemetry.(*Recorder).Sample"}, "observers"},
		{[]string{"fugu/internal/faultinject.(*Injector).SendDelay", "fugu/internal/mesh.(*Net).SendPacket"}, "other"},
		{[]string{"runtime.newobject", "main.buildBigMesh"}, "other"},
		// Generic instantiations keep their package.
		{[]string{"fugu/internal/sim.heapPush[go.shape.*fugu/internal/mesh.Packet]"}, "sim"},
		// No repo frame: GC workers, then everything else is scheduling.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2",
			"runtime.systemstack", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable",
			"runtime.schedule", "runtime.park_m", "runtime.mcall"}, "runtime.sched"},
		{nil, "runtime.sched"},
	} {
		if got := chargeLayer(c.stack); got != c.want {
			t.Errorf("chargeLayer(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestRollupSumsWeights(t *testing.T) {
	stacks := [][]string{
		{"runtime.mallocgc", "fugu/internal/vm.(*Space).Write"},
		{"fugu/internal/vm.(*Frames).alloc"},
		{"runtime.gopark", "fugu/internal/sim.(*Proc).park"},
		{"runtime.mcall"},
	}
	got := rollup(stacks, []int64{3, 4, 5, 6})
	want := map[string]int64{"vm": 7, "sim": 5, "runtime.sched": 6}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rollup = %v, want %v", got, want)
	}
}

func TestWalkProtoPackedAndUnpacked(t *testing.T) {
	// Field 1 packed [1, 300]; field 1 unpacked 7; field 2 bytes "ab".
	msg := []byte{0x0a, 0x03, 0x01, 0xac, 0x02, 0x08, 0x07, 0x12, 0x02, 'a', 'b'}
	var ids []uint64
	var s string
	err := walkProto(msg, func(field, wire int, v uint64, b []byte) error {
		switch field {
		case 1:
			ids = appendVarints(ids, wire, v, b)
		case 2:
			s = string(b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []uint64{1, 300, 7}) || s != "ab" {
		t.Errorf("decoded ids %v, string %q", ids, s)
	}
	if err := walkProto([]byte{0x0a, 0x05, 0x01}, func(int, int, uint64, []byte) error { return nil }); err == nil {
		t.Error("truncated message decoded without error")
	}
}

var spinSink uint64

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			spinSink += uint64(i) * spinSink
		}
	}
}

// A real profile from the runtime decodes, and its samples carry this
// package's spinning function.
func TestCPUProfileStacks(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, weights, err := cpuProfileStacks(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) == 0 {
		t.Skip("no CPU samples taken")
	}
	found := false
	for i, st := range stacks {
		if weights[i] <= 0 {
			t.Errorf("sample %d has weight %d", i, weights[i])
		}
		for _, fn := range st {
			if strings.HasSuffix(fn, ".spin") {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no sample names spin; first stack %v", stacks[0])
	}
}
