package harness

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"fugu/internal/cpu"
	"fugu/internal/glaze"
)

func TestRunnerProcPanicBecomesPointError(t *testing.T) {
	points := []Point{
		{Label: "healthy", Run: func(context.Context, Options) (any, error) { return 1, nil }},
		{Label: "faulty-task", Run: func(context.Context, Options) (any, error) {
			m := glaze.NewMachine(glaze.NewConfig(glaze.WithMesh(2, 1)))
			defer m.Close()
			job := m.NewJob("faulty")
			job.Process(1).StartMain(func(tk *cpu.Task) { tk.Spend(10) })
			job.Process(0).StartMain(func(tk *cpu.Task) {
				tk.Spend(100)
				panic("boom in task")
			})
			m.NewGang(1<<40, 0, job).Start()
			m.RunUntilDone(0, job)
			return 2, nil
		}},
	}
	_, err := new(Runner).Run(context.Background(), sliceExperiment(points), WithParallelism(2))
	if err == nil {
		t.Fatal("a panicking simulated task did not surface as an error")
	}
	if msg := err.Error(); !strings.Contains(msg, "boom in task") || !strings.Contains(msg, "faulty-task") {
		t.Errorf("error does not carry the task's panic and point: %v", err)
	}
}

// settledGoroutines waits briefly for exiting goroutines (sweep workers past
// their last point) to leave the count and then reports it.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(2 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestRepeatedSweepsReleaseMachines runs one experiment several times in a
// process: every machine it builds must be released, so goroutines stay
// flat and the live heap does not grow with the number of sweeps.
func TestRepeatedSweepsReleaseMachines(t *testing.T) {
	const runs = 3
	var goroutines []int
	var heap []uint64
	for i := 0; i < runs; i++ {
		if _, err := Crucible(WithQuick(), WithTrials(1), WithParallelism(2)); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		goroutines = append(goroutines, settledGoroutines())
		heap = append(heap, ms.HeapInuse)
	}
	t.Logf("goroutines %v, HeapInuse %v", goroutines, heap)
	for i := 1; i < runs; i++ {
		if goroutines[i] > goroutines[0] {
			t.Errorf("goroutines grew from %d to %d over %d runs", goroutines[0], goroutines[i], i+1)
		}
	}
	const slack = 4 << 20
	if heap[runs-1] > heap[0]+slack {
		t.Errorf("HeapInuse grew from %d to %d bytes over %d runs", heap[0], heap[runs-1], runs)
	}
}
