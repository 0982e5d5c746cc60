package harness

import (
	"testing"

	"fugu/internal/apps"
)

// steadyAllocs returns the allocations per unit of work in a run's second
// half: a run at scale 2 minus a run at scale 1, divided by the extra work
// the larger run did. Machine construction, pool fill and the virtual
// buffer's page demand are paid once per run and cancel out, so what is
// left is the cost every further message pays.
func steadyAllocs(t *testing.T, run func(scale int) (work uint64)) float64 {
	t.Helper()
	var work [2]uint64
	var allocs [2]float64
	for i := range work {
		allocs[i] = testing.AllocsPerRun(1, func() { work[i] = run(i + 1) })
	}
	if work[1] <= work[0] {
		t.Fatalf("doubling the run did no extra work: %d then %d", work[0], work[1])
	}
	return (allocs[1] - allocs[0]) / float64(work[1]-work[0])
}

// TestSynthSteadyStateAllocs bounds the host allocations of a delivered
// message on a two-case run that mostly takes the second case: synth at
// 8% skew buffers most of its messages, and every delivery path (fast
// dispose, buffer insert, buffered extract) must recycle its packet and
// reuse its descriptor, so a message allocates nothing once the pools fill.
func TestSynthSteadyStateAllocs(t *testing.T) {
	var buffered uint64
	per := steadyAllocs(t, func(scale int) uint64 {
		rs := RunMultiprogrammedQ(func() apps.Instance { return apps.NewSynth(100, 4*scale, 20) }, 0.08, 1, 50_000, nil)
		if rs.Err != nil {
			t.Fatal(rs.Err)
		}
		buffered = rs.Buffered
		return rs.Fast + rs.Buffered
	})
	if buffered == 0 {
		t.Fatal("no message took the buffered path: the second case is untested")
	}
	t.Logf("%.4f allocations per delivered message (%d buffered at scale 2)", per, buffered)
	if per > 0.05 {
		t.Errorf("%.4f allocations per delivered message, want at most 0.05", per)
	}
}

// TestBigMeshSteadyStateAllocs bounds the host allocations of a packet on
// the serial bigmesh flood: one engine-wide free list recycles every
// delivered packet, so injections stop allocating once it fills.
func TestBigMeshSteadyStateAllocs(t *testing.T) {
	per := steadyAllocs(t, func(scale int) uint64 {
		cfg := smallBigMesh(1)
		cfg.Msgs *= scale
		res, err := RunBigMesh(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Delivered
	})
	t.Logf("%.4f allocations per packet", per)
	if per > 0.01 {
		t.Errorf("%.4f allocations per packet, want at most 0.01", per)
	}
}
