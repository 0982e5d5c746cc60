package sim

import (
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	end := e.Run()
	if end != 30 {
		t.Errorf("final time = %d, want 30", end)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("same-time events fired out of order: %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	e.Schedule(5, func() { e.Cancel(ev) })
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if ev.Pending() {
		t.Error("cancelled event still pending")
	}
	// Double cancel and the zero Handle must be no-ops.
	e.Cancel(ev)
	e.Cancel(Handle{})
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine(1)
	var got []int
	evs := make([]Handle, 20)
	for i := range evs {
		i := i
		evs[i] = e.Schedule(uint64(i+1), func() { got = append(got, i) })
	}
	// Cancel every third event before running.
	for i := 0; i < len(evs); i += 3 {
		e.Cancel(evs[i])
	}
	e.Run()
	for _, v := range got {
		if v%3 == 0 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
	if len(got) != 13 {
		t.Errorf("got %d events, want 13", len(got))
	}
}

func TestScheduleAt(t *testing.T) {
	e := NewEngine(1)
	var at uint64
	e.Schedule(5, func() {
		e.ScheduleAt(42, func() { at = e.Now() })
	})
	e.Run()
	if at != 42 {
		t.Errorf("event fired at %d, want 42", at)
	}
}

func TestScheduleAtPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("ScheduleAt in the past did not panic")
			}
		}()
		e.ScheduleAt(5, func() {})
	})
	e.Run()
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(uint64(i), func() { count++ })
	}
	e.Schedule(5, func() { e.Stop() })
	e.Run()
	if count != 5 {
		t.Errorf("ran %d events before stop, want 5", count)
	}
	if !e.Stopped() {
		t.Error("Stopped() = false after Stop")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(uint64(i*10), func() { count++ })
	}
	e.RunUntil(50)
	if count != 5 {
		t.Errorf("count = %d at t=50, want 5", count)
	}
	if e.Now() != 50 {
		t.Errorf("Now() = %d, want 50", e.Now())
	}
	e.Run()
	if count != 10 {
		t.Errorf("count = %d after full run, want 10", count)
	}
}

// TestRunUntilStepsPastPendingEvent covers the Limit push-back path: a
// RunUntil loop stepping up to (but not reaching) a future event must leave
// that event queued and pending the whole way — the engine peeks rather than
// popping and re-inserting it each step — and the event must fire exactly
// once, including at the boundary where its time equals the limit.
func TestRunUntilStepsPastPendingEvent(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	h := e.Schedule(1000, func() { fired++ })
	for tm := uint64(10); tm < 1000; tm += 10 {
		e.RunUntil(tm)
		if e.Now() != tm {
			t.Fatalf("Now() = %d after RunUntil(%d)", e.Now(), tm)
		}
		if !h.Pending() {
			t.Fatalf("event not pending at t=%d", tm)
		}
		if h.Time() != 1000 {
			t.Fatalf("event time drifted to %d", h.Time())
		}
		if e.Pending() != 1 {
			t.Fatalf("queue length %d at t=%d, want 1", e.Pending(), tm)
		}
		if fired != 0 {
			t.Fatalf("event fired early at t=%d", tm)
		}
	}
	// Boundary: an event at exactly the limit fires.
	e.RunUntil(1000)
	if fired != 1 {
		t.Fatalf("fired %d times at the boundary, want 1", fired)
	}
	if h.Pending() {
		t.Error("fired event still pending")
	}
	// A drained queue leaves the clock at the last event time: the limit
	// only pins Now when a future event was actually deferred.
	e.RunUntil(1200)
	if e.Now() != 1000 || fired != 1 {
		t.Errorf("Now() = %d fired = %d after draining", e.Now(), fired)
	}
}

// TestHandleStaleAfterRecycle checks the generation counter: once an event
// fires and its slot is recycled by a later Schedule, the old handle must
// read as not pending and its Cancel must not touch the new tenant.
func TestHandleStaleAfterRecycle(t *testing.T) {
	e := NewEngine(1)
	old := e.Schedule(1, func() {})
	e.Run()
	if old.Pending() {
		t.Fatal("fired event still pending")
	}
	fired := false
	fresh := e.Schedule(5, func() { fired = true }) // reuses the pooled slot
	e.Cancel(old)                                   // stale: must be a no-op
	if !fresh.Pending() {
		t.Fatal("stale Cancel killed the slot's new event")
	}
	e.Run()
	if !fired {
		t.Error("recycled event did not fire")
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine(1)
	depth := 0
	var chain func()
	chain = func() {
		depth++
		if depth < 100 {
			e.Schedule(1, chain)
		}
	}
	e.Schedule(0, chain)
	end := e.Run()
	if depth != 100 {
		t.Errorf("chain depth = %d, want 100", depth)
	}
	if end != 99 {
		t.Errorf("end time = %d, want 99", end)
	}
}

func TestZeroDelaySameInstant(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Schedule(10, func() {
		order = append(order, "a")
		e.Schedule(0, func() { order = append(order, "c") })
	})
	e.Schedule(10, func() { order = append(order, "b") })
	e.Run()
	want := "abc"
	got := ""
	for _, s := range order {
		got += s
	}
	if got != want {
		t.Errorf("order %q, want %q", got, want)
	}
}

// TestDeterminism runs a randomized workload twice with equal seeds and once
// with a different seed, checking trace equality/divergence.
func TestDeterminism(t *testing.T) {
	trace := func(seed uint64) []uint64 {
		e := NewEngine(seed)
		var tr []uint64
		var step func()
		n := 0
		step = func() {
			tr = append(tr, e.Now())
			n++
			if n < 500 {
				e.Schedule(e.Rand().Uint64n(100)+1, step)
			}
		}
		e.Schedule(0, step)
		e.Run()
		return tr
	}
	a, b, c := trace(7), trace(7), trace(8)
	if len(a) != len(b) {
		t.Fatal("same seed, different trace length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	same := len(a) == len(c)
	if same {
		same = false
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
			same = true
		}
	}
	if same {
		t.Error("different seeds produced identical traces (suspicious)")
	}
}

// Property: for any batch of (delay, id) pairs, events fire in nondecreasing
// time order and same-time events fire in submission order.
func TestScheduleOrderProperty(t *testing.T) {
	prop := func(delays []uint8) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine(3)
		type fired struct {
			at  uint64
			idx int
		}
		var got []fired
		for i, d := range delays {
			i, d := i, uint64(d)
			e.Schedule(d, func() { got = append(got, fired{e.Now(), i}) })
		}
		e.Run()
		if len(got) != len(delays) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].idx < got[i-1].idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
