package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

func TestProcSleep(t *testing.T) {
	e := NewEngine(1)
	var times []uint64
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10)
			times = append(times, p.Now())
		}
	})
	e.Run()
	want := []uint64{10, 20, 30}
	for i, w := range want {
		if times[i] != w {
			t.Fatalf("wake times = %v, want %v", times, want)
		}
	}
	if e.LiveProcs() != 0 {
		t.Errorf("LiveProcs = %d after completion, want 0", e.LiveProcs())
	}
}

func TestTwoProcsInterleave(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10)
			order = append(order, "a")
		}
	})
	e.Spawn("b", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(15)
			order = append(order, "b")
		}
	})
	e.Run()
	got := ""
	for _, s := range order {
		got += s
	}
	// a wakes at 10,20,30; b at 15,30,45. At the t=30 tie, b's wake was
	// scheduled earlier (when b parked at 15) so b runs first.
	if got != "ababab" {
		t.Errorf("interleave = %q, want ababab", got)
	}
}

func TestParkAndWake(t *testing.T) {
	e := NewEngine(1)
	var woke uint64
	p := e.Spawn("parker", func(p *Proc) {
		p.Park()
		woke = p.Now()
	})
	e.Schedule(100, func() { e.Wake(p) })
	e.Run()
	if woke != 100 {
		t.Errorf("woke at %d, want 100", woke)
	}
}

func TestCancelWake(t *testing.T) {
	e := NewEngine(1)
	var woke uint64
	p := e.Spawn("p", func(p *Proc) {
		// Arranged wake at 50 will be cancelled and replaced by one at 80.
		p.Engine().WakeAfter(p, 50)
		p.Park()
		woke = p.Now()
	})
	e.Schedule(10, func() {
		if !e.CancelWake(p) {
			t.Error("CancelWake found no pending wake")
		}
		e.WakeAfter(p, 70) // 10+70 = 80
	})
	e.Run()
	if woke != 80 {
		t.Errorf("woke at %d, want 80", woke)
	}
}

func TestDoubleWakePanics(t *testing.T) {
	e := NewEngine(1)
	p := e.Spawn("p", func(p *Proc) { p.Park() })
	e.Schedule(5, func() {
		e.Wake(p)
		defer func() {
			if recover() == nil {
				t.Error("double wake did not panic")
			}
		}()
		e.Wake(p)
	})
	e.Run()
	_ = p
}

func TestYieldRunsAfterQueuedEvents(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Spawn("y", func(p *Proc) {
		p.Sleep(10)
		order = append(order, "proc-before")
		// An event queued for this same instant must run during the Yield.
		e.Schedule(0, func() { order = append(order, "event") })
		p.Yield()
		order = append(order, "proc-after")
	})
	e.Run()
	want := []string{"proc-before", "event", "proc-after"}
	for i, w := range want {
		if i >= len(order) || order[i] != w {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestLiveProcsLeakDetection(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("stuck", func(p *Proc) { p.Park() }) // never woken
	e.Spawn("fine", func(p *Proc) { p.Sleep(5) })
	e.Run()
	if e.LiveProcs() != 1 {
		t.Errorf("LiveProcs = %d, want 1 (the stuck proc)", e.LiveProcs())
	}
}

func TestProcTagAndName(t *testing.T) {
	e := NewEngine(1)
	p := e.Spawn("tagged", func(p *Proc) {
		p.Tag = 42
	})
	e.Run()
	if p.Name() != "tagged" {
		t.Errorf("Name = %q", p.Name())
	}
	if p.Tag != 42 {
		t.Errorf("Tag = %v, want 42", p.Tag)
	}
	if !p.Done() {
		t.Error("Done = false after run")
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := NewEngine(1)
	var childRan uint64
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(10)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(5)
			childRan = c.Now()
		})
		p.Sleep(100)
	})
	e.Run()
	if childRan != 15 {
		t.Errorf("child ran at %d, want 15", childRan)
	}
}

func TestCondFIFO(t *testing.T) {
	e := NewEngine(1)
	c := NewCond(e)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("w", func(p *Proc) {
			p.Sleep(uint64(i + 1)) // stagger arrival order
			c.Wait(p)
			order = append(order, i)
		})
	}
	e.Schedule(100, func() {
		if c.Waiters() != 3 {
			t.Errorf("Waiters = %d, want 3", c.Waiters())
		}
		c.Signal()
	})
	e.Schedule(200, func() { c.Broadcast() })
	e.Run()
	want := []int{0, 1, 2}
	for i, w := range want {
		if i >= len(order) || order[i] != w {
			t.Fatalf("wake order = %v, want %v", order, want)
		}
	}
}

func TestCondSignalEmpty(t *testing.T) {
	e := NewEngine(1)
	c := NewCond(e)
	if c.Signal() {
		t.Error("Signal on empty cond returned true")
	}
	if n := c.Broadcast(); n != 0 {
		t.Errorf("Broadcast on empty cond = %d, want 0", n)
	}
}

func TestProcPanicReachesRun(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("bystander", func(p *Proc) { p.Park() })
	e.Spawn("faulty", func(p *Proc) {
		p.Sleep(10)
		panic("boom in proc")
	})
	defer e.Close()
	defer func() {
		if r := recover(); r != "boom in proc" {
			t.Errorf("Run panicked with %v, want the proc's panic value", r)
		}
		if e.LiveProcs() != 1 {
			t.Errorf("LiveProcs = %d after the panic, want 1 (the bystander)", e.LiveProcs())
		}
	}()
	e.Run()
	t.Error("Run returned normally past a panicking proc")
}

// settledGoroutines waits briefly for exiting goroutines to leave the count
// and then reports it.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n != want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func TestCloseUnwindsParkedProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	const parked = 5
	unwound := 0
	for i := 0; i < parked; i++ {
		e.Spawn("stuck", func(p *Proc) {
			defer func() { unwound++ }()
			p.Sleep(uint64(i))
			p.Park() // never woken
			t.Error("parked proc resumed")
		})
	}
	e.Spawn("sleeper", func(p *Proc) {
		defer func() { unwound++ }()
		p.Sleep(1_000)
	})
	e.Spawn("stopper", func(p *Proc) {
		p.Sleep(100)
		e.Stop()
		// Spawned while stopping: its first dispatch never happens.
		e.Spawn("unrun", func(*Proc) { t.Error("unrun proc ran") })
	})
	e.Run()
	if n := settledGoroutines(base + parked + 1); n != base+parked+1 {
		t.Errorf("goroutines = %d with %d procs parked, want %d: an unrun or finished proc holds one", n, parked+1, base+parked+1)
	}
	e.Close()
	if unwound != parked+1 {
		t.Errorf("%d deferred calls ran, want %d", unwound, parked+1)
	}
	if e.LiveProcs() != 1 {
		t.Errorf("LiveProcs = %d after Close, want 1 (the unrun proc)", e.LiveProcs())
	}
	if n := settledGoroutines(base); n != base {
		t.Errorf("goroutines = %d after Close, want the baseline %d", n, base)
	}
	e.Close()
	if unwound != parked+1 {
		t.Errorf("second Close ran %d more deferred calls", unwound-parked-1)
	}
}

// onProcStack reports whether the caller runs on a proc's coroutine stack
// below Park, which is where a standalone engine fires the callbacks that
// come due while a proc waits for its own wake.
func onProcStack() bool {
	pc := make([]uintptr, 64)
	frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
	for {
		f, more := frames.Next()
		if f.Function == "fugu/internal/sim.(*Proc).Park" {
			return true
		}
		if !more {
			return false
		}
	}
}

func TestSelfResumeKeepsEventOrder(t *testing.T) {
	e := NewEngine(1)
	var order []string
	// note records a callback; inPlace says whether it comes due while the
	// proc is parked, and so runs on the proc's stack.
	note := func(s string, inPlace bool) func() {
		return func() {
			if e.Current() != nil {
				t.Errorf("%s: Current = %v in a callback, want nil", s, e.Current().Name())
			}
			if onProcStack() != inPlace {
				t.Errorf("%s: on the parked proc's stack = %v, want %v", s, !inPlace, inPlace)
			}
			order = append(order, s)
		}
	}
	e.Spawn("sleeper", func(p *Proc) {
		e.Schedule(10, note("before", true)) // queued ahead of the wake for t=10
		e.Schedule(5, func() {
			note("mid", true)()
			e.Schedule(5, note("after", false)) // queued behind the wake for t=10
		})
		p.Sleep(10)
		if e.Current() != p {
			t.Errorf("Current = %v after resuming, want the proc", e.Current())
		}
		if p.HasPendingWake() {
			t.Error("wake still pending after resuming")
		}
		order = append(order, "proc")
	})
	e.Run()
	want := "[mid before proc after]"
	if got := fmt.Sprint(order); got != want {
		t.Errorf("order = %s, want %s", got, want)
	}
	if e.Now() != 10 || e.LiveProcs() != 0 {
		t.Errorf("Now = %d, LiveProcs = %d; want 10 and 0", e.Now(), e.LiveProcs())
	}
}

func TestSelfResumeStop(t *testing.T) {
	e := NewEngine(1)
	var resumed uint64
	p := e.Spawn("sleeper", func(p *Proc) {
		e.Schedule(5, e.Stop)
		p.Sleep(10)
		resumed = p.Now()
	})
	if end := e.Run(); end != 5 {
		t.Errorf("Run stopped at %d, want 5", end)
	}
	if resumed != 0 || !p.HasPendingWake() || e.LiveProcs() != 1 || e.Current() != nil {
		t.Fatalf("after Stop: resumed=%d pending=%v live=%d current=%v; want the proc parked with its wake queued",
			resumed, p.HasPendingWake(), e.LiveProcs(), e.Current())
	}
	e.Run()
	if resumed != 10 || e.LiveProcs() != 0 {
		t.Errorf("second Run: resumed at %d with %d live, want 10 and 0", resumed, e.LiveProcs())
	}
}

func TestSelfResumeRunUntil(t *testing.T) {
	e := NewEngine(1)
	var resumed uint64
	fired := 0
	p := e.Spawn("sleeper", func(p *Proc) {
		e.Schedule(5, func() { fired++ })
		p.Sleep(100)
		resumed = p.Now()
	})
	for _, step := range []uint64{10, 50} {
		if now := e.RunUntil(step); now != step || e.Now() != step {
			t.Errorf("RunUntil(%d) = %d, Now = %d", step, now, e.Now())
		}
		if !p.HasPendingWake() || p.wake.Time() != 100 || resumed != 0 {
			t.Fatalf("RunUntil(%d): wake pending=%v at %d, resumed=%d; want the wake for 100 still queued",
				step, p.HasPendingWake(), p.wake.Time(), resumed)
		}
	}
	e.Run()
	if resumed != 100 || fired != 1 {
		t.Errorf("resumed at %d with %d callback firings, want 100 and 1", resumed, fired)
	}
}

func TestSelfResumeCallbackPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	unwound := 0
	e.Spawn("bystander", func(p *Proc) {
		defer func() { unwound++ }()
		p.Park() // never woken
	})
	e.Spawn("victim", func(p *Proc) {
		defer func() { unwound++ }()
		e.Schedule(5, func() { panic("boom in callback") })
		p.Sleep(10)
		t.Error("victim resumed past a panicking callback")
	})
	func() {
		defer func() {
			if r := recover(); r != "boom in callback" {
				t.Errorf("Run panicked with %v, want the callback's panic value", r)
			}
		}()
		e.Run()
		t.Error("Run returned normally past a panicking callback")
	}()
	if unwound != 1 || e.LiveProcs() != 1 {
		t.Errorf("after the panic: %d procs unwound, LiveProcs = %d; want 1 and 1 (the bystander)", unwound, e.LiveProcs())
	}
	e.Close()
	if unwound != 2 || e.LiveProcs() != 0 {
		t.Errorf("after Close: %d procs unwound, LiveProcs = %d; want 2 and 0", unwound, e.LiveProcs())
	}
	if n := settledGoroutines(base); n != base {
		t.Errorf("goroutines = %d after Close, want the baseline %d", n, base)
	}
}
