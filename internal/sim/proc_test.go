package sim

import (
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

func TestCloseUnwindsMergedGroupShards(t *testing.T) {
	base := runtime.NumGoroutine()
	g := NewMergedGroup(1, 2)
	for i := 0; i < g.Parts(); i++ {
		g.Shard(i).Spawn("stuck", func(p *Proc) { p.Park() })
	}
	g.Shard(0).Run()
	for i := 0; i < g.Parts(); i++ {
		g.Shard(i).Close()
	}
	if got := g.Shard(0).LiveProcs(); got != 0 {
		t.Errorf("LiveProcs = %d after closing every shard, want 0", got)
	}
	if n := settledGoroutines(base); n != base {
		t.Errorf("goroutines = %d after Close, want the baseline %d", n, base)
	}
}
