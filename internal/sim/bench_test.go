package sim

import "testing"

// The benchmarks below pin the engine's hot paths. The headline property is
// the allocs/op column: once the event pool is warm, schedule+fire,
// schedule+cancel and the wake/sleep paths must all run allocation-free —
// the Event structs recycle through the free list and proc wakes ride the
// event's proc field instead of a closure.

// BenchmarkSchedule measures the schedule+fire cycle: one event scheduled
// and run to completion per iteration.
func BenchmarkSchedule(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(1, fn)
		e.Run()
	}
}

// BenchmarkScheduleCancel measures the schedule+cancel cycle, the pattern of
// re-armed timeouts (the NI atomicity timer, preemptible sleeps).
func BenchmarkScheduleCancel(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := e.Schedule(100, fn)
		e.Cancel(h)
	}
}

// BenchmarkScheduleWake measures the proc wake path: a single proc sleeping
// one cycle at a time. Its own wake is always next, so the parked proc
// consumes it in place and resumes without a coroutine switch; each
// iteration is one schedule and one event step. The proc-carrying wake
// event allocates nothing.
func BenchmarkScheduleWake(b *testing.B) {
	e := NewEngine(1)
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkBatonRoundTrip measures a cross-proc round trip: two procs
// waking each other alternately, so each iteration is two coroutine
// switches out to the event loop and two back in.
func BenchmarkBatonRoundTrip(b *testing.B) {
	e := NewEngine(1)
	defer e.Close() // pong is left parked
	var pa, pb *Proc
	pa = e.Spawn("ping", func(p *Proc) {
		// Let pong consume its spawn dispatch and park before the first wake.
		p.Yield()
		for i := 0; i < b.N; i++ {
			e.Wake(pb)
			p.Park()
		}
		e.Stop()
	})
	pb = e.Spawn("pong", func(p *Proc) {
		for {
			p.Park()
			if e.Stopped() {
				return
			}
			e.Wake(pa)
		}
	})
	_ = pa
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkHeapChurn measures cancel+reschedule against a deep queue: the
// 4-ary heap's middle-removal and insert with ~1k events pending. Every
// event is a million or more cycles out, far beyond the timing wheel, so
// this exercises the far heap alone.
func BenchmarkHeapChurn(b *testing.B) {
	e := NewEngine(7)
	fn := func() {}
	const pending = 1024
	hs := make([]Handle, pending)
	for i := range hs {
		hs[i] = e.Schedule(1_000_000+e.Rand().Uint64n(1_000_000), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % pending
		e.Cancel(hs[j])
		hs[j] = e.Schedule(1_000_000+e.Rand().Uint64n(1_000_000), fn)
	}
}

// BenchmarkDeepScheduleFire measures schedule+fire with 4096 events
// pending and delays of 1 to 200 cycles: the shape of a 64x64 mesh in which
// every node keeps an injection outstanding. Each iteration fires one
// event, which schedules its successor.
func BenchmarkDeepScheduleFire(b *testing.B) {
	const depth = 4096
	e := NewEngine(1)
	rng := NewRand(1)
	fired := 0
	var fn func()
	fn = func() {
		fired++
		if fired >= b.N {
			e.Stop()
			return
		}
		e.Schedule(1+rng.Uint64n(200), fn)
	}
	for i := 0; i < depth; i++ {
		e.Schedule(1+rng.Uint64n(200), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
