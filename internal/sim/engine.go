package sim

import (
	"fmt"

	"fugu/internal/metrics"
)

// Engine is a deterministic discrete-event simulator. It is not safe for
// concurrent use: the event loop and its procs take turns on one logical
// thread, because a proc runs only between its dispatch and its next park.
type Engine struct {
	now     uint64
	seq     uint64
	free    *Event // recycled event structs (see event.go)
	current *Proc  // proc currently running, nil in engine context
	stopped bool
	live    int     // number of live (spawned, not finished) procs
	started []*Proc // procs whose coroutine exists and has not finished (Close unwinds them)

	// Limit, when nonzero, bounds simulated time: Run returns once the
	// next event would fire after Limit.
	Limit uint64

	rng *Rand

	events *metrics.Counter // dispatched events ("sim.events"), nil-safe
	prof   *Profiler        // schedule-site cost attribution, nil when disabled

	// g and part place the engine inside a partition group (see
	// partition.go); both stay zero for a standalone engine, and every
	// grouped branch below is a single predictable nil check on the
	// standalone hot path.
	g    *Group
	part int

	queue eventQueue
}

// UseMetrics binds the engine's instruments into a registry. The engine
// counts every dispatched event under "sim.events" — a cheap proxy for how
// much simulated activity a run generated.
func (e *Engine) UseMetrics(r *metrics.Registry) {
	e.events = r.Counter("sim.events")
}

// NewEngine returns an engine with the given RNG seed. A zero seed is
// replaced with a fixed default so the zero-ish configuration stays
// deterministic.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRand(seed)}
}

// Now returns the current simulation time in cycles. Shards of a merged
// group share one clock.
func (e *Engine) Now() uint64 {
	if e.g != nil && e.g.mode == Merged {
		return e.g.now
	}
	return e.now
}

// Rand returns the engine's deterministic random source. Shards of a merged
// group share one stream (they interleave in one global order); parallel
// shards each own an independent stream.
func (e *Engine) Rand() *Rand { return e.rng }

// alloc takes an event from the free list (or the allocator, while the pool
// is still growing) and stamps it with the fire time and the next sequence
// number.
func (e *Engine) alloc(delay uint64) *Event {
	ev := e.free
	if ev == nil {
		ev = &Event{owner: e}
	} else {
		e.free = ev.next
		ev.next = nil
	}
	if g := e.g; g != nil && g.mode == Merged {
		// Merged shards share the clock and the sequence counter, so
		// schedule order — and therefore every tie-break — is the global
		// order a single serial engine would have issued.
		ev.at = g.now + delay
		ev.seq = g.seq
		g.seq++
	} else {
		ev.at = e.now + delay
		ev.seq = e.seq
		e.seq++
	}
	ev.site = SiteMisc
	return ev
}

// release retires a fired or cancelled event to the free list. Bumping the
// generation invalidates every outstanding Handle to it; clearing the
// callback fields drops references the pool must not keep alive.
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	ev.fnArg = nil
	ev.arg = nil
	ev.proc = nil
	ev.gen++
	ev.next = e.free
	e.free = ev
}

// Schedule registers fn to run at now+delay and returns a cancellable handle.
// fn runs in engine context; it may wake procs, schedule further events, or
// stop the engine, but must not block.
func (e *Engine) Schedule(delay uint64, fn func()) Handle {
	ev := e.alloc(delay)
	ev.fn = fn
	e.queue.push(ev)
	return Handle{ev, ev.gen}
}

// ScheduleArg registers fn(arg) to run at now+delay. It exists for hot paths
// that would otherwise build a fresh closure per call: the caller binds fn
// once (a stored func(any)) and passes the varying state as arg, so a send
// or a timer re-arm costs no allocation. A pointer-typed arg does not
// allocate when boxed.
func (e *Engine) ScheduleArg(delay uint64, fn func(any), arg any) Handle {
	ev := e.alloc(delay)
	ev.fnArg = fn
	ev.arg = arg
	e.queue.push(ev)
	return Handle{ev, ev.gen}
}

// scheduleProc registers a dispatch of p at now+delay — the wake path.
// Storing the proc on the event (rather than a func(){ e.dispatch(p) }
// closure) is what makes Wake/Sleep allocation-free. Wakes inherit the
// proc's site label, so a task's resume events attribute to its domain.
func (e *Engine) scheduleProc(delay uint64, p *Proc) Handle {
	ev := e.alloc(delay)
	ev.proc = p
	ev.site = p.site
	e.queue.push(ev)
	return Handle{ev, ev.gen}
}

// ScheduleAt registers fn to run at absolute time at (which must not be in
// the past) and returns a cancellable handle.
func (e *Engine) ScheduleAt(at uint64, fn func()) Handle {
	now := e.Now()
	if at < now {
		panic(fmt.Sprintf("sim: ScheduleAt(%d) in the past (now=%d)", at, now))
	}
	return e.Schedule(at-now, fn)
}

// ScheduleArgAt is ScheduleArg with an absolute fire time.
func (e *Engine) ScheduleArgAt(at uint64, fn func(any), arg any) Handle {
	now := e.Now()
	if at < now {
		panic(fmt.Sprintf("sim: ScheduleArgAt(%d) in the past (now=%d)", at, now))
	}
	return e.ScheduleArg(at-now, fn, arg)
}

// ScheduleSite is Schedule with a profiler site label: the event's
// dispatch cost is attributed to site instead of SiteMisc. Identical
// semantics and cost otherwise.
func (e *Engine) ScheduleSite(site Site, delay uint64, fn func()) Handle {
	h := e.Schedule(delay, fn)
	h.ev.site = site
	return h
}

// ScheduleArgSite is ScheduleArg with a profiler site label.
func (e *Engine) ScheduleArgSite(site Site, delay uint64, fn func(any), arg any) Handle {
	h := e.ScheduleArg(delay, fn, arg)
	h.ev.site = site
	return h
}

// ScheduleArgAtSite is ScheduleArgAt with a profiler site label.
func (e *Engine) ScheduleArgAtSite(site Site, at uint64, fn func(any), arg any) Handle {
	h := e.ScheduleArgAt(at, fn, arg)
	h.ev.site = site
	return h
}

// Cancel removes a pending event; cancelling an already-fired, already-
// cancelled or zero handle is a no-op. The removal happens on the owning
// engine's queue, so cancelling a cross-shard wake inside a merged group is
// safe.
func (e *Engine) Cancel(h Handle) {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.index == -1 {
		return
	}
	ow := ev.owner
	ow.queue.remove(ev)
	ow.release(ev)
}

// Stop makes Run return after the current event completes. Stopping any
// shard of a merged group stops the whole group; in a parallel group the
// stopping shard's window ends and the coordinator stops at its barrier
// (other shards finish their current window — the conservative semantics).
func (e *Engine) Stop() {
	if g := e.g; g != nil {
		if g.mode == Merged {
			g.stopped = true
			return
		}
		e.stopped = true
		g.parStop.Store(true)
		return
	}
	e.stopped = true
}

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool {
	if g := e.g; g != nil && g.mode == Merged {
		return g.stopped
	}
	return e.stopped
}

// Run executes events until the queue empties, Stop is called, or the time
// Limit is exceeded. It returns the final simulation time. A Stop from a
// previous Run does not carry over: each Run starts live. Running any shard
// of a partition group drives the whole group (see partition.go).
func (e *Engine) Run() uint64 {
	if e.g != nil {
		return e.g.run(e)
	}
	return e.runLocal()
}

// runLocal is the serial event loop over this engine's own queue — the whole
// story for a standalone engine, and one shard's share of a parallel window
// (the group coordinator bounds it with Limit).
func (e *Engine) runLocal() uint64 {
	if e.current != nil {
		panic("sim: Run called from proc context")
	}
	e.stopped = false
	for !e.stopped {
		ev := e.queue.peek()
		if ev == nil {
			break
		}
		if e.Limit != 0 && ev.at > e.Limit {
			// Leave the event queued: peeking (rather than pop + push-back)
			// means a RunUntil loop stepping below the next event's time
			// does no queue work per step.
			e.now = e.Limit
			break
		}
		if p := e.step(ev); p != nil {
			e.dispatch(p)
		}
	}
	return e.now
}

// step removes ev, the event peek just returned, advances the clock to it
// and runs its callback. A proc wake is not dispatched but returned, so the
// caller decides how the proc resumes: runLocal dispatches it, and
// resumeInPlace returns into it. Both loops step through here, so they
// cannot drift apart.
func (e *Engine) step(ev *Event) *Proc {
	e.queue.take(ev)
	if ev.at < e.now {
		panic("sim: event queue went backwards")
	}
	e.now = ev.at
	e.events.Inc()
	if e.prof != nil {
		e.prof.tick(ev.site, e.now)
	}
	// Copy the callback out and recycle the slot first, so the callback
	// itself can schedule into the freed slot.
	if p := ev.proc; p != nil {
		e.release(ev)
		return p
	}
	if fn := ev.fn; fn != nil {
		e.release(ev)
		fn()
	} else {
		fn, arg := ev.fnArg, ev.arg
		e.release(ev)
		fn(arg)
	}
	return nil
}

// RunUntil executes events up to and including time t, then returns. Events
// scheduled after t remain queued.
func (e *Engine) RunUntil(t uint64) uint64 {
	saved := e.Limit
	e.Limit = t
	end := e.Run()
	e.Limit = saved
	return end
}

// Pending reports how many events remain queued (across every shard, for a
// grouped engine).
func (e *Engine) Pending() int {
	if g := e.g; g != nil {
		total := 0
		for _, sh := range g.shards {
			total += sh.queue.len()
		}
		return total
	}
	return e.queue.len()
}

// LiveProcs reports how many spawned procs have not yet returned (across
// every shard, for a grouped engine). A nonzero value after Run drains the
// queue usually indicates deadlock: procs parked with nobody left to wake
// them.
func (e *Engine) LiveProcs() int {
	if g := e.g; g != nil {
		total := 0
		for _, sh := range g.shards {
			total += sh.live
		}
		return total
	}
	return e.live
}

// Current returns the proc currently running, or nil when the engine loop
// (or an event callback) is executing.
func (e *Engine) Current() *Proc { return e.current }
