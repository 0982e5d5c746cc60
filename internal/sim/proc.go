//go:build go1.23

package sim

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime/pprof"
	"strconv"
)

// Proc is a simulated coroutine built on iter.Pull: the event loop resumes
// it to dispatch it, and it yields back by parking (Park, Sleep, Yield).
// On a standalone engine a parking proc first runs the loop in place and
// skips the switch when its own wake comes next (see Engine.resumeInPlace).
// Exactly one proc or the engine loop executes at any moment, so proc code
// needs no locking. The coroutine is created at the first dispatch, so a
// spawned proc that never runs owns no goroutine.
type Proc struct {
	eng  *Engine
	name string
	fn   func(p *Proc)

	// next resumes the coroutine, stop unwinds it and yield parks it; all
	// three are set from the first dispatch until the proc finishes.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	slot  int // index in eng.started while the coroutine exists

	done bool
	wake Handle // pending wake event, if any (Sleep/WakeAfter bookkeeping)
	site Site   // profiler label of this proc's wake events (SetSite)

	// Tag is free for higher layers (e.g. the CPU scheduler) to attach
	// identity to a proc; the engine never touches it.
	Tag any
}

// errUnwind is what Park panics with in a proc that Engine.Close stops.
var errUnwind = errors.New("sim: proc unwound by Engine.Close")

// Spawn creates a proc running fn and schedules its first dispatch at the
// current time. fn runs in proc context: it may Park, Sleep, schedule events
// and wake other procs, and it keeps running until it parks or returns.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, fn: fn}
	e.live++
	p.wake = e.scheduleProc(0, p)
	return p
}

// run is the coroutine body.
func (p *Proc) run(yield func(struct{}) bool) {
	p.yield = yield
	defer p.finish()
	if e := p.eng; e.g != nil {
		// Label grouped procs so a CPU profile slices by partition, under
		// the experiment/point labels inherited from the harness worker.
		pprof.Do(context.Background(), pprof.Labels("partition", strconv.Itoa(e.part)), func(context.Context) { p.fn(p) })
	} else {
		p.fn(p)
	}
}

// finish retires a proc that returned, unwound or panicked. Only the unwind
// sentinel is swallowed; any other panic goes on to the caller of Run.
func (p *Proc) finish() {
	e := p.eng
	p.done = true
	e.live--
	last := e.started[len(e.started)-1]
	e.started[p.slot] = last
	last.slot = p.slot
	e.started[len(e.started)-1] = nil
	e.started = e.started[:len(e.started)-1]
	p.fn, p.next, p.stop, p.yield = nil, nil, nil, nil
	if r := recover(); r != nil && r != errUnwind {
		panic(r)
	}
}

// dispatch resumes p until it parks or finishes. Only the event loops call
// it, so no proc is running when it starts.
func (e *Engine) dispatch(p *Proc) {
	if p.done {
		panic(fmt.Sprintf("sim: dispatch of finished proc %s", p.name))
	}
	p.wake = Handle{}
	if p.next == nil {
		p.next, p.stop = iter.Pull(p.run)
		p.slot = len(e.started)
		e.started = append(e.started, p)
	}
	e.current = p
	p.next()
	e.current = nil
}

// Close unwinds every started, unfinished proc, running its deferred calls,
// and leaves procs never dispatched alone. Call it from outside the
// simulation once it is over or abandoned; a second Close is a no-op.
func (e *Engine) Close() {
	for len(e.started) > 0 {
		e.started[len(e.started)-1].stop()
	}
}

// Park blocks the proc until some event wakes it via Engine.Wake or
// Engine.WakeAfter. The caller must have arranged for such a wake, or the
// proc will sleep forever (and LiveProcs will expose the leak). If the
// engine is closed meanwhile, Park unwinds the proc instead of returning.
func (p *Proc) Park() {
	e := p.eng
	if e.current != p {
		panic(fmt.Sprintf("sim: %s parking while not running", p.name))
	}
	if e.g == nil && e.resumeInPlace(p) {
		return
	}
	if !p.yield(struct{}{}) {
		panic(errUnwind)
	}
}

// resumeInPlace runs a standalone engine's loop on the parking proc's own
// stack, firing callbacks (in engine context: Current is nil) until p's own
// wake is next, and then consumes that wake and reports true, so p resumes
// without a coroutine switch. It reports false, leaving the head queued, when
// the loop must go back to runLocal instead: the head wakes another proc, the
// queue is empty, the head lies beyond Limit, or the engine was stopped. A
// proc therefore never resumes another proc, so nothing nests or chains.
func (e *Engine) resumeInPlace(p *Proc) bool {
	e.current = nil
	for !e.stopped {
		ev := e.queue.peek()
		if ev == nil || e.Limit != 0 && ev.at > e.Limit || ev.proc != nil && ev.proc != p {
			break
		}
		if e.step(ev) != nil {
			p.wake = Handle{}
			e.current = p
			return true
		}
	}
	e.current = p
	return false
}

// Sleep blocks the proc for exactly n cycles. A Sleep cannot be interrupted;
// preemptible waiting is built by higher layers from WakeAfter + CancelWake.
func (p *Proc) Sleep(n uint64) {
	p.eng.WakeAfter(p, n)
	p.Park()
}

// Yield parks the proc and schedules it to resume at the current time, after
// any events already queued for this instant. It models giving way without
// consuming simulated time.
func (p *Proc) Yield() {
	p.eng.WakeAfter(p, 0)
	p.Park()
}

// SetSite labels the proc's wake events for the cost profiler: every
// subsequent WakeAfter (and, retroactively, a wake already pending — in
// particular the initial dispatch scheduled by Spawn) attributes to s.
func (p *Proc) SetSite(s Site) {
	p.site = s
	if p.wake.Pending() {
		p.wake.ev.site = s
	}
}

// Name returns the proc's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this proc belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Done reports whether the proc's function has returned.
func (p *Proc) Done() bool { return p.done }

// Now is a convenience for p.Engine().Now().
func (p *Proc) Now() uint64 { return p.eng.Now() }

// Wake schedules p to be dispatched at the current simulation time. Waking
// a proc that already has a pending wake is a caller bug and panics.
func (e *Engine) Wake(p *Proc) Handle {
	return e.WakeAfter(p, 0)
}

// WakeAfter schedules p to be dispatched after delay cycles and returns the
// event handle so the caller may cancel it (the basis of preemptible
// sleeps). The wake is carried by the event's proc field, not a closure, so
// this path does not allocate.
func (e *Engine) WakeAfter(p *Proc, delay uint64) Handle {
	if p.wake.Pending() {
		panic(fmt.Sprintf("sim: proc %s woken twice", p.name))
	}
	h := e.scheduleProc(delay, p)
	p.wake = h
	return h
}

// CancelWake cancels p's pending wake, if any, and reports whether a pending
// wake existed. After a successful CancelWake the caller owns the
// responsibility of waking p again.
func (e *Engine) CancelWake(p *Proc) bool {
	if p.wake.Pending() {
		e.Cancel(p.wake)
		p.wake = Handle{}
		return true
	}
	return false
}

// HasPendingWake reports whether p has a wake event queued.
func (p *Proc) HasPendingWake() bool { return p.wake.Pending() }
