// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine owns a global event queue ordered by (time, sequence) and a set
// of coroutines (Proc) that run one at a time: the event loop resumes a proc
// to dispatch it and the proc yields back when it parks, so at any instant
// either the engine loop or exactly one Proc is executing. Given the
// same inputs and seed, a simulation is bit-reproducible, which the
// experiment harness relies on.
//
// Events are pooled: the structs behind fired or cancelled events return to
// a per-engine free list and are reissued by later Schedules, so the
// steady-state schedule/fire cycle performs no allocation. Callers never see
// an *Event; they hold a Handle — a (slot, generation) pair whose generation
// must still match the slot's for the handle to be live. Recycling a slot
// bumps its generation, so Cancel or Pending on a stale handle is a safe
// no-op rather than an attack on some unrelated event that happens to be
// renting the memory now.
package sim

// Event is one scheduled entry in the engine's queue. It is an internal
// pooled resource: exactly one of fn, fnArg or proc is set, selecting the
// callback flavor (plain closure, pre-bound function + argument, or a proc
// dispatch that needs no closure at all). Callers refer to events only
// through Handles.
type Event struct {
	at  uint64
	seq uint64

	fn    func()
	fnArg func(any)
	arg   any
	proc  *Proc

	gen   uint32 // bumped on release; Handles carry the gen they were issued at
	index int32  // far-heap slot, inWheel in a wheel bucket, -1 while not queued
	site  Site   // schedule-site label for the cost profiler (SiteMisc default)
	next  *Event // wheel-bucket link while queued there; free-list link while released
	prev  *Event // wheel-bucket back link

	// owner is the engine whose queue and free list hold this event — fixed
	// at first allocation. In a merged partition group an event can be
	// cancelled from another shard's code (a cross-shard wake), so Cancel
	// must reach the owning queue, not the caller's.
	owner *Engine
}

// Handle is a cancellable reference to a scheduled event. The zero Handle is
// valid and refers to no event. Handles are plain values: copying one copies
// the reference, and a Handle outliving its event (because the event fired,
// was cancelled, or its slot was recycled) is safe — it merely stops being
// Pending.
type Handle struct {
	ev  *Event
	gen uint32
}

// Pending reports whether the event is still queued and will fire. It is
// false for the zero Handle, after the event fires or is cancelled, and for
// a stale handle whose event slot has been recycled.
func (h Handle) Pending() bool {
	return h.ev != nil && h.ev.gen == h.gen && h.ev.index != -1
}

// Time returns the simulation time at which the event will fire, or 0 if the
// handle is no longer pending.
func (h Handle) Time() uint64 {
	if !h.Pending() {
		return 0
	}
	return h.ev.at
}
