package sim

import "math/bits"

// wheelSize is the number of one-cycle buckets in the near-term timing
// wheel: events due within this many cycles of the last pop skip the heap.
const (
	wheelSize = 512
	wheelMask = wheelSize - 1
)

// inWheel is the Event.index marker for an event linked into a wheel
// bucket (heap slots are >= 0, unqueued events are -1).
const inWheel = -2

// eventQueue is the engine's pending-event set, ordered by (at, seq). It
// is a hashed timing wheel (Varghese & Lauck, SOSP 1987) with one-cycle
// buckets for near-term events, in front of the 4-ary eventHeap for the
// rest.
//
// base is the time of the last pop, a lower bound on every queued event.
// The wheel holds exactly the events with at in [base, base+wheelSize),
// each in bucket at&wheelMask; the far heap holds every event at or beyond
// base+wheelSize. Within that window distinct times map to distinct
// buckets, so a bucket holds one time and keeps its events in seq order,
// and the first occupied bucket at or after base (circularly) holds the
// minimum. When a pop advances base, far events that entered the window
// migrate into the wheel in the heap's (at, seq) order.
//
// A bucket is an intrusive circular doubly linked list through Event.next
// and Event.prev; head[b] is its first event and head[b].prev its last.
type eventQueue struct {
	base uint64
	n    int // events in the wheel
	occ  [wheelSize / 64]uint64
	head [wheelSize]*Event
	far  eventHeap
}

func (q *eventQueue) len() int { return q.n + q.far.len() }

// push queues ev. A time before base, which only a RunUntil below the
// clock makes possible, rewinds the window first.
func (q *eventQueue) push(ev *Event) {
	switch {
	case ev.at-q.base < wheelSize:
		q.link(ev)
	case ev.at < q.base:
		q.rewind(ev.at)
		q.link(ev)
	default:
		q.far.push(ev)
	}
}

// peek returns the minimum event without removing it, nil when empty. The
// wheel's events all precede the far heap's, so the heap is consulted only
// when the wheel is empty.
func (q *eventQueue) peek() *Event {
	if q.n == 0 {
		return q.far.peek()
	}
	return q.head[q.first()]
}

// take removes ev, which must be the event peek just returned, and advances
// base to its time.
func (q *eventQueue) take(ev *Event) {
	if ev.index == inWheel {
		q.unlink(ev)
	} else {
		q.far.pop()
	}
	if ev.at != q.base {
		q.base = ev.at
		q.migrate()
	}
}

// remove deletes a queued event from wherever it sits (Cancel).
func (q *eventQueue) remove(ev *Event) {
	if ev.index == inWheel {
		q.unlink(ev)
	} else {
		q.far.remove(int(ev.index))
	}
}

// first returns the first occupied bucket at or after base, circularly.
// The wheel must be non-empty.
func (q *eventQueue) first() int {
	start := int(q.base & wheelMask)
	w := start >> 6
	if m := q.occ[w] &^ (1<<(start&63) - 1); m != 0 {
		return w<<6 | bits.TrailingZeros64(m)
	}
	// Bits below start in word w are the wrapped tail of the window; the
	// last iteration revisits w for them.
	for i := 1; i <= len(q.occ); i++ {
		j := (w + i) % len(q.occ)
		if m := q.occ[j]; m != 0 {
			return j<<6 | bits.TrailingZeros64(m)
		}
	}
	panic("sim: timing wheel count out of sync")
}

// migrate moves far events that base's advance brought into the window.
func (q *eventQueue) migrate() {
	for {
		ev := q.far.peek()
		if ev == nil || ev.at-q.base >= wheelSize {
			return
		}
		q.far.pop()
		q.link(ev)
	}
}

// rewind lowers base to at. The wheel's events go back through the far
// heap so each lands in its bucket for the new window.
func (q *eventQueue) rewind(at uint64) {
	for q.n > 0 {
		ev := q.head[q.first()]
		q.unlink(ev)
		q.far.push(ev)
	}
	q.base = at
	q.migrate()
}

// link appends ev to its bucket. Every engine issues seq in schedule
// order, and migrate moves far events in before any later schedule can
// reach their bucket, so the new event always follows the bucket's tail.
func (q *eventQueue) link(ev *Event) {
	b := ev.at & wheelMask
	ev.index = inWheel
	q.n++
	h := q.head[b]
	if h == nil {
		ev.next, ev.prev = ev, ev
		q.head[b] = ev
		q.occ[b>>6] |= 1 << (b & 63)
		return
	}
	t := h.prev
	if t.seq > ev.seq {
		panic("sim: event linked behind a later sequence number")
	}
	ev.prev, ev.next = t, h
	t.next = ev
	h.prev = ev
}

// unlink removes ev from its bucket, marking it unqueued.
func (q *eventQueue) unlink(ev *Event) {
	b := ev.at & wheelMask
	if ev.next == ev {
		q.head[b] = nil
		q.occ[b>>6] &^= 1 << (b & 63)
	} else {
		ev.prev.next = ev.next
		ev.next.prev = ev.prev
		if q.head[b] == ev {
			q.head[b] = ev.next
		}
	}
	ev.next, ev.prev = nil, nil
	ev.index = -1
	q.n--
}
