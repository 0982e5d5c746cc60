package sim

import (
	"container/heap"
	"testing"
	"testing/quick"
)

// queueRig drives an eventQueue and the container/heap reference (see
// heap_test.go) through the same operation stream, the way the engine
// does: pushes land at or after the clock, pops advance it, and a peek
// without a take may move the clock up to just below the next event (a
// RunUntil stopping short of it).
type queueRig struct {
	t    *testing.T
	ours eventQueue
	ref  refHeap
	live []struct {
		ev *Event
		it *refItem
	}
	now, seq uint64
}

func (r *queueRig) fail(format string, args ...any) bool {
	if r.t != nil {
		r.t.Errorf(format, args...)
	}
	return false
}

func (r *queueRig) push(delay uint64) {
	ev := &Event{at: r.now + delay, seq: r.seq}
	it := &refItem{at: ev.at, seq: r.seq}
	r.seq++
	r.ours.push(ev)
	heap.Push(&r.ref, it)
	r.live = append(r.live, struct {
		ev *Event
		it *refItem
	}{ev, it})
}

func (r *queueRig) cancel(k int) {
	if len(r.live) == 0 {
		return
	}
	k %= len(r.live)
	e := r.live[k]
	r.live = append(r.live[:k], r.live[k+1:]...)
	r.ours.remove(e.ev)
	heap.Remove(&r.ref, e.it.idx)
	if e.ev.index != -1 {
		r.fail("cancelled event still claims a slot (index %d)", e.ev.index)
	}
}

// peek compares both minimums without removing anything; with step set it
// then moves the clock toward the next event without reaching it.
func (r *queueRig) peek(step uint64) bool {
	ev := r.ours.peek()
	if len(r.ref) == 0 {
		if ev != nil {
			return r.fail("peek: ours (at=%d seq=%d), ref empty", ev.at, ev.seq)
		}
		return true
	}
	it := r.ref[0]
	if ev == nil || ev.at != it.at || ev.seq != it.seq {
		return r.fail("peek mismatch: ours %v, ref (at=%d seq=%d)", ev, it.at, it.seq)
	}
	if ev.at > r.now {
		r.now += step % (ev.at - r.now)
	}
	return true
}

// pop takes the minimum from both queues and reports whether they agreed.
func (r *queueRig) pop() bool {
	if len(r.live) == 0 {
		return true
	}
	ev := r.ours.peek()
	it := heap.Pop(&r.ref).(*refItem)
	if ev == nil {
		return r.fail("pop: ours empty, ref (at=%d seq=%d)", it.at, it.seq)
	}
	r.ours.take(ev)
	for i, e := range r.live {
		if e.ev == ev {
			r.live = append(r.live[:i], r.live[i+1:]...)
			break
		}
	}
	if ev.at != it.at || ev.seq != it.seq {
		return r.fail("pop mismatch: ours (at=%d seq=%d), ref (at=%d seq=%d)",
			ev.at, ev.seq, it.at, it.seq)
	}
	if ev.index != -1 {
		return r.fail("popped event still claims a slot (index %d)", ev.index)
	}
	r.now = ev.at
	return true
}

func (r *queueRig) drain() bool {
	for len(r.live) > 0 {
		if r.ours.len() != r.ref.Len() {
			return r.fail("len: ours %d, ref %d", r.ours.len(), r.ref.Len())
		}
		if !r.pop() {
			return false
		}
	}
	return r.ours.len() == 0 && r.ours.peek() == nil && r.ref.Len() == 0
}

// TestQueueDifferentialRandom runs long randomized schedule/cancel/peek/pop
// workloads from fixed seeds and requires the wheel-plus-heap queue to pop
// in exactly the reference (at, seq) order. Delays span three wheel
// revolutions, so events go both near and far, migrate as the clock
// advances, and pops wrap the wheel many times over.
func TestQueueDifferentialRandom(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 42, 12345} {
		rng := NewRand(seed)
		r := &queueRig{t: t}
		for op := 0; op < 40_000; op++ {
			switch rng.Uint64n(12) {
			case 0, 1, 2:
				// Small delays make same-time ties common, so the seq
				// order inside a bucket is exercised.
				r.push(rng.Uint64n(16))
			case 3, 4:
				r.push(rng.Uint64n(3*wheelSize + 1))
			case 5:
				// Right at the wheel's edge.
				r.push(wheelSize - 2 + rng.Uint64n(4))
			case 6, 7:
				r.cancel(int(rng.Uint64n(256)))
			case 8:
				if !r.peek(rng.Uint64n(2 * wheelSize)) {
					t.Fatalf("seed %d: peek diverged at op %d", seed, op)
				}
			default:
				if !r.pop() {
					t.Fatalf("seed %d: diverged at op %d", seed, op)
				}
			}
			if r.ours.len() != r.ref.Len() {
				t.Fatalf("seed %d op %d: len ours %d, ref %d", seed, op, r.ours.len(), r.ref.Len())
			}
		}
		if !r.drain() {
			t.Fatalf("seed %d: drain diverged or queues out of sync", seed)
		}
	}
}

// TestQueueDifferentialQuick drives the same comparison from
// testing/quick-generated operation streams: each op pushes (its high bits
// pick a delay of up to three wheel revolutions), cancels, peeks and
// advances the clock short of the next event, or pops.
func TestQueueDifferentialQuick(t *testing.T) {
	prop := func(ops []uint16) bool {
		r := &queueRig{}
		for _, op := range ops {
			arg := uint64(op >> 3)
			switch op % 8 {
			case 0, 1, 2:
				r.push(arg % (3*wheelSize + 1))
			case 3:
				r.push(arg % 8)
			case 4:
				r.cancel(int(arg))
			case 5:
				if !r.peek(arg) {
					return false
				}
			default:
				if !r.pop() {
					return false
				}
			}
		}
		return r.drain()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestQueueRewind covers a schedule behind the last pop, which only a
// RunUntil below the current clock makes possible: the queue must still
// pop everything in (at, seq) order.
func TestQueueRewind(t *testing.T) {
	r := &queueRig{t: t}
	for d := uint64(0); d < 3*wheelSize; d += 7 {
		r.push(d)
	}
	for i := 0; i < 200; i++ {
		r.pop()
	}
	for _, back := range []uint64{1, 50, wheelSize - 1, wheelSize + 3} {
		r.now -= back
		r.push(0)
		r.push(3)
		r.push(wheelSize + 1)
		if !r.pop() {
			t.Fatalf("rewind by %d diverged", back)
		}
	}
	if !r.drain() {
		t.Fatal("drain diverged after rewinds")
	}
}

// TestEngineRunUntilBehindClock drives the rewind through the engine: a
// RunUntil below the clock moves time back, and events scheduled from
// there still fire in time order.
func TestEngineRunUntilBehindClock(t *testing.T) {
	e := NewEngine(1)
	var got []uint64
	rec := func() { got = append(got, e.Now()) }
	e.Schedule(1000, rec)
	e.Schedule(2000, rec)
	e.RunUntil(1500)
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("clock %d after RunUntil(100), want 100", e.Now())
	}
	e.Schedule(50, rec)
	e.Schedule(1300, rec)
	e.Run()
	want := []uint64{1000, 150, 1400, 2000}
	if len(got) != len(want) {
		t.Fatalf("fired at %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired at %v, want %v", got, want)
		}
	}
}
