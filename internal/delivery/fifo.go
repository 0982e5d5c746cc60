package delivery

// queued is what a store's FIFO holds: a stored message's bookkeeping, which
// must carry the message's MsgMeta.
type queued interface{ msgMeta() MsgMeta }

func (m MsgMeta) msgMeta() MsgMeta { return m }

// fifo is a store's per-message bookkeeping queue, in insertion order. Pop
// advances a head index instead of shifting the slice, and once the head has
// passed half the slice the live tail is copied down into the same backing
// array, so push and pop are amortized O(1) and a steady state allocates
// nothing. Embedding it gives a store its HeadID, HeadSentAt and PendingIDs.
type fifo[T queued] struct {
	buf  []T
	head int // index of the oldest live entry in buf
}

// len reports the live entries.
func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// push appends v at the tail.
func (q *fifo[T]) push(v T) { q.buf = append(q.buf, v) }

// front returns the oldest entry; the queue must be non-empty.
func (q *fifo[T]) front() *T { return &q.buf[q.head] }

// pop removes and returns the oldest entry; the queue must be non-empty.
func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	q.head++
	if 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		// Zero the vacated slots so the backing array keeps no references.
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return v
}

// HeadID returns the packet ID of the head message, false if empty.
func (q *fifo[T]) HeadID() (uint64, bool) {
	if q.len() == 0 {
		return 0, false
	}
	return q.buf[q.head].msgMeta().ID, true
}

// HeadSentAt returns the injection time of the head message, false if empty.
func (q *fifo[T]) HeadSentAt() (uint64, bool) {
	if q.len() == 0 {
		return 0, false
	}
	return q.buf[q.head].msgMeta().SentAt, true
}

// PendingIDs lists the packet IDs of the unconsumed messages, in insertion
// order (diagnostics).
func (q *fifo[T]) PendingIDs() []uint64 {
	if q.len() == 0 {
		return nil
	}
	ids := make([]uint64, 0, q.len())
	for _, v := range q.buf[q.head:] {
		ids = append(ids, v.msgMeta().ID)
	}
	return ids
}
