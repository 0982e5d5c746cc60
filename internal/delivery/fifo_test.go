package delivery

import (
	"fmt"
	"math/rand"
	"testing"

	"fugu/internal/vm"
)

// TestStoreFIFODifferential drives every policy's store through the Store
// interface against a plain-slice reference, with random push/pop
// interleavings that fill, drain fully and refill. The head metadata, the
// pending list and each popped MsgMeta must match the reference at every
// step, which pins the stores' FIFO bookkeeping across its compactions.
func TestStoreFIFODifferential(t *testing.T) {
	for _, pol := range allPolicies(t) {
		for seed := int64(1); seed <= 4; seed++ {
			pol, seed := pol, seed
			t.Run(fmt.Sprintf("%s/seed%d", pol.Name(), seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				// A small pool drives the virtual buffer into page-out and
				// the zero-copy store into its copy fallback.
				st := pol.NewStore(vm.NewFrames(4), Params{Costs: confCosts})
				var ref []MsgMeta
				next := uint64(1)
				drains := 0
				check := func(step int) {
					t.Helper()
					id, okID := st.HeadID()
					sent, okSent := st.HeadSentAt()
					if len(ref) == 0 {
						if okID || okSent || !st.Empty() || st.PendingIDs() != nil {
							t.Fatalf("step %d: empty store reports head %d/%v, sent %d/%v, Empty %v, PendingIDs %v",
								step, id, okID, sent, okSent, st.Empty(), st.PendingIDs())
						}
						return
					}
					if !okID || id != ref[0].ID || !okSent || sent != ref[0].SentAt {
						t.Fatalf("step %d: head (%d,%v) sent (%d,%v), want (%d,true) (%d,true)",
							step, id, okID, sent, okSent, ref[0].ID, ref[0].SentAt)
					}
					ids := st.PendingIDs()
					if st.Empty() || st.Pending() != len(ref) || len(ids) != len(ref) {
						t.Fatalf("step %d: Empty %v, Pending %d, %d PendingIDs; want %d", step, st.Empty(), st.Pending(), len(ids), len(ref))
					}
					for i, m := range ref {
						if ids[i] != m.ID {
							t.Fatalf("step %d: PendingIDs[%d] = %d, want %d", step, i, ids[i], m.ID)
						}
					}
					if n := st.HeadLen(); n != int(ref[0].ID%61)+1 {
						t.Fatalf("step %d: HeadLen = %d, want %d", step, n, ref[0].ID%61+1)
					}
					if w := st.HeadWord(0); w != ref[0].ID {
						t.Fatalf("step %d: HeadWord(0) = %d, want %d", step, w, ref[0].ID)
					}
				}
				pushBias := 0.5
				for step := 0; step < 4000; step++ {
					if step%250 == 0 {
						// Phases: fill, drain (often to empty) or churn.
						pushBias = []float64{0.85, 0.15, 0.5}[rng.Intn(3)]
					}
					if len(ref) > 0 && rng.Float64() >= pushBias {
						got, _ := st.Pop()
						if got != ref[0] {
							t.Fatalf("step %d: Pop = %+v, want %+v", step, got, ref[0])
						}
						ref = ref[1:]
						if len(ref) == 0 {
							drains++
						}
					} else {
						words := make([]uint64, next%61+1)
						words[0] = next
						if !st.Admit(len(words)) {
							check(step) // a full bypass ring refuses; nothing changes
							continue
						}
						m := MsgMeta{ID: next, SentAt: 3 * next, InsertedAt: 3*next + 1}
						st.Push(m.ID, words, m.SentAt, m.InsertedAt)
						ref = append(ref, m)
						next++
					}
					check(step)
				}
				if drains < 2 {
					t.Errorf("the store drained to empty %d times, want the script to drain and refill it at least twice", drains)
				}
			})
		}
	}
}

// TestFIFOSteadyStateAllocatesNothing: once the queue has grown to its
// working depth, push and pop reuse the backing array. Popping by
// reslicing would walk the window off the array's end and reallocate it
// again and again.
func TestFIFOSteadyStateAllocatesNothing(t *testing.T) {
	const depth = 100
	var q fifo[MsgMeta]
	next := uint64(0)
	for ; next < depth; next++ {
		q.push(MsgMeta{ID: next})
	}
	// One run is many push+pop pairs, so an allocation every few hundred
	// pairs still shows.
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 10_000; i++ {
			q.push(MsgMeta{ID: next})
			next++
			if got := q.pop(); got.ID != next-depth-1 {
				t.Fatalf("pop = %d, want %d", got.ID, next-depth-1)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("10000 push+pop pairs at depth %d allocate %v times, want 0", depth, allocs)
	}
}

// BenchmarkVirtualBufferDeepPushPop measures one insert and one extract on
// a software buffer holding 4096 messages, the second case under a deep
// backlog. Extract cost must not grow with depth. The buffer's metadata
// queue allocates nothing in steady state; the simulated pages the tail
// demand-allocates (one 8 KiB page per ~200 messages, the ones the head
// frees go back to the pool) round to 0 allocs/op.
func BenchmarkVirtualBufferDeepPushPop(b *testing.B) {
	const depth = 4096
	buf := NewVirtualBuffer(vm.NewFrames(64))
	words := []uint64{1, 2, 3, 4}
	var id uint64
	for ; id < depth; id++ {
		buf.Push(id, words, id, id)
	}
	// Cycle the backlog through once so the metadata queue reaches its
	// steady-state capacity before timing starts (the odd count keeps the
	// tail off a page boundary, so even a one-iteration run shows 0).
	for ; id < 2*depth+depth/3; id++ {
		buf.Push(id, words, id, id)
		buf.Pop()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Push(id, words, id, id)
		id++
		buf.Pop()
	}
}
