package delivery

import (
	"fugu/internal/vm"
)

// ZeroCopyRemap is the page-remap zero-copy receive organization (after
// "Using Memory-Protection to Simplify Zero-copy Operations"): instead of
// copying a diverted message into a software buffer, the kernel pins a fresh
// physical frame, deposits the message in it once, and flips the page into
// the receiver's address space. The receive path pays a constant remap cost
// (map + TLB invalidate) regardless of message size, but every undelivered
// message holds an entire pinned frame — the memory-footprint tradeoff the
// paper's virtual buffering avoids. When the frame pool is exhausted the
// kernel falls back to a copying insert (Fallback in PushResult), so
// delivery remains guaranteed.
//
// The kernel's divert machinery (mismatch ISR, buffered mode, overflow
// control) is reused unchanged; only the second-case store differs.
type ZeroCopyRemap struct{}

// Name implements Policy.
func (ZeroCopyRemap) Name() string { return "zerocopy" }

// KernelBuffered implements Policy: zero-copy remap still diverts through
// the kernel; it changes how the diverted message is stored, not who stores
// it.
func (ZeroCopyRemap) KernelBuffered() bool { return true }

// HardwareDemux implements Policy.
func (ZeroCopyRemap) HardwareDemux() bool { return false }

// NewStore implements Policy.
func (ZeroCopyRemap) NewStore(frames *vm.Frames, p Params) Store {
	return &remapStore{
		space: vm.NewSpace(frames),
		costs: p.Costs,
	}
}

// remapEntry is one stored message: either a pinned page flipped into the
// receiver's space (vp valid) or a kernel copy taken when no frame was free
// (words valid).
type remapEntry struct {
	meta     MsgMeta
	vp       uint64   // virtual page holding the message, if pinned
	words    []uint64 // fallback copy, if the pool was exhausted
	fallback bool
	nwords   int
}

func (e remapEntry) msgMeta() MsgMeta { return e.meta }

// remapStore holds messages one-per-pinned-page, FIFO.
type remapStore struct {
	space  *vm.Space
	costs  Costs
	nextVp uint64 // next virtual page to flip a message into (never reused)

	fifo[remapEntry] // pending messages, oldest first

	fallbacks  uint64 // pushes that copied for lack of a free frame
	maxPending int
}

// Admit implements Store: the copy fallback guarantees delivery, so every
// message is admitted.
func (s *remapStore) Admit(nwords int) bool { return true }

// Push implements Store: pin a frame and flip it in, or copy when the pool
// is dry.
func (s *remapStore) Push(id uint64, words []uint64, sentAt, now uint64) PushResult {
	if len(words)+1 > vm.PageWords {
		panic("delivery: zero-copy message larger than a page")
	}
	meta := MsgMeta{ID: id, SentAt: sentAt, InsertedAt: now}
	var res PushResult
	vp := s.nextVp
	base := vp * vm.PageWords
	if _, ok := s.space.Ensure(base); ok {
		s.nextVp++
		s.space.Write(base, uint64(len(words)))
		for i, w := range words {
			s.space.Write(base+1+uint64(i), w)
		}
		s.push(remapEntry{meta: meta, vp: vp, nwords: len(words)})
	} else {
		// Frame pool exhausted: degrade to a copying insert into statically
		// allocated kernel memory so delivery still succeeds.
		cp := make([]uint64, len(words))
		copy(cp, words)
		s.push(remapEntry{meta: meta, words: cp, fallback: true, nwords: len(words)})
		s.fallbacks++
		res.Fallback = true
	}
	if s.len() > s.maxPending {
		s.maxPending = s.len()
	}
	return res
}

// InsertCost implements Store: a constant page flip, or the copying insert
// when the pool was dry.
func (s *remapStore) InsertCost(r PushResult) uint64 {
	if r.Fallback {
		return s.costs.InsertVMAlloc + s.costs.ExtraInsert
	}
	return s.costs.Remap + s.costs.ExtraInsert
}

// Pop implements Store: consuming a pinned message unmaps its page (TLB
// shootdown), releasing the frame.
func (s *remapStore) Pop() (MsgMeta, uint64) {
	if s.len() == 0 {
		panic("delivery: pop from empty remap store")
	}
	e := s.pop()
	if e.fallback {
		return e.meta, 0
	}
	s.space.Unmap(e.vp * vm.PageWords)
	return e.meta, s.costs.RemapRelease
}

// Empty implements Store.
func (s *remapStore) Empty() bool { return s.len() == 0 }

// Pending implements Store.
func (s *remapStore) Pending() int { return s.len() }

// HeadLen implements Store.
func (s *remapStore) HeadLen() int {
	return s.front().nwords
}

// HeadWord implements Store.
func (s *remapStore) HeadWord(i int) uint64 {
	e := s.front()
	if e.fallback {
		return e.words[i]
	}
	return s.space.Read(e.vp*vm.PageWords + 1 + uint64(i))
}

// PagesResident implements Store: every pending pinned message is one frame.
func (s *remapStore) PagesResident() int { return s.space.PagesMapped() }

// PagesHighWater implements Store.
func (s *remapStore) PagesHighWater() int { return s.space.HighWater() }

// VMAllocs implements Store: for zero-copy it counts copy fallbacks, the
// events where pinning failed.
func (s *remapStore) VMAllocs() uint64 { return s.fallbacks }

// MaxPending reports the high water of unconsumed messages (tests).
func (s *remapStore) MaxPending() int { return s.maxPending }
