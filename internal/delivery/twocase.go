package delivery

import (
	"fugu/internal/vm"
)

// TwoCase is the paper's delivery organization and the default policy:
// direct NI access in the common case, with misses diverted by the kernel
// into a per-process virtual software buffer (VirtualBuffer) and drained
// back to the fast path. Delivery is guaranteed — under absolute frame
// exhaustion buffer pages page out to backing store rather than refusing
// traffic.
type TwoCase struct{}

// Name implements Policy.
func (TwoCase) Name() string { return "twocase" }

// KernelBuffered implements Policy: two-case delivery is the kernel's divert
// machinery.
func (TwoCase) KernelBuffered() bool { return true }

// HardwareDemux implements Policy: demultiplexing is software's job here.
func (TwoCase) HardwareDemux() bool { return false }

// NewStore implements Policy.
func (TwoCase) NewStore(frames *vm.Frames, p Params) Store {
	b := NewVirtualBuffer(frames)
	b.costs = p.Costs
	b.noReclaim = p.NoReclaim
	return b
}

// VirtualBuffer is a process's virtual software buffer: the slow half of
// two-case delivery. Messages are stored length-prefixed in a dedicated
// virtual address space whose physical pages are allocated on demand
// (virtual buffering), reclaimed as the reader passes them, and — under
// absolute frame exhaustion — paged out to backing store over the OS network
// so delivery stays guaranteed.
type VirtualBuffer struct {
	space *vm.Space
	costs Costs
	head  uint64 // word address of the next unread message's length word
	tail  uint64 // word address where the next message will be written

	// Backing store ("swap"): contents of paged-out buffer pages, keyed by
	// virtual page number. Reached via the second logical network.
	swap map[uint64][]uint64

	// The embedded fifo tracks per-message timestamps in insertion order,
	// parallel to the buffered records; its length is the count of resident
	// (pushed, not yet consumed) messages. It is simulator bookkeeping
	// (latency and residency instrumentation), not simulated memory: it
	// consumes no frames and never pages, so recording it cannot perturb
	// experiment results.
	fifo[MsgMeta]

	noReclaim bool // pinned-buffer ablation: never release pages

	inserted   uint64 // lifetime pushes
	vmallocs   uint64 // pushes that demand-allocated at least one page
	pageOuts   uint64
	pageIns    uint64
	maxPending int // high water of resident (unconsumed) messages
}

// NewVirtualBuffer builds an empty buffer over the node's frame pool.
func NewVirtualBuffer(frames *vm.Frames) *VirtualBuffer {
	return &VirtualBuffer{
		space: vm.NewSpace(frames),
		swap:  make(map[uint64][]uint64),
	}
}

// Admit implements Store: virtual buffering guarantees delivery, so every
// message is admitted.
func (b *VirtualBuffer) Admit(nwords int) bool { return true }

// Push appends a message stamped with its packet ID, its injection time
// (sentAt) and the current time. It never fails: when the frame pool is
// exhausted it evicts the oldest fully-written buffer pages ahead of the
// tail to backing store (the guaranteed-delivery path of Section 4.2).
func (b *VirtualBuffer) Push(id uint64, words []uint64, sentAt, now uint64) PushResult {
	var res PushResult
	need := uint64(len(words)) + 1
	// Ensure residency for every page the record touches.
	for addr := b.tail; addr < b.tail+need; addr += vm.PageWords {
		res = b.ensure(addr, res)
	}
	res = b.ensure(b.tail+need-1, res)
	b.space.Write(b.tail, uint64(len(words)))
	for i, w := range words {
		b.space.Write(b.tail+1+uint64(i), w)
	}
	b.tail += need
	b.inserted++
	b.push(MsgMeta{ID: id, SentAt: sentAt, InsertedAt: now})
	if res.NewPages > 0 {
		b.vmallocs++
	}
	if b.len() > b.maxPending {
		b.maxPending = b.len()
	}
	return res
}

// InsertCost implements Store with the Table 5 arithmetic: the minimum
// handler, or the vmalloc handler when a page was demand-allocated, plus the
// Figure 10 knob and the page-out traffic.
func (b *VirtualBuffer) InsertCost(r PushResult) uint64 {
	cost := b.costs.InsertMin
	if r.NewPages > 0 {
		cost = b.costs.InsertVMAlloc
	}
	cost += b.costs.ExtraInsert
	cost += b.costs.PageOut * uint64(r.PagedOut)
	return cost
}

// ensure makes addr's page resident, paging out victims if required.
func (b *VirtualBuffer) ensure(addr uint64, res PushResult) PushResult {
	vp := vm.PageOf(addr)
	if _, swapped := b.swap[vp]; swapped {
		// Rare: the tail page itself was evicted. Bring it back.
		res = b.pageIn(vp, res)
		return res
	}
	faulted, ok := b.space.Ensure(addr)
	for !ok {
		res = b.evictVictim(res)
		faulted, ok = b.space.Ensure(addr)
	}
	if faulted {
		res.NewPages++
	}
	return res
}

// evictVictim pages out the oldest resident page at or after head that is
// not the current tail page. Preferring pages closest to the head would
// evict data about to be read; FUGU's proposal pages out to clear space for
// the *insert* path, so we take the page just after the reader's current
// page — it will be needed latest among full pages... in practice the
// buffer spans few pages and any victim works; we choose the lowest-numbered
// resident page that is not the head page and not the tail page, falling
// back to the head page.
func (b *VirtualBuffer) evictVictim(res PushResult) PushResult {
	headVp := vm.PageOf(b.head)
	tailVp := vm.PageOf(b.tail)
	for vp := headVp; vp <= tailVp; vp++ {
		if vp == tailVp {
			break
		}
		if vp == headVp && headVp+1 <= tailVp {
			continue // prefer not to evict the page being read
		}
		if words := b.space.Evict(vp * vm.PageWords); words != nil {
			b.swap[vp] = words
			b.pageOuts++
			res.PagedOut++
			return res
		}
	}
	// Fall back to the head page itself.
	if words := b.space.Evict(headVp * vm.PageWords); words != nil {
		b.swap[headVp] = words
		b.pageOuts++
		res.PagedOut++
		return res
	}
	panic("delivery: buffer has no evictable page but pool is exhausted")
}

// pageIn restores a swapped page, evicting something else if necessary.
func (b *VirtualBuffer) pageIn(vp uint64, res PushResult) PushResult {
	words := b.swap[vp]
	delete(b.swap, vp)
	for !b.space.Install(vp*vm.PageWords, words) {
		res = b.evictVictim(res)
	}
	b.pageIns++
	return res
}

// Empty implements Store.
func (b *VirtualBuffer) Empty() bool { return b.len() == 0 }

// Pending implements Store.
func (b *VirtualBuffer) Pending() int { return b.len() }

// HeadLen returns the length of the message at the head, restoring its page
// from swap if it was paged out.
func (b *VirtualBuffer) HeadLen() int {
	b.touch(b.head)
	return int(b.space.Read(b.head))
}

// HeadWord returns word i of the head message, restoring pages as needed.
func (b *VirtualBuffer) HeadWord(i int) uint64 {
	addr := b.head + 1 + uint64(i)
	b.touch(addr)
	return b.space.Read(addr)
}

// touch makes addr resident, returning how many pages were paged in.
func (b *VirtualBuffer) touch(addr uint64) int {
	vp := vm.PageOf(addr)
	if _, swapped := b.swap[vp]; !swapped {
		return 0
	}
	res := b.pageIn(vp, PushResult{})
	return 1 + res.PagedOut // paging in may itself have evicted
}

// Pop consumes the head message, unmapping buffer pages wholly behind the
// reader so physical consumption tracks the live window. It returns the
// consumed message's timestamps for residency accounting; disposal from the
// buffer charges nothing beyond the extract costs the caller already pays.
func (b *VirtualBuffer) Pop() (MsgMeta, uint64) {
	if b.len() == 0 {
		panic("delivery: pop from empty software buffer")
	}
	meta := b.pop()
	n := b.HeadLen()
	b.head += uint64(n) + 1
	if b.noReclaim {
		return meta, 0
	}
	// Reclaim pages fully consumed: every page strictly below the head's
	// current page holds only read data.
	for vp := vm.PageOf(b.head); vp > 0; {
		prev := vp - 1
		if words := b.space.Evict(prev * vm.PageWords); words == nil {
			// Not resident: maybe swapped; drop swap copies too.
			if _, ok := b.swap[prev]; ok {
				delete(b.swap, prev)
				vp = prev
				continue
			}
			break
		}
		vp = prev
	}
	if b.len() == 0 {
		// Fully drained: release everything, including the page under the
		// head/tail cursor.
		b.space.Release()
		for vp := range b.swap {
			delete(b.swap, vp)
		}
	}
	return meta, 0
}

// PagesResident returns physical pages currently consumed by the buffer.
func (b *VirtualBuffer) PagesResident() int { return b.space.PagesMapped() }

// PagesHighWater returns the most physical pages the buffer ever held —
// the per-node metric behind the paper's "less than seven pages/node".
func (b *VirtualBuffer) PagesHighWater() int { return b.space.HighWater() }

// VMAllocs reports how many pushes demand-allocated at least one page.
func (b *VirtualBuffer) VMAllocs() uint64 { return b.vmallocs }

// PageOuts and PageIns expose the backing-store traffic (tests).
func (b *VirtualBuffer) PageOuts() uint64 { return b.pageOuts }

// PageIns reports pages restored from backing store.
func (b *VirtualBuffer) PageIns() uint64 { return b.pageIns }

// MaxPending reports the high water of resident (unconsumed) messages.
func (b *VirtualBuffer) MaxPending() int { return b.maxPending }
