package sim

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// GroupMode selects how a partition group's shards are synchronized.
type GroupMode int

const (
	// Merged shards share one logical clock, sequence counter and RNG; a
	// single driver pops the global (time, seq) minimum across the shard
	// queues, so execution order — and every derived artifact — is exactly
	// the serial engine's. Merged mode is what machine models with
	// zero-latency cross-node state (shared scheduler decisions, global
	// counters, shared observers) must use: it shards the event storage
	// (queue, free list) without changing any observable ordering.
	Merged GroupMode = iota
	// Parallel shards run real goroutines inside conservative lookahead
	// windows: each round executes events in [min, min+lookahead) on all
	// shards concurrently, then a barrier drains cross-shard messages from
	// per-pair staging queues in a fixed order (source partition, then
	// timestamp, then staging sequence), so results are deterministic
	// regardless of worker interleaving. Parallel mode requires a
	// partition-clean model: no shared mutable state between shards except
	// messages sent through CrossScheduleArgAtSite with delay >= lookahead.
	Parallel
)

func (m GroupMode) String() string {
	if m == Merged {
		return "merged"
	}
	return "parallel"
}

// staged is one cross-shard event parked in a staging queue until the next
// barrier. Entries are appended by the source shard's worker only (single
// writer per queue) and drained by the coordinator between windows.
type staged struct {
	at   uint64
	fn   func(any)
	arg  any
	site Site
}

// Group is a set of partition engines driven as one simulation. Construct
// with NewMergedGroup or NewParallelGroup, place model components on shards
// (Shard(i)), then Run any shard — the group takes over the whole run.
type Group struct {
	mode      GroupMode
	shards    []*Engine
	lookahead uint64

	// Merged-mode shared ordering state: the one logical clock, the global
	// schedule sequence and the single RNG stream every shard observes, so
	// a merged group is bit-identical to one serial engine.
	now     uint64
	seq     uint64
	rng     *Rand
	stopped bool
	limit   uint64

	// Parallel-mode state. staging is indexed [src*parts+dst]; parStop is
	// the cross-goroutine stop flag (Engine.Stop from inside a window must
	// reach the coordinator).
	staging      [][]staged
	parStop      atomic.Bool
	barriers     uint64
	stagedTotal  uint64
	horizon      uint64
	barrierWaits []uint64 // windows a shard sat out (no events below the horizon)
}

// NewMergedGroup builds parts engines sharing one clock, sequence counter
// and RNG seeded like NewEngine(seed). Running any shard executes the
// global (time, seq) minimum across all shard queues, which is provably the
// serial engine's order (sequence numbers are issued from the shared
// counter in execution order, exactly as a single engine issues them).
func NewMergedGroup(seed uint64, parts int) *Group {
	if parts < 1 {
		panic("sim: NewMergedGroup with no partitions")
	}
	g := &Group{mode: Merged, rng: NewRand(seed)}
	g.shards = make([]*Engine, parts)
	for i := range g.shards {
		g.shards[i] = &Engine{rng: g.rng, g: g, part: i}
	}
	return g
}

// NewParallelGroup builds parts engines with independent clocks and
// per-shard RNG streams, synchronized by conservative lookahead windows.
// lookahead must be a lower bound on the delay of every cross-shard
// schedule (for a mesh, the minimum per-hop latency) and at least 2 cycles;
// a staged event below the current horizon panics, so a model that violates
// its own bound is caught, not silently reordered.
func NewParallelGroup(seed uint64, parts int, lookahead uint64) *Group {
	if parts < 1 {
		panic("sim: NewParallelGroup with no partitions")
	}
	if lookahead < 2 {
		panic("sim: parallel group needs a lookahead of at least 2 cycles")
	}
	g := &Group{mode: Parallel, lookahead: lookahead}
	g.shards = make([]*Engine, parts)
	for i := range g.shards {
		// Decorrelate the per-shard streams: consecutive seeds would start
		// splitmix64 one increment apart.
		g.shards[i] = &Engine{rng: NewRand(seed + 0x9e3779b97f4a7c15*uint64(i)), g: g, part: i}
	}
	g.staging = make([][]staged, parts*parts)
	g.barrierWaits = make([]uint64, parts)
	return g
}

// Parts returns the number of partition engines.
func (g *Group) Parts() int { return len(g.shards) }

// Mode returns the group's synchronization mode.
func (g *Group) Mode() GroupMode { return g.mode }

// Lookahead returns the conservative window width (0 in merged mode).
func (g *Group) Lookahead() uint64 { return g.lookahead }

// Shard returns partition engine i.
func (g *Group) Shard(i int) *Engine { return g.shards[i] }

// ShardStat is one partition's instantaneous state, for liveness reports.
type ShardStat struct {
	Part         int
	Now          uint64
	HeapDepth    int
	LiveProcs    int
	BarrierWaits uint64 // parallel mode: windows this shard had nothing to run
}

// GroupStats snapshots the group for diagnostics (watchdog reports): per-
// shard queue depth and clock, the last horizon, and barrier counts.
type GroupStats struct {
	Mode     GroupMode
	Horizon  uint64 // last parallel window's exclusive upper bound (merged: the shared clock)
	Barriers uint64 // parallel windows completed
	Staged   uint64 // cross-partition events drained through staging queues
	Shards   []ShardStat
}

// Stats returns the group's diagnostic snapshot. Call it only between runs
// or from inside the simulation (event context): in parallel mode the shard
// clocks are owned by worker goroutines during a window.
func (g *Group) Stats() GroupStats {
	s := GroupStats{Mode: g.mode, Horizon: g.horizon, Barriers: g.barriers, Staged: g.stagedTotal}
	if g.mode == Merged {
		s.Horizon = g.now
	}
	s.Shards = make([]ShardStat, len(g.shards))
	for i, sh := range g.shards {
		s.Shards[i] = ShardStat{Part: i, Now: sh.now, HeapDepth: sh.queue.len(), LiveProcs: sh.live}
		if g.mode == Merged {
			s.Shards[i].Now = g.now
		} else {
			s.Shards[i].BarrierWaits = g.barrierWaits[i]
		}
	}
	return s
}

// minShard returns the shard whose next event is the global (time, seq)
// minimum, or nil when every queue is empty. In merged mode sequence numbers
// are globally unique, so the order is total and deterministic.
func (g *Group) minShard() *Engine {
	var best *Engine
	var bev *Event
	for _, sh := range g.shards {
		ev := sh.queue.peek()
		if ev == nil {
			continue
		}
		if bev == nil || eventBefore(ev, bev) {
			best, bev = sh, ev
		}
	}
	return best
}

// run drives the whole group; Engine.Run delegates here for grouped
// engines. The time limit honored is the invoking engine's.
func (g *Group) run(from *Engine) uint64 {
	if g.mode == Merged {
		return g.runMerged(from)
	}
	return g.runParallel(from)
}

// runMerged is Engine.Run generalized to N queues: pop the global minimum,
// dispatch, repeat. Everything else — limit handling, the backwards-queue
// panic, metrics/profiler hooks, the release-before-dispatch discipline —
// mirrors the serial loop line for line, because it must: merged mode's
// contract is byte-identical artifacts.
func (g *Group) runMerged(from *Engine) uint64 {
	for _, sh := range g.shards {
		if sh.current != nil {
			panic("sim: Run called from proc context")
		}
	}
	g.stopped = false
	g.limit = from.Limit
	for !g.stopped {
		sh := g.minShard()
		if sh == nil {
			break
		}
		ev := sh.queue.peek()
		if g.limit != 0 && ev.at > g.limit {
			g.now = g.limit
			break
		}
		sh.queue.take(ev)
		if ev.at < g.now {
			panic("sim: event queue went backwards")
		}
		g.now = ev.at
		sh.events.Inc()
		if sh.prof != nil {
			sh.prof.tick(ev.site, g.now)
		}
		if p := ev.proc; p != nil {
			sh.release(ev)
			p.eng.dispatch(p)
		} else if fn := ev.fn; fn != nil {
			sh.release(ev)
			fn()
		} else {
			fn, arg := ev.fnArg, ev.arg
			sh.release(ev)
			fn(arg)
		}
	}
	return g.now
}

// runParallel executes conservative lookahead windows until every queue is
// empty, Stop is called, or the invoking engine's limit is reached. Each
// window: find the global minimum next-event time m, run every shard
// concurrently up to the horizon h = m + lookahead (exclusive), then drain
// the staging queues at the barrier. Determinism: every executed event has
// time >= m, so every staged event fires at >= m + lookahead = h — strictly
// after everything executed this window — and the drain assigns destination
// sequence numbers in the fixed (source partition, time, staging order)
// order, independent of goroutine interleaving.
func (g *Group) runParallel(from *Engine) uint64 {
	limit := from.Limit
	g.parStop.Store(false)
	for !g.parStop.Load() {
		minAt := uint64(math.MaxUint64)
		idle := true
		for _, sh := range g.shards {
			if ev := sh.queue.peek(); ev != nil {
				idle = false
				if ev.at < minAt {
					minAt = ev.at
				}
			}
		}
		if idle {
			break
		}
		if limit != 0 && minAt > limit {
			for _, sh := range g.shards {
				if sh.now < limit {
					sh.now = limit
				}
			}
			break
		}
		h := minAt + g.lookahead
		if limit != 0 && h > limit+1 {
			h = limit + 1
		}
		// Shards with nothing below the horizon only wait at the barrier;
		// count them (per-partition stall visibility) and skip their
		// goroutines.
		var wg sync.WaitGroup
		for i, sh := range g.shards {
			if ev := sh.queue.peek(); ev == nil || ev.at >= h {
				g.barrierWaits[i]++
				continue
			}
			wg.Add(1)
			go func(sh *Engine) {
				defer wg.Done()
				// The partition label composes with inherited labels
				// (experiment/point from the harness worker), so a profile
				// slices by partition within a sweep point.
				pprof.Do(context.Background(), pprof.Labels("partition", strconv.Itoa(sh.part)), func(context.Context) {
					sh.Limit = h - 1
					sh.runLocal()
					sh.Limit = 0
				})
			}(sh)
		}
		wg.Wait()
		g.barriers++
		g.horizon = h
		g.drainStaged(h)
	}
	var end uint64
	for _, sh := range g.shards {
		if sh.now > end {
			end = sh.now
		}
	}
	return end
}

// stage parks a cross-shard schedule until the next barrier. Called only
// from src's worker goroutine during a window (single writer per queue).
func (g *Group) stage(src, dst int, s staged) {
	q := &g.staging[src*len(g.shards)+dst]
	*q = append(*q, s)
}

// drainStaged moves every staged event onto its destination queue. Order is
// fixed — destination, then source partition index, then timestamp, then
// staging sequence — so the destination sequence numbers (and therefore
// same-cycle tie-breaks) never depend on scheduling noise. An entry below
// the horizon means the model broke its lookahead promise; that is a bug in
// the model, and silently reordering it would corrupt causality, so: panic.
func (g *Group) drainStaged(h uint64) {
	parts := len(g.shards)
	for dst := 0; dst < parts; dst++ {
		de := g.shards[dst]
		for src := 0; src < parts; src++ {
			cell := &g.staging[src*parts+dst]
			if len(*cell) == 0 {
				continue
			}
			sort.SliceStable(*cell, func(i, j int) bool { return (*cell)[i].at < (*cell)[j].at })
			for i := range *cell {
				s := &(*cell)[i]
				if s.at < h {
					panic(fmt.Sprintf("sim: staged cross-partition event at t=%d violates the lookahead horizon %d (shard %d -> %d)", s.at, h, src, dst))
				}
				ev := de.alloc(0)
				ev.at = s.at
				ev.fnArg = s.fn
				ev.arg = s.arg
				ev.site = s.site
				de.queue.push(ev)
				g.stagedTotal++
				*s = staged{}
			}
			*cell = (*cell)[:0]
		}
	}
}

// CrossScheduleArgAtSite schedules fn(arg) at absolute time at on the dst
// engine, from code executing on e. Outside parallel windows (standalone
// engines, merged groups, or dst == e) it is a plain ScheduleArgAtSite on
// dst; inside a parallel window a cross-shard schedule is staged and
// drained deterministically at the next barrier. at must be at least the
// group's lookahead beyond e's current time — the conservative contract.
func (e *Engine) CrossScheduleArgAtSite(dst *Engine, site Site, at uint64, fn func(any), arg any) {
	if dst == e || e.g == nil || e.g.mode == Merged {
		dst.ScheduleArgAtSite(site, at, fn, arg)
		return
	}
	if e.g != dst.g {
		panic("sim: cross-schedule between unrelated groups")
	}
	e.g.stage(e.part, dst.part, staged{at: at, fn: fn, arg: arg, site: site})
}

// Group returns the partition group this engine belongs to, nil for a
// standalone engine.
func (e *Engine) Group() *Group { return e.g }

// Part returns the engine's partition index within its group (0 for a
// standalone engine).
func (e *Engine) Part() int { return e.part }
