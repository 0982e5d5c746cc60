package main

import (
	"time"

	"fugu/internal/delivery"
	"fugu/internal/harness"
	"fugu/internal/mesh"
	"fugu/internal/nic"
	"fugu/internal/niq"
	"fugu/internal/sim"
	"fugu/internal/vm"
)

// microRounds is how many times each microdriver is timed; the median
// round is reported.
const microRounds = 5

// microdrivers times single layers through their public functions at
// fixed sizes and returns nanoseconds per operation.
func microdrivers() map[string]float64 {
	return map[string]float64{
		"sim.proc_round_trip_ns":     perOp(procRoundTrip, 20_000),
		"sim.schedule_fire_ns":       perOp(scheduleFire, 200_000),
		"niq.admit_drain_ns":         perOp(admitDrain, 200_000),
		"delivery.insert_extract_ns": perOp(insertExtract, 100_000),
	}
}

// perOp runs f(n) microRounds times and returns the median ns per op.
func perOp(f func(n int), n int) float64 {
	ns := make([]float64, microRounds)
	for i := range ns {
		start := time.Now()
		f(n)
		ns[i] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(ns)
}

// procRoundTrip has two procs wake each other n times: each round trip is
// two proc switches through Park and Wake.
func procRoundTrip(n int) {
	e := sim.NewEngine(1)
	var ping, pong *sim.Proc
	done := false
	ping = e.Spawn("ping", func(p *sim.Proc) {
		p.Yield() // let pong reach its first Park
		for i := 0; i < n; i++ {
			e.Wake(pong)
			p.Park()
		}
		done = true
		e.Wake(pong)
	})
	pong = e.Spawn("pong", func(p *sim.Proc) {
		for {
			p.Park()
			if done {
				return
			}
			e.Wake(ping)
		}
	})
	e.Run()
}

// scheduleFire keeps the pending-event count at bigmesh's depth while n
// events fire, each rescheduling itself: one Schedule and one dispatch per
// operation.
func scheduleFire(n int) {
	cfg := harness.DefaultBigMesh(false)
	depth := cfg.W * cfg.H // every bigmesh node keeps an injection pending
	e := sim.NewEngine(1)
	rng := sim.NewRand(1)
	fired := 0
	var fn func()
	fn = func() {
		fired++
		if fired >= n {
			e.Stop()
			return
		}
		e.Schedule(1+rng.Uint64n(2*cfg.MeanGap), fn)
	}
	for i := 0; i < depth; i++ {
		e.Schedule(1+rng.Uint64n(2*cfg.MeanGap), fn)
	}
	e.Run()
}

// admitDrain fills the default NI input queue (static FIFO at the NI's
// default depth) and drains it, n packets in all: Admit, Push, Head and
// PopHead per packet.
func admitDrain(n int) {
	const sources = 8
	depth := nic.DefaultConfig().InputQueueDepth
	q := niq.New(niq.Spec{}, depth, sources)
	pkts := make([]*mesh.Packet, depth)
	for i := range pkts {
		pkts[i] = &mesh.Packet{Src: i % sources, Words: make([]uint64, 4)}
	}
	for done := 0; done < n; {
		for _, p := range pkts {
			if !q.Admit(p.Src, false) {
				panic("niq: default queue refused below capacity")
			}
			q.Push(p)
		}
		for q.Head() != nil {
			q.PopHead()
			done++
		}
	}
}

// insertExtract pushes batches of 4-word messages into the two-case
// virtual buffer and reads each one back out: Push, then HeadLen,
// HeadWord and Pop per message.
func insertExtract(n int) {
	const batch = 64
	store := delivery.TwoCase{}.NewStore(vm.NewFrames(64), delivery.Params{})
	words := []uint64{1, 2, 3, 4}
	var sum uint64
	for done := 0; done < n; {
		for i := 0; i < batch; i++ {
			store.Push(uint64(done+i), words, 0, 0)
		}
		for !store.Empty() {
			for j := 0; j < store.HeadLen(); j++ {
				sum += store.HeadWord(j)
			}
			store.Pop()
			done++
		}
	}
	if sum == 0 {
		panic("delivery: extracted messages are empty")
	}
}
