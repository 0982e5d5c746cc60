package mesh

import (
	"runtime"
	"testing"

	"fugu/internal/faultinject"
	"fugu/internal/sim"
)

// denseClamp is the route FIFO kept as a dense per-pair table: the last
// arrival time per (class, src, dst), zero for a route that never carried
// a packet. It is the reference the sparse route rows must match.
type denseClamp struct {
	nodes int
	last  [numClasses][]uint64
}

func newDenseClamp(nodes int) *denseClamp {
	d := &denseClamp{nodes: nodes}
	for c := range d.last {
		d.last[c] = make([]uint64, nodes*nodes)
	}
	return d
}

func (d *denseClamp) clamp(class Class, src, dst int, at uint64) uint64 {
	i := src*d.nodes + dst
	if last := d.last[class][i]; at <= last {
		at = last + 1
	}
	d.last[class][i] = at
	return at
}

// TestRouteTableMatchesDense sends random schedules through the mesh and
// through the dense reference clamp, and requires every packet to arrive
// exactly when the reference says. Schedules mix both classes, same-cycle
// bursts that overflow a source's preallocated row, idle gaps that retire
// routes, fault-plan stalls on the main network, and a zero-latency model
// whose first sends happen at cycle 0.
func TestRouteTableMatchesDense(t *testing.T) {
	models := []LatencyModel{DefaultLatency(), {}, {Base: 1, PerWord: 3}}
	for mi, lat := range models {
		for seed := uint64(1); seed <= 6; seed++ {
			eng := sim.NewEngine(seed)
			net := New(eng, 4, 4, lat)
			for i := 0; i < net.Nodes(); i++ {
				net.Register(i, Main, &sinkEP{})
				net.Register(i, OS, &sinkEP{})
			}
			plan := faultinject.Plan{Seed: seed}
			if seed%2 == 0 {
				plan.Arm(faultinject.LinkStall, faultinject.FaultSpec{Prob: 0.3, Cycles: 40, Node: faultinject.AllNodes})
				plan.Arm(faultinject.HotSpot, faultinject.FaultSpec{Prob: 0.2, Cycles: 9, Node: faultinject.AllNodes})
			}
			// The reference draws its fault delays from a twin injector:
			// same plan, same clock, same call order.
			inj, refInj := faultinject.New(plan), faultinject.New(plan)
			inj.BindClock(eng.Now)
			refInj.BindClock(eng.Now)
			net.UseFaults(inj)
			ref := newDenseClamp(net.Nodes())

			rng := sim.NewRand(seed*31 + uint64(mi))
			want := map[*Packet]uint64{}
			var when uint64
			for i := 0; i < 3000; i++ {
				switch rng.Uint64n(8) {
				case 0:
					when += rng.Uint64n(200) // long enough for routes to drain
				case 1, 2:
					when += rng.Uint64n(4)
				}
				class := Class(rng.Uint64n(4) / 3) // mostly Main
				src := int(rng.Uint64n(uint64(net.Nodes())))
				dst := int(rng.Uint64n(uint64(net.Nodes())))
				words := make([]uint64, 1+rng.Uint64n(12))
				eng.Schedule(when, func() {
					at := eng.Now() + lat.Delay(net.Hops(src, dst), len(words))
					if class == Main {
						at += refInj.SendDelay(src, dst)
					}
					want[net.Send(class, src, dst, words)] = ref.clamp(class, src, dst, at)
				})
			}
			eng.Run()
			if len(want) != 3000 {
				t.Fatalf("model %d seed %d: %d packets sent, want 3000", mi, seed, len(want))
			}
			for pkt, at := range want {
				if pkt.ArrivedAt != at {
					t.Fatalf("model %d seed %d: packet %d (%s %d->%d, sent %d) arrived at %d, dense reference says %d",
						mi, seed, pkt.ID, pkt.Class, pkt.Src, pkt.Dst, pkt.SentAt, pkt.ArrivedAt, at)
				}
			}
		}
	}
}

// TestZeroLatencyAtCycleZero pins the empty-route case: a route with no
// entry clamps like a last arrival at 0, so a zero-latency send at cycle 0
// lands at 1, and the next one on the same route at 2.
func TestZeroLatencyAtCycleZero(t *testing.T) {
	eng := sim.NewEngine(1)
	net := New(eng, 2, 1, LatencyModel{})
	ep := &sinkEP{}
	net.Register(1, Main, ep)
	net.Send(Main, 0, 1, []uint64{1})
	net.Send(Main, 0, 1, []uint64{1})
	eng.Run()
	if len(ep.got) != 2 || ep.got[0].ArrivedAt != 1 || ep.got[1].ArrivedAt != 2 {
		t.Fatalf("zero-latency sends at cycle 0 arrived at %v, want [1 2]", arrivals(ep.got))
	}
}

func arrivals(pkts []*Packet) []uint64 {
	at := make([]uint64, len(pkts))
	for i, p := range pkts {
		at[i] = p.ArrivedAt
	}
	return at
}

// TestNewFootprint bounds what a 64x64 mesh allocates before any traffic:
// per-node state only. A per-pair table (4096² entries per class) would
// cost hundreds of MiB here.
func TestNewFootprint(t *testing.T) {
	eng := sim.NewEngine(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	net := New(eng, 64, 64, DefaultLatency())
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(net)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("New(64x64) allocated %d KiB, want under 1024 KiB", d>>10)
	}
}
