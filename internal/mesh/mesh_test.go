package mesh

import (
	"testing"
	"testing/quick"

	"fugu/internal/sim"
)

// sinkEP accepts up to cap packets until drained.
type sinkEP struct {
	got []*Packet
	cap int
}

func (s *sinkEP) Arrive(p *Packet) bool {
	if s.cap > 0 && len(s.got) >= s.cap {
		return false
	}
	s.got = append(s.got, p)
	return true
}

func newNet(e *sim.Engine) (*Net, []*sinkEP) {
	n := New(e, 4, 2, DefaultLatency())
	eps := make([]*sinkEP, n.Nodes())
	for i := range eps {
		eps[i] = &sinkEP{}
		n.Register(i, Main, eps[i])
		n.Register(i, OS, &sinkEP{})
	}
	return n, eps
}

func TestHops(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, 4, 2, DefaultLatency())
	cases := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 3, 3}, {0, 4, 1}, {0, 7, 4}, {3, 4, 4}, {1, 6, 2},
	}
	for _, c := range cases {
		if got := n.Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDeliveryLatency(t *testing.T) {
	e := sim.NewEngine(1)
	n, eps := newNet(e)
	n.Send(Main, 0, 3, []uint64{1, 2, 3, 4}) // 3 hops, 4 words
	e.Run()
	if len(eps[3].got) != 1 {
		t.Fatalf("got %d packets, want 1", len(eps[3].got))
	}
	pkt := eps[3].got[0]
	want := DefaultLatency().Delay(3, 4) // 10 + 2*3 + 1*4 = 20
	if pkt.ArrivedAt != want {
		t.Errorf("arrived at %d, want %d", pkt.ArrivedAt, want)
	}
}

func TestLocalDelivery(t *testing.T) {
	e := sim.NewEngine(1)
	n, eps := newNet(e)
	n.Send(Main, 2, 2, []uint64{9})
	e.Run()
	if len(eps[2].got) != 1 {
		t.Fatal("local packet not delivered")
	}
	if eps[2].got[0].ArrivedAt != DefaultLatency().Delay(0, 1) {
		t.Errorf("local latency = %d", eps[2].got[0].ArrivedAt)
	}
}

func TestInOrderPerPair(t *testing.T) {
	e := sim.NewEngine(1)
	n, eps := newNet(e)
	e.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			n.Send(Main, 0, 5, []uint64{uint64(i)})
			p.Sleep(1)
		}
	})
	e.Run()
	if len(eps[5].got) != 20 {
		t.Fatalf("got %d packets, want 20", len(eps[5].got))
	}
	for i, pkt := range eps[5].got {
		if pkt.Words[0] != uint64(i) {
			t.Fatalf("out of order at %d: %v", i, pkt.Words[0])
		}
	}
}

func TestBackpressureAndNotifySpace(t *testing.T) {
	e := sim.NewEngine(1)
	n, eps := newNet(e)
	eps[1].cap = 2
	for i := 0; i < 5; i++ {
		n.Send(Main, 0, 1, []uint64{uint64(i)})
	}
	e.Run()
	if len(eps[1].got) != 2 {
		t.Fatalf("accepted %d, want 2", len(eps[1].got))
	}
	if n.BlockedAt(1, Main) != 3 {
		t.Fatalf("blocked = %d, want 3", n.BlockedAt(1, Main))
	}
	if n.StatsFor(Main).Refused == 0 {
		t.Error("no refusals recorded")
	}
	// Drain one slot: exactly one blocked packet (the next in order) lands.
	eps[1].cap = 3
	n.NotifySpace(1, Main)
	if len(eps[1].got) != 3 || eps[1].got[2].Words[0] != 2 {
		t.Fatalf("after notify: got %d, last word %d", len(eps[1].got), eps[1].got[len(eps[1].got)-1].Words[0])
	}
	// Unbounded now: the rest flows.
	eps[1].cap = 0
	n.NotifySpace(1, Main)
	if len(eps[1].got) != 5 || n.BlockedAt(1, Main) != 0 {
		t.Fatalf("after drain: got %d, blocked %d", len(eps[1].got), n.BlockedAt(1, Main))
	}
}

func TestOrderPreservedAcrossRefusal(t *testing.T) {
	e := sim.NewEngine(1)
	n, eps := newNet(e)
	eps[1].cap = 1
	e.Spawn("s", func(p *sim.Proc) {
		n.Send(Main, 0, 1, []uint64{0})
		p.Sleep(100) // first packet delivered, fills the queue
		n.Send(Main, 0, 1, []uint64{1})
		p.Sleep(100) // second blocks in network
		eps[1].cap = 10
		n.Send(Main, 0, 1, []uint64{2}) // must NOT bypass packet 1
		p.Sleep(100)
		n.NotifySpace(1, Main)
	})
	e.Run()
	if len(eps[1].got) != 3 {
		t.Fatalf("got %d packets, want 3", len(eps[1].got))
	}
	for i, pkt := range eps[1].got {
		if pkt.Words[0] != uint64(i) {
			t.Fatalf("order violated: position %d has %d", i, pkt.Words[0])
		}
	}
}

func TestClassesIndependent(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, 4, 2, DefaultLatency())
	main := &sinkEP{cap: 1}
	osEp := &sinkEP{}
	for i := 0; i < n.Nodes(); i++ {
		n.Register(i, Main, main)
		n.Register(i, OS, osEp)
	}
	// Clog the main network at node 1.
	n.Send(Main, 0, 1, []uint64{1})
	n.Send(Main, 0, 1, []uint64{2})
	n.Send(OS, 0, 1, []uint64{3})
	e.Run()
	if len(osEp.got) != 1 {
		t.Error("OS network blocked by main-network congestion")
	}
	if n.BlockedAt(1, Main) != 1 {
		t.Errorf("main blocked = %d, want 1", n.BlockedAt(1, Main))
	}
}

func TestStats(t *testing.T) {
	e := sim.NewEngine(1)
	n, _ := newNet(e)
	n.Send(Main, 0, 1, []uint64{1, 2, 3})
	n.Send(Main, 2, 3, []uint64{1})
	n.Send(OS, 0, 1, []uint64{1, 2})
	e.Run()
	if s := n.StatsFor(Main); s.Packets != 2 || s.Words != 4 {
		t.Errorf("main stats = %+v", s)
	}
	if s := n.StatsFor(OS); s.Packets != 1 || s.Words != 2 {
		t.Errorf("os stats = %+v", s)
	}
}

func TestSendInvalidNodePanics(t *testing.T) {
	e := sim.NewEngine(1)
	n, _ := newNet(e)
	defer func() {
		if recover() == nil {
			t.Error("send to invalid node did not panic")
		}
	}()
	n.Send(Main, 0, 99, []uint64{1})
}

// Property: for random send schedules from many sources to one sink with a
// finite queue that is drained periodically, every packet is delivered
// exactly once and per-source order is preserved.
func TestDeliveryExactlyOnceProperty(t *testing.T) {
	prop := func(seed uint64, plan []uint8) bool {
		if len(plan) == 0 {
			return true
		}
		e := sim.NewEngine(seed)
		n := New(e, 4, 2, DefaultLatency())
		sink := &sinkEP{cap: 2}
		for i := 0; i < n.Nodes(); i++ {
			n.Register(i, Main, sink)
			n.Register(i, OS, &sinkEP{})
		}
		type mark struct{ at, id uint64 }
		lastSent := map[int]mark{}
		sent := 0
		for i, b := range plan {
			src := int(b) % 7 // nodes 0..6 send to 7
			delay := uint64(b%13) * uint64(i)
			seq := uint64(i)
			e.Schedule(delay, func() { n.Send(Main, src, 7, []uint64{uint64(src), seq}) })
			sent++
		}
		// Periodic drain.
		var drain func()
		drain = func() {
			sink.cap += 2
			n.NotifySpace(7, Main)
			if len(sink.got) < sent {
				e.Schedule(50, drain)
			}
		}
		e.Schedule(25, drain)
		e.Run()
		if len(sink.got) != sent {
			return false
		}
		seen := map[uint64]bool{}
		for _, pkt := range sink.got {
			if seen[pkt.ID] {
				return false // duplicate
			}
			seen[pkt.ID] = true
			src := int(pkt.Words[0])
			// Per-pair delivery must follow injection order: (SentAt, ID)
			// nondecreasing lexicographically for each source.
			if last, ok := lastSent[src]; ok {
				if pkt.SentAt < last.at || (pkt.SentAt == last.at && pkt.ID < last.id) {
					return false // per-source reorder
				}
			}
			lastSent[src] = mark{pkt.SentAt, pkt.ID}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestShortPacketCannotOvertakeLong: a 2-word packet sent right after a
// 60-word packet on the same route must arrive second, even though its raw
// latency is smaller (per-pair FIFO, the property higher-level protocols
// rely on for reassembly and flush ordering).
func TestShortPacketCannotOvertakeLong(t *testing.T) {
	e := sim.NewEngine(1)
	n, eps := newNet(e)
	long := make([]uint64, 60)
	long[0] = 111
	n.Send(Main, 0, 1, long)
	n.Send(Main, 0, 1, []uint64{222, 0})
	e.Run()
	if len(eps[1].got) != 2 {
		t.Fatalf("delivered %d", len(eps[1].got))
	}
	if eps[1].got[0].Words[0] != 111 || eps[1].got[1].Words[0] != 222 {
		t.Errorf("short packet overtook long: %d then %d",
			eps[1].got[0].Words[0], eps[1].got[1].Words[0])
	}
	if eps[1].got[1].ArrivedAt <= eps[1].got[0].ArrivedAt {
		t.Error("arrival times not strictly ordered")
	}
}

// TestPoolPerEngine pins the free-list keying: on one engine a packet
// released at one node is handed to an Acquire at any other node, while
// after ShardEngines each engine recycles only what its own nodes release.
func TestPoolPerEngine(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, 4, 1, DefaultLatency())
	pkt := n.Acquire(0, 2)
	n.Release(3, pkt)
	if got := n.Acquire(1, 2); got != pkt {
		t.Fatal("single engine: a packet released at node 3 was not reused by node 1")
	}

	g := sim.NewParallelGroup(1, 2, 2)
	n = New(g.Shard(0), 4, 1, DefaultLatency())
	n.ShardEngines([]*sim.Engine{g.Shard(0), g.Shard(0), g.Shard(1), g.Shard(1)})
	pkt = n.Acquire(0, 2)
	n.Release(3, pkt)
	if got := n.Acquire(1, 2); got == pkt {
		t.Fatal("sharded: node 1 took a packet from the other engine's list")
	}
	if got := n.Acquire(2, 2); got != pkt {
		t.Fatal("sharded: node 2 did not reuse the packet its engine's node 3 released")
	}
}

// TestReleasePoison checks the meshpoison hook: a released packet's ID and
// words read as poison, a second release panics, and Acquire clears the
// mark so the recycled packet can be released again.
func TestReleasePoison(t *testing.T) {
	if !poison {
		t.Skip("needs go test -tags meshpoison")
	}
	n := New(sim.NewEngine(1), 2, 1, DefaultLatency())
	pkt := n.Acquire(0, 3)
	pkt.ID, pkt.Words[0] = 7, 7
	n.Release(1, pkt)
	if pkt.ID != poisonWord || pkt.Words[0] != poisonWord || pkt.Words[2] != poisonWord {
		t.Fatalf("released packet not poisoned: ID %#x words %#x", pkt.ID, pkt.Words)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double release did not panic")
			}
		}()
		n.Release(1, pkt)
	}()
	if got := n.Acquire(0, 3); got != pkt {
		t.Fatal("the poisoned packet was not recycled")
	}
	n.Release(0, pkt) // the mark was cleared: no panic
}
