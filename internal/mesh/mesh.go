// Package mesh models the FUGU interconnect: a 2-D mesh carrying two
// independent logical networks — the main user/data network and the reserved
// operating-system network the paper relies on for a deadlock-free path to
// backing store (implemented in the UCU as a bit-serial network).
//
// The model is deliberately at the level the paper's experiments need:
// deterministic per-pair in-order delivery, dimension-ordered hop latency,
// per-word serialization, and receiver backpressure (a full NI input queue
// leaves packets queued in the network, which is exactly the condition the
// atomicity-timeout mechanism exists to police). Router microarchitecture is
// out of scope (see DESIGN.md).
package mesh

import (
	"fmt"

	"fugu/internal/faultinject"
	"fugu/internal/metrics"
	"fugu/internal/sim"
	"fugu/internal/spans"
)

// Class selects one of the two logical networks.
type Class int

// Logical networks.
const (
	Main Class = iota // user messages
	OS                // reserved kernel network (paging, overflow control)
	numClasses
)

func (c Class) String() string {
	if c == Main {
		return "main"
	}
	return "os"
}

// Packet is one message in flight. Words[0] is the routing header written by
// the sender's NI (destination and GID stamp); Words[1] is the handler
// address; the rest is payload.
type Packet struct {
	ID    uint64 // global injection sequence number
	Src   int
	Dst   int
	Class Class
	Words []uint64

	SentAt    uint64 // injection time
	ArrivedAt uint64 // time the packet reached the destination port

	// FaultMismatch marks a packet whose GID the receiving NI must treat
	// as mismatched regardless of the stamp (deterministic fault
	// injection); the kernel still demultiplexes it by its real header.
	FaultMismatch bool

	// released marks a packet sitting in a free list; only meshpoison
	// builds set and check it (see poison).
	released bool
}

// Len returns the packet length in words.
func (p *Packet) Len() int { return len(p.Words) }

// Endpoint receives packets at a node. Arrive must not consume simulated
// time; it returns false to refuse the packet (input queue full), in which
// case the network holds it and re-offers after NotifySpace.
type Endpoint interface {
	Arrive(pkt *Packet) bool
}

// LatencyModel gives the fixed delivery cost of a packet.
type LatencyModel struct {
	Base    uint64 // router pipeline + launch-to-head latency
	PerHop  uint64 // per mesh hop
	PerWord uint64 // serialization per word
}

// DefaultLatency roughly matches Alewife's network: a handful of cycles of
// base latency plus small per-hop and per-word costs.
func DefaultLatency() LatencyModel {
	return LatencyModel{Base: 10, PerHop: 2, PerWord: 1}
}

// Delay computes the latency for a packet of n words over h hops.
func (m LatencyModel) Delay(h, n int) uint64 {
	return m.Base + m.PerHop*uint64(h) + m.PerWord*uint64(n)
}

// Stats aggregates per-network traffic counters.
type Stats struct {
	Packets uint64
	Words   uint64
	Refused uint64 // Arrive rejections (backpressure events)
}

// route is one in-flight route out of a source: key is dst<<1 | class,
// and at is the arrival time of the route's last packet.
type route struct {
	at  uint64
	key int32
}

// routeSlots is the row capacity each source gets from the shared backing
// array; a busier row spills to its own array on append.
const routeSlots = 4

// Net is the interconnect for a machine of W×H nodes.
type Net struct {
	eng       *sim.Engine
	w, h      int
	lat       LatencyModel
	nextID    uint64
	deliverFn func(any) // n.deliver bound once; Send schedules it with the packet as arg

	// engs maps each node to its partition engine, nil when the whole mesh
	// lives on one engine. parallel is set when those engines belong to a
	// partition group: injections then route through the conservative
	// staging protocol and per-node ID lanes (see ShardEngines).
	engs     []*sim.Engine
	parallel bool
	// ids are the per-node injection counters used instead of nextID in
	// parallel mode (a shared counter would race and make IDs depend on
	// worker interleaving). The source index in the high bits keeps IDs
	// globally unique and deterministic.
	ids []uint64

	endpoints [numClasses][]Endpoint
	// blocked packets per (class, dst), FIFO in arrival order.
	blocked [numClasses][][]*Packet
	// routes enforces per-(src,dst,class) FIFO: a short packet must not
	// overtake an earlier long one on the same route (packets follow the
	// same path and cannot reorder in a wormhole mesh). routes[src] lists
	// the routes out of src that still have a packet in flight, with the
	// last one's arrival time, so the table costs O(in-flight), not
	// O(nodes²). Only src's engine touches its row.
	routes [][]route
	// stats are kept in per-node lanes — Packets/Words owned by the
	// sender, Refused by the receiver — so parallel partitions never write
	// the same word; StatsFor sums them.
	stats [numClasses][]Stats
	// pool holds one packet free list per engine, and poolOf maps each
	// node to its engine's list (all zeros until ShardEngines). Acquire
	// pops the sender's engine's list and Release pushes the receiver's,
	// so skewed traffic still recycles, and a parallel partition only
	// ever touches its own engine's list.
	pool   [][]*Packet
	poolOf []int32

	// Metrics instruments, nil (no-op) unless UseMetrics is called.
	mPackets [numClasses]*metrics.Counter
	mWords   [numClasses]*metrics.Counter
	mRefused [numClasses]*metrics.Counter
	mBlocked *metrics.Gauge // packets parked in-network (link back-pressure)

	// rec observes message lifecycles, nil (no-op) unless UseSpans is called.
	rec *spans.Recorder

	// inj adds fault-plan latency to main-network sends, nil (no-op)
	// unless UseFaults is called.
	inj *faultinject.Injector
}

// UseSpans installs a lifecycle recorder: every Send begins a span and
// arrival/backpressure transitions are recorded against the packet ID.
func (n *Net) UseSpans(rec *spans.Recorder) { n.rec = rec }

// UseFaults installs a fault injector: main-network sends pick up link-stall
// and hot-spot delays from the plan. The OS network is never delayed — its
// deadlock-free guarantee is what overflow control and paging stand on.
func (n *Net) UseFaults(inj *faultinject.Injector) { n.inj = inj }

// UseMetrics binds the network's instruments into a registry: per-class
// traffic counters ("mesh.<class>.packets", ".words", ".refused") and a
// "mesh.blocked" gauge tracking packets held in the network by receiver
// back-pressure — its Max is the worst instantaneous congestion, the mesh
// link-utilization signal the overflow experiments care about.
func (n *Net) UseMetrics(r *metrics.Registry) {
	for c := Class(0); c < numClasses; c++ {
		n.mPackets[c] = r.Counter("mesh." + c.String() + ".packets")
		n.mWords[c] = r.Counter("mesh." + c.String() + ".words")
		n.mRefused[c] = r.Counter("mesh." + c.String() + ".refused")
	}
	n.mBlocked = r.Gauge("mesh.blocked")
}

// New creates a mesh of w×h nodes on the engine with the given latency model.
func New(eng *sim.Engine, w, h int, lat LatencyModel) *Net {
	n := w * h
	net := &Net{eng: eng, w: w, h: h, lat: lat}
	net.deliverFn = func(arg any) { net.deliver(arg.(*Packet)) }
	net.pool = make([][]*Packet, 1)
	net.poolOf = make([]int32, n)
	for c := range net.endpoints {
		net.endpoints[c] = make([]Endpoint, n)
		net.blocked[c] = make([][]*Packet, n)
		net.stats[c] = make([]Stats, n)
	}
	// Carve every row from one array: growing each from nil would cost
	// an allocation per node.
	slots := make([]route, n*routeSlots)
	net.routes = make([][]route, n)
	for i := range net.routes {
		net.routes[i] = slots[i*routeSlots : i*routeSlots : (i+1)*routeSlots]
	}
	return net
}

// ShardEngines places each node on its partition engine (engs[node]); engs
// must hold exactly one engine per node, or ShardEngines panics. With a
// partition group, packet IDs switch to per-source lanes (src<<40 | seq) and
// UseMetrics/UseSpans/UseFaults must not be used — those observers are
// shared mutable state, exactly what parallel partitions cannot have.
func (n *Net) ShardEngines(engs []*sim.Engine) {
	if len(engs) != n.Nodes() {
		panic(fmt.Sprintf("mesh: ShardEngines got %d engines for %d nodes", len(engs), n.Nodes()))
	}
	n.engs = engs
	n.parallel = engs[0].Group() != nil
	// owners[i] is the engine of free list i. The scan starts at the
	// newest list, so contiguous node blocks per engine cost O(1) each.
	var owners []*sim.Engine
	for node, e := range engs {
		p := len(owners) - 1
		for p >= 0 && owners[p] != e {
			p--
		}
		if p < 0 {
			p = len(owners)
			owners = append(owners, e)
		}
		n.poolOf[node] = int32(p)
	}
	n.pool = make([][]*Packet, len(owners))
	if n.parallel {
		n.ids = make([]uint64, n.Nodes())
	}
}

// EngineFor returns the engine owning a node's events: the node's
// partition engine after ShardEngines, the constructor engine otherwise.
// Workloads schedule a node's local events through it so they land on the
// heap that node's deliveries drain from.
func (n *Net) EngineFor(node int) *sim.Engine { return n.engAt(node) }

// engAt returns the engine owning a node's events.
func (n *Net) engAt(node int) *sim.Engine {
	if n.engs == nil {
		return n.eng
	}
	return n.engs[node]
}

// Nodes returns the node count.
func (n *Net) Nodes() int { return n.w * n.h }

// Hops returns the dimension-ordered (XY) hop count between two nodes.
func (n *Net) Hops(src, dst int) int {
	sx, sy := src%n.w, src/n.w
	dx, dy := dst%n.w, dst/n.w
	abs := func(v int) int {
		if v < 0 {
			return -v
		}
		return v
	}
	return abs(sx-dx) + abs(sy-dy)
}

// Register installs the endpoint for a node on one logical network.
func (n *Net) Register(node int, class Class, ep Endpoint) {
	n.endpoints[class][node] = ep
}

// StatsFor returns traffic counters for a logical network, summed over the
// per-node lanes.
func (n *Net) StatsFor(class Class) Stats {
	var total Stats
	for _, s := range n.stats[class] {
		total.Packets += s.Packets
		total.Words += s.Words
		total.Refused += s.Refused
	}
	return total
}

// Acquire returns a packet whose Words slice has length words, recycled
// from the free list of the engine owning node when one is available. The
// caller fills Words and injects with SendPacket; whoever ends the
// packet's delivery hands it back, exactly once, via Release. Pooling
// never changes event order or RNG draws, so results are identical to
// freshly allocated packets.
func (n *Net) Acquire(node, words int) *Packet {
	var pkt *Packet
	p := n.poolOf[node]
	if q := n.pool[p]; len(q) > 0 {
		pkt = q[len(q)-1]
		q[len(q)-1] = nil
		n.pool[p] = q[:len(q)-1]
	} else {
		pkt = &Packet{}
	}
	if poison {
		pkt.released = false
	}
	if cap(pkt.Words) < words {
		pkt.Words = make([]uint64, words)
	} else {
		pkt.Words = pkt.Words[:words]
	}
	return pkt
}

// poisonWord overwrites a released packet's ID and Words in meshpoison
// builds.
const poisonWord = 0xdead_dead_dead_dead

// Release returns a packet to the free list of the engine owning node, the
// node where its delivery ended. Every terminal path releases: fast
// dispose, the kernel's drop and OS-network handlers, the buffered insert
// and the NI's offload demux. No component may touch a released packet:
// every delivery store copies the words out before the release.
func (n *Net) Release(node int, pkt *Packet) {
	if poison {
		if pkt.released {
			panic("mesh: packet released twice")
		}
		pkt.released = true
		pkt.ID = poisonWord
		for i := range pkt.Words {
			pkt.Words[i] = poisonWord
		}
	}
	p := n.poolOf[node]
	n.pool[p] = append(n.pool[p], pkt)
}

// Send injects a packet. words[0] must already hold the routing header; the
// destination is passed explicitly since header encoding belongs to the NI.
// Delivery is in order per (src, dst, class) pair and costs
// Base + PerHop*hops + PerWord*len cycles; local sends (src == dst) skip the
// hop cost but still traverse the interface. The packet carries the
// caller's slice, so it must not be released into the pool.
func (n *Net) Send(class Class, src, dst int, words []uint64) *Packet {
	pkt := n.Acquire(src, 0)
	pkt.Words = words
	return n.SendPacket(class, src, dst, pkt)
}

// SendPacket injects a caller-filled packet (see Acquire): the Send fast
// path without the per-message Words allocation. The packet's Words must
// already hold the routing header and payload.
func (n *Net) SendPacket(class Class, src, dst int, pkt *Packet) *Packet {
	if dst < 0 || dst >= n.Nodes() {
		panic(fmt.Sprintf("mesh: send to invalid node %d", dst))
	}
	se := n.engAt(src)
	now := se.Now()
	pkt.Src, pkt.Dst, pkt.Class = src, dst, class
	pkt.SentAt = now
	pkt.ArrivedAt = 0
	pkt.FaultMismatch = false
	if n.parallel {
		pkt.ID = uint64(src)<<40 | n.ids[src]
		n.ids[src]++
	} else {
		pkt.ID = n.nextID
		n.nextID++
	}
	n.rec.Begin(pkt.SentAt, pkt.ID, class.String(), src, dst, len(pkt.Words))
	n.stats[class][src].Packets++
	n.stats[class][src].Words += uint64(len(pkt.Words))
	n.mPackets[class].Inc()
	n.mWords[class].Add(uint64(len(pkt.Words)))
	at := now + n.lat.Delay(n.Hops(src, dst), len(pkt.Words))
	if class == Main {
		// Fault-plan congestion lands before the FIFO clamp below, so
		// injected stalls can delay but never reorder a pair's traffic.
		at += n.inj.SendDelay(src, dst)
	}
	// Same-route FIFO: a short packet sent after a long one queues behind
	// it rather than overtaking (length-dependent latency must not reorder
	// a pair's traffic). The scan drops routes whose last packet arrived
	// before now: this send lands at now or later, so they cannot clamp
	// it. A route with no entry clamps like a last arrival at 0.
	key := int32(dst)<<1 | int32(class)
	var last uint64
	row := n.routes[src]
	live := row[:0]
	for _, r := range row {
		switch {
		case r.at < now:
		case r.key == key:
			last = r.at
		default:
			live = append(live, r)
		}
	}
	if at <= last {
		at = last + 1
	}
	n.routes[src] = append(live, route{at: at, key: key})
	se.CrossScheduleArgAtSite(n.engAt(dst), siteDeliver, at, n.deliverFn, pkt)
	return pkt
}

// siteDeliver labels packet-arrival events for the engine cost profiler.
var siteDeliver = sim.NewSite("mesh.deliver")

// deliver offers pkt to its destination, queueing it behind any packets
// already blocked there so per-pair order is preserved even across refusals.
func (n *Net) deliver(pkt *Packet) {
	pkt.ArrivedAt = n.engAt(pkt.Dst).Now()
	n.rec.Arrive(pkt.ArrivedAt, pkt.ID)
	q := n.blocked[pkt.Class][pkt.Dst]
	if len(q) > 0 {
		// Keep strict arrival order: never bypass blocked packets.
		n.blocked[pkt.Class][pkt.Dst] = append(q, pkt)
		n.mBlocked.Add(1)
		n.rec.NetBlock(pkt.ArrivedAt, pkt.ID)
		return
	}
	ep := n.endpoints[pkt.Class][pkt.Dst]
	if ep == nil {
		panic(fmt.Sprintf("mesh: no endpoint for node %d class %s", pkt.Dst, pkt.Class))
	}
	if !ep.Arrive(pkt) {
		n.stats[pkt.Class][pkt.Dst].Refused++
		n.mRefused[pkt.Class].Inc()
		n.blocked[pkt.Class][pkt.Dst] = append(q, pkt)
		n.mBlocked.Add(1)
		n.rec.NetBlock(pkt.ArrivedAt, pkt.ID)
	}
}

// NotifySpace tells the network a node freed input capacity on a class;
// blocked packets are re-offered in arrival order until one is refused.
func (n *Net) NotifySpace(node int, class Class) {
	q := n.blocked[class][node]
	for len(q) > 0 {
		pkt := q[0]
		if !n.endpoints[class][node].Arrive(pkt) {
			break
		}
		copy(q, q[1:])
		q = q[:len(q)-1]
		n.mBlocked.Add(-1)
	}
	n.blocked[class][node] = q
}

// BlockedAt reports how many packets are waiting in the network for a node.
func (n *Net) BlockedAt(node int, class Class) int {
	return len(n.blocked[class][node])
}
