package apps

import (
	"fmt"

	"fugu/internal/cpu"
	"fugu/internal/glaze"
	"fugu/internal/udm"
)

// Enum is the triangle-puzzle enumeration benchmark: a fine-grain,
// data-parallel search that ships work items as numerous unacknowledged
// short messages and synchronizes only infrequently (a termination-
// detection token ring). The puzzle is triangular peg solitaire: a board
// with Side pegs per side, one hole empty, jumps removing pegs; the program
// counts every game ending with a single peg.
type Enum struct {
	Side      int // pegs per side (the paper runs 6)
	ShipEvery int // ship the children of every k-th expansion

	moves     []enumMove
	holes     int
	solutions []uint64
	expanded  []uint64
	done      bool
}

// enumMove is one jump rule as bit masks: the move applies when every
// need bit (the jumping peg and the peg jumped over) is set and the to bit
// (the landing hole) is clear.
type enumMove struct{ need, to uint64 }

// NewEnum configures the puzzle. ShipEvery 4 ships a quarter of all
// expansions to other nodes, keeping communication fine-grained without
// drowning the network.
func NewEnum(side int) *Enum {
	e := &Enum{Side: side, ShipEvery: 4}
	e.prepare()
	return e
}

// Name implements Instance.
func (s *Enum) Name() string { return "enum" }

// Model implements Instance.
func (s *Enum) Model() string { return "UDM" }

// prepare builds the board geometry: hole indices and jump moves.
func (s *Enum) prepare() {
	idx := make(map[[2]int]int)
	n := 0
	for r := 0; r < s.Side; r++ {
		for i := 0; i <= r; i++ {
			idx[[2]int{r, i}] = n
			n++
		}
	}
	s.holes = n
	dirs := [][2]int{{0, 1}, {0, -1}, {1, 0}, {-1, 0}, {1, 1}, {-1, -1}}
	for r := 0; r < s.Side; r++ {
		for i := 0; i <= r; i++ {
			for _, d := range dirs {
				over := [2]int{r + d[0], i + d[1]}
				to := [2]int{r + 2*d[0], i + 2*d[1]}
				o, ok1 := idx[over]
				t, ok2 := idx[to]
				if ok1 && ok2 {
					from := uint64(1) << idx[[2]int{r, i}]
					s.moves = append(s.moves, enumMove{need: from | 1<<o, to: 1 << t})
				}
			}
		}
	}
}

// initial returns the starting board: full except the apex hole.
func (s *Enum) initial() uint64 {
	return (uint64(1)<<s.holes - 1) &^ 1
}

// expand applies every legal jump to state, calling visit per child. It
// returns the number of children (0 = leaf).
func (s *Enum) expand(state uint64, visit func(uint64)) int {
	children := 0
	for _, m := range s.moves {
		if state&m.need == m.need && state&m.to == 0 {
			visit(state&^m.need | m.to)
			children++
		}
	}
	return children
}

// SolveSequential enumerates the whole tree on one (real) CPU, for
// verification. Returns the single-peg solution count and states expanded.
func (s *Enum) SolveSequential() (solutions, expanded uint64) {
	stack := []uint64{s.initial()}
	for len(stack) > 0 {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		expanded++
		if s.expand(st, func(c uint64) { stack = append(stack, c) }) == 0 {
			if popcount(st) == 1 {
				solutions++
			}
		}
	}
	return
}

// mix is a splitmix64-style finalizer used for shipping decisions.
func mix(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

func popcount(v uint64) int {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}

// enumNode is the per-node runtime state of the distributed search.
type enumNode struct {
	app   *Enum
	ep    *udm.EP
	self  int
	nodes int

	stack []uint64
	work  *udm.Counter // wakes the main loop on arrivals
	black bool         // termination-detection colour
	sent  int64        // work messages sent minus received
	token *tokenState
	done  bool
	ships int
}

type tokenState struct {
	holding bool
	value   int64
	black   bool
}

// expansion cost in cycles: move generation over the 36-odd jump rules.
const enumExpandCost = 120

// Start implements Instance.
func (s *Enum) Start(m *glaze.Machine, job *glaze.Job) {
	r := NewRig(m, job)
	n := r.Nodes()
	s.solutions = make([]uint64, n)
	s.expanded = make([]uint64, n)
	nodes := make([]*enumNode, n)
	for i := 0; i < n; i++ {
		nodes[i] = &enumNode{app: s, ep: r.EPs[i], self: i, nodes: n, work: udm.NewCounter()}
		if i == 0 {
			// The origin holds a fresh token: no conclusion may be drawn
			// until a full probe has circulated.
			nodes[i].token = &tokenState{holding: true, value: tokenFresh}
		} else {
			nodes[i].token = &tokenState{}
		}
	}
	for i := 0; i < n; i++ {
		en := nodes[i]
		en.register()
		job.Process(i).StartMain(func(t *cpu.Task) { en.run(t) })
	}
	nodes[0].stack = append(nodes[0].stack, s.initial())
}

func (en *enumNode) register() {
	en.ep.On(hEnumWork, func(e *udm.Env, m *udm.Msg) {
		en.stack = append(en.stack, m.Args[0])
		en.sent--
		en.black = true
		en.work.Add(1)
	})
	en.ep.On(hEnumToken, func(e *udm.Env, m *udm.Msg) {
		en.token.holding = true
		en.token.value = int64(m.Args[0])
		en.token.black = m.Args[1] != 0
		en.work.Add(1)
	})
	en.ep.On(hEnumDone, func(e *udm.Env, m *udm.Msg) {
		en.done = true
		en.work.Add(1)
	})
}

// run is the main search loop with Dijkstra-style token-ring termination.
func (en *enumNode) run(t *cpu.Task) {
	e := en.ep.Env(t)
	s := en.app
	for !en.done {
		for len(en.stack) > 0 {
			st := en.stack[len(en.stack)-1]
			en.stack = en.stack[:len(en.stack)-1]
			t.Spend(enumExpandCost)
			s.expanded[en.self]++
			// Shipping decisions hash the state, not the local expansion
			// count, so the distribution of work across nodes is a pure
			// function of the tree — runs differ in timing, never in
			// placement, which keeps the runtime comparison across skews
			// meaningful.
			ship := s.ShipEvery > 0 && en.nodes > 1 && mix(st)%uint64(s.ShipEvery) == 0
			kids := s.expand(st, func(c uint64) {
				if ship {
					dst := int(mix(c^0xabcd) % uint64(en.nodes-1))
					if dst >= en.self {
						dst++
					}
					en.sent++
					en.ships++
					e.Inject(dst, hEnumWork, c)
					return
				}
				en.stack = append(en.stack, c)
			})
			if kids == 0 && popcount(st) == 1 {
				s.solutions[en.self]++
			}
		}
		// Idle: participate in termination detection. The origin throttles
		// probe relaunches so an idle ring does not spin the network — the
		// application synchronizes infrequently, as in the paper.
		if en.token.holding {
			if en.self == 0 && en.token.value != tokenFresh {
				t.Spend(probeCooldown)
				if len(en.stack) > 0 || en.done {
					continue
				}
			}
			en.passToken(e)
		}
		if en.done {
			break
		}
		target := en.work.Value() + 1
		en.work.WaitFor(t, target)
	}
}

// probeCooldown is the origin's idle wait between termination probes.
const probeCooldown = 5000

// passToken forwards the termination token, or declares completion at the
// ring's origin after a clean pass.
func (en *enumNode) passToken(e *udm.Env) {
	tk := en.token
	tk.holding = false
	if en.self == 0 {
		// Origin: a white token returning with zero global balance to a
		// white origin means no work is anywhere and none is in flight.
		if !tk.black && !en.black && tk.value != tokenFresh && tk.value+en.sent == 0 {
			for i := 1; i < en.nodes; i++ {
				e.Inject(i, hEnumDone)
			}
			en.done = true
			return
		}
		// Launch a fresh white token with a zero count; the origin's own
		// balance is added only when the token returns.
		en.black = false
		e.Inject(1%en.nodes, hEnumToken, 0, 0)
		tk.value = 0
		return
	}
	v := tk.value + en.sent
	black := tk.black || en.black
	en.black = false
	b := uint64(0)
	if black {
		b = 1
	}
	e.Inject((en.self+1)%en.nodes, hEnumToken, uint64(v), b)
}

// tokenFresh marks the origin's very first token launch (nothing observed).
const tokenFresh = int64(-1 << 62)

// Check implements Instance: the distributed totals must match a sequential
// enumeration exactly.
func (s *Enum) Check() error {
	wantSol, wantExp := s.SolveSequential()
	var sol, exp uint64
	for i := range s.solutions {
		sol += s.solutions[i]
		exp += s.expanded[i]
	}
	if sol != wantSol || exp != wantExp {
		return checkf("enum: got %d solutions / %d expansions, want %d / %d",
			sol, exp, wantSol, wantExp)
	}
	return nil
}

// String describes the configuration.
func (s *Enum) String() string {
	return fmt.Sprintf("enum(side=%d, holes=%d, moves=%d)", s.Side, s.holes, len(s.moves))
}
