package harness

import (
	"context"
	"fmt"
	"io"
	"strings"

	"fugu/internal/cpu"
	"fugu/internal/delivery"
	"fugu/internal/faultinject"
	"fugu/internal/glaze"
	"fugu/internal/metrics"
	"fugu/internal/plot"
	"fugu/internal/spans"
	"fugu/internal/telemetry"
	"fugu/internal/udm"
	"fugu/internal/vm"
)

// The crucible is the adversarial counterpart of the paper experiments: a
// fixed all-to-all messaging workload run under a sweep of deterministic
// fault plans, with delivery oracles checked after every run. Where the
// tables measure the happy path's cycle counts, the crucible proves the
// two-case machinery degrades gracefully — no message lost, duplicated or
// stuck — when every second-case cause is forced on purpose.

// cruciblePlan is one named fault schedule in the sweep.
type cruciblePlan struct {
	name string
	// arm populates the plan's specs; the seed is derived per trial.
	arm func(p *faultinject.Plan)
}

// crucibleWindow bounds every plan's faults: they arm shortly after startup
// and lift at crucibleFaultsLift, well before the workload finishes, so the
// tail of the traffic exercises the drain back to fast mode (the "faults
// lift" oracle).
const (
	crucibleFaultsStart = 1_000
	crucibleFaultsLift  = 25_000
)

// Timeline-oracle knobs. Sampling every crucibleSampleEvery cycles resolves
// the fault window (24k cycles wide) into a dozen intervals; the drain
// margin allows withheld frames to release (FrameStarvation holds them for
// 1<<16 cycles past injection) and the backlog to flush before the
// timeline must show overflow quiet again.
const (
	crucibleSampleEvery  = 2_000
	crucibleDrainMargin  = 200_000
	crucibleMaxResidency = 0.25 // post-drain buffered-mode interval fraction bound
)

// cruciblePlans is the sweep. Probabilities are per-opportunity (arrival,
// dispatch, launch); windows are cycles. The "none" plan validates the
// oracles on a fault-free run and pins the bit-identity property inside the
// sweep itself.
func cruciblePlans() []cruciblePlan {
	w := func(s faultinject.FaultSpec) faultinject.FaultSpec {
		s.From, s.Until, s.Node = crucibleFaultsStart, crucibleFaultsLift, faultinject.AllNodes
		return s
	}
	return []cruciblePlan{
		{"none", func(p *faultinject.Plan) {}},
		{"mismatch", func(p *faultinject.Plan) {
			p.Arm(faultinject.GIDMismatch, w(faultinject.FaultSpec{Prob: 0.6}))
		}},
		{"revoke", func(p *faultinject.Plan) {
			p.Arm(faultinject.AtomicityTimeout, w(faultinject.FaultSpec{Prob: 0.6}))
		}},
		{"handler-fault", func(p *faultinject.Plan) {
			p.Arm(faultinject.HandlerPageFault, w(faultinject.FaultSpec{Prob: 0.4}))
		}},
		{"expiry", func(p *faultinject.Plan) {
			p.Arm(faultinject.QuantumExpiry, w(faultinject.FaultSpec{Prob: 0.25, Cycles: 2_000}))
		}},
		{"starve", func(p *faultinject.Plan) {
			// Withholding far more frames than exist drains the pool to the
			// starvation reserve; the mismatch stream then forces inserts
			// whose overflow check trips with the pool nearly gone.
			p.Arm(faultinject.FrameStarvation, w(faultinject.FaultSpec{Cycles: 1 << 16}))
			p.Arm(faultinject.GIDMismatch, w(faultinject.FaultSpec{Prob: 0.8}))
		}},
		{"network", func(p *faultinject.Plan) {
			p.Arm(faultinject.LinkStall, w(faultinject.FaultSpec{Prob: 0.3, Cycles: 300}))
			p.Arm(faultinject.HotSpot, w(faultinject.FaultSpec{Prob: 0.3, Cycles: 300}))
			p.Arm(faultinject.DMAStall, w(faultinject.FaultSpec{Prob: 0.3, Cycles: 200}))
			// The clamp (2 words < the 4 a send needs) stalls every sender for
			// its whole window, so it gets a short sub-window — otherwise no
			// send happens inside [From, Until) and the stall faults starve.
			p.Arm(faultinject.TinyWindow, faultinject.FaultSpec{
				Cycles: 2, From: 5_000, Until: 12_000, Node: faultinject.AllNodes,
			})
			// Gang ticks land on quantum boundaries, far past the common
			// window; skew gets its own wide window to cover some. Skew never
			// enters buffered mode, so a late lift cannot break the drain.
			p.Arm(faultinject.GangSkew, faultinject.FaultSpec{
				Prob: 0.5, Cycles: 500, From: crucibleFaultsStart, Until: 600_000,
				Node: faultinject.AllNodes,
			})
		}},
		{"chaos", func(p *faultinject.Plan) {
			p.Arm(faultinject.GIDMismatch, w(faultinject.FaultSpec{Prob: 0.3}))
			p.Arm(faultinject.AtomicityTimeout, w(faultinject.FaultSpec{Prob: 0.3}))
			p.Arm(faultinject.HandlerPageFault, w(faultinject.FaultSpec{Prob: 0.2}))
			p.Arm(faultinject.QuantumExpiry, w(faultinject.FaultSpec{Prob: 0.15, Cycles: 1_500}))
			p.Arm(faultinject.FrameStarvation, w(faultinject.FaultSpec{Cycles: 1 << 16}))
			p.Arm(faultinject.LinkStall, w(faultinject.FaultSpec{Prob: 0.2, Cycles: 200}))
			p.Arm(faultinject.HotSpot, w(faultinject.FaultSpec{Prob: 0.2, Cycles: 200}))
			p.Arm(faultinject.DMAStall, w(faultinject.FaultSpec{Prob: 0.2, Cycles: 150}))
			p.Arm(faultinject.GangSkew, faultinject.FaultSpec{
				Prob: 0.3, Cycles: 400, From: crucibleFaultsStart, Until: 600_000,
				Node: faultinject.AllNodes,
			})
		}},
	}
}

// CrucibleCauses are the five second-case transition causes the sweep must
// force, keyed by the label CauseCoverage reports.
var CrucibleCauses = []string{
	"gid-mismatch", "atomicity-timeout", "handler-fault", "quantum-expiry", "buffer-overflow",
}

// CrucibleRow is one (plan, trial) run's outcome.
type CrucibleRow struct {
	Plan      string
	Trial     int
	Seed      uint64 // machine seed (the plan's PCG seed derives from it)
	Completed bool
	Cycles    uint64
	Fast      uint64 // fast-path deliveries
	Buffered  uint64 // buffered-path deliveries
	Injected  [faultinject.NumKinds]uint64
	// Problems lists delivery-oracle violations; empty on a healthy run.
	Problems []string
}

// Revocations and in-handler faults come from the metrics snapshot, kept on
// the row for cause coverage without re-deriving from raw snapshots.
type crucibleCounters struct {
	revocations     uint64
	faultsInHandler uint64
	overflowTrips   uint64
}

// CrucibleResult is the structured outcome of the crucible sweep.
type CrucibleResult struct {
	Rows []CrucibleRow
	// Policy names the delivery policy the sweep ran under; KernelBuffered
	// mirrors its Policy.KernelBuffered() and decides which causes the
	// sweep can force at all (see RequiredCauses).
	Policy         string
	KernelBuffered bool
	counters       []crucibleCounters
}

// Problems flattens every row's oracle violations, prefixed by the run.
func (r CrucibleResult) Problems() []string {
	var out []string
	for _, row := range r.Rows {
		for _, p := range row.Problems {
			out = append(out, fmt.Sprintf("%s trial=%d: %s", row.Plan, row.Trial, p))
		}
	}
	return out
}

// RequiredCauses lists the second-case causes this sweep must force under
// its delivery policy. A policy with no kernel-buffered mode (hardware
// demux into protected rings) structurally cannot revoke atomicity or trip
// software-buffer overflow control — those causes are absent by design, not
// missed by the sweep.
func (r CrucibleResult) RequiredCauses() []string {
	if r.KernelBuffered {
		return CrucibleCauses
	}
	out := make([]string, 0, len(CrucibleCauses))
	for _, c := range CrucibleCauses {
		if c == "atomicity-timeout" || c == "buffer-overflow" {
			continue
		}
		out = append(out, c)
	}
	return out
}

// CauseCoverage reports, for each of the five second-case causes, whether
// the sweep forced it at least once.
func (r CrucibleResult) CauseCoverage() map[string]bool {
	cov := map[string]bool{}
	for _, c := range CrucibleCauses {
		cov[c] = false
	}
	for i, row := range r.Rows {
		if row.Injected[faultinject.GIDMismatch] > 0 {
			cov["gid-mismatch"] = true
		}
		if row.Injected[faultinject.QuantumExpiry] > 0 {
			cov["quantum-expiry"] = true
		}
		if i < len(r.counters) {
			c := r.counters[i]
			if row.Injected[faultinject.AtomicityTimeout] > 0 && c.revocations > 0 {
				cov["atomicity-timeout"] = true
			}
			if row.Injected[faultinject.HandlerPageFault] > 0 && c.faultsInHandler > 0 {
				cov["handler-fault"] = true
			}
			if row.Injected[faultinject.FrameStarvation] > 0 && c.overflowTrips > 0 {
				cov["buffer-overflow"] = true
			}
		}
	}
	return cov
}

// Print renders the sweep table, the cause-coverage line and any oracle
// violations.
func (r CrucibleResult) Print(w io.Writer) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		status := "ok"
		if !row.Completed {
			status = "WEDGED"
		} else if len(row.Problems) > 0 {
			status = "ORACLE FAIL"
		}
		var inj uint64
		for _, c := range row.Injected {
			inj += c
		}
		rows = append(rows, []string{
			row.Plan, fmt.Sprint(row.Trial), status,
			u(row.Fast), u(row.Buffered), u(inj), u(row.Cycles),
		})
	}
	fmt.Fprintf(w, "Crucible: fault plans x seeds under delivery oracles (8 nodes, all-to-all, policy %s)\n", r.Policy)
	fmt.Fprintln(w, plot.Table([]string{"plan", "trial", "status", "fast", "buffered", "injected", "cycles"}, rows))
	cov := r.CauseCoverage()
	required := r.RequiredCauses()
	parts := make([]string, 0, len(required))
	for _, c := range required {
		mark := "MISSING"
		if cov[c] {
			mark = "forced"
		}
		parts = append(parts, c+"="+mark)
	}
	fmt.Fprintln(w, "cause coverage:", strings.Join(parts, " "))
	if problems := r.Problems(); len(problems) > 0 {
		fmt.Fprintf(w, "\n%d oracle violation(s):\n", len(problems))
		for _, p := range problems {
			fmt.Fprintln(w, " ", p)
		}
	} else {
		fmt.Fprintln(w, "all delivery oracles passed")
	}
}

// CSVFiles renders the sweep as crucible.csv.
func (r CrucibleResult) CSVFiles() map[string]string {
	var b strings.Builder
	b.WriteString("policy,plan,trial,seed,completed,cycles,fast,buffered")
	for k := faultinject.Kind(0); k < faultinject.NumKinds; k++ {
		b.WriteString(",inj_" + strings.ReplaceAll(k.String(), "-", "_"))
	}
	b.WriteString(",problems\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s,%s,%d,%d,%v,%d,%d,%d",
			r.Policy, row.Plan, row.Trial, row.Seed, row.Completed, row.Cycles, row.Fast, row.Buffered)
		for _, c := range row.Injected {
			fmt.Fprintf(&b, ",%d", c)
		}
		fmt.Fprintf(&b, ",%d\n", len(row.Problems))
	}
	return map[string]string{"crucible.csv": b.String()}
}

// cruciblePoint carries one row plus the machine's metrics snapshot and
// flight-recorder timeline.
type cruciblePoint struct {
	row      CrucibleRow
	counters crucibleCounters
	snap     metrics.Snapshot
	timeline telemetry.Timeline
}

// MetricsSnapshot implements MetricsCarrier for the Runner's metrics hook.
func (p cruciblePoint) MetricsSnapshot() metrics.Snapshot { return p.snap }

// TimelineData implements TimelineCarrier for the Runner's timeline hook.
func (p cruciblePoint) TimelineData() telemetry.Timeline { return p.timeline }

// Crucible runs the fault-plan sweep.
func Crucible(opts ...Option) (CrucibleResult, error) {
	return runAs[CrucibleResult]("crucible", opts...)
}

// crucibleExperiment fans out one point per (plan, trial).
func crucibleExperiment() *Experiment {
	return &Experiment{
		Name:        "crucible",
		Description: "fault-plan sweep with delivery oracles; forces every second-case cause",
		Points: func(opt Options) []Point {
			plans := cruciblePlans()
			pts := make([]Point, 0, len(plans)*opt.trials())
			for _, pl := range plans {
				for trial := 0; trial < opt.trials(); trial++ {
					pl, trial := pl, trial
					pts = append(pts, Point{
						Label: fmt.Sprintf("%s trial=%d", pl.name, trial),
						Run: func(_ context.Context, opt Options) (any, error) {
							return runCrucible(pl, trial, opt), nil
						},
					})
				}
			}
			return pts
		},
		Assemble: func(opt Options, results []any) (Result, error) {
			pol := opt.Policy
			if pol == nil {
				pol = delivery.TwoCase{}
			}
			res := CrucibleResult{
				Rows:           make([]CrucibleRow, len(results)),
				Policy:         pol.Name(),
				KernelBuffered: pol.KernelBuffered(),
				counters:       make([]crucibleCounters, len(results)),
			}
			for i, r := range results {
				p := r.(cruciblePoint)
				res.Rows[i] = p.row
				res.counters[i] = p.counters
			}
			return res, nil
		},
	}
}

// crucibleHandler is the workload's handler id.
const crucibleHandler = 7

// crucibleLoad shapes the workload's traffic pattern. The crucible default
// ({burst: 1}) is the smooth round-robin all-to-all the golden hashes pin;
// the buffer lab cranks burst up and turns converge on to reproduce the
// hot-spot offered load of the DAMQ literature: every node fires a
// back-to-back burst at the same rotating destination, so one NI's input
// queue sees the whole machine's burst at once while the rest sit idle.
type crucibleLoad struct {
	// burst is how many sends go back-to-back before each inter-send gap;
	// 1 restores the original smooth pacing.
	burst int
	// converge points every sender's burst at one shared destination that
	// rotates per burst round (senders skip themselves by aiming at their
	// clockwise neighbor), instead of per-sender round-robin.
	converge bool
}

// dst picks message i's destination for sender n under this load shape.
func (l crucibleLoad) dst(n, i, nodes int) int {
	if l.converge {
		d := (i / l.burst) % nodes
		if d == n {
			d = (d + 1) % nodes
		}
		return d
	}
	return (n + 1 + i%(nodes-1)) % nodes
}

// runCrucible executes one (plan, trial) run and checks the delivery
// oracles. The workload is a deterministic all-to-all: every node sends S
// tagged messages round-robin to the other nodes, interleaving data-page
// touches and polled atomic sections, and waits until it has received its
// own expected share. Completion therefore already implies no message was
// lost; the oracles sharpen that to exactly-once, fully-drained and
// span-reconciled.
func runCrucible(pl cruciblePlan, trial int, opt Options) cruciblePoint {
	return runCrucibleLoad(pl, trial, opt, crucibleLoad{burst: 1})
}

// runCrucibleLoad is runCrucible under an explicit load shape; with the
// default load the event stream is bit-identical to the original workload.
func runCrucibleLoad(pl cruciblePlan, trial int, opt Options, load crucibleLoad) cruciblePoint {
	sends := 400
	if opt.Quick {
		sends = 80
	}
	const preTouchPages = 4

	cfg := glaze.DefaultConfig()
	cfg.Seed = opt.TrialSeed(trial)
	// A small pool makes frame starvation able to reach the overflow
	// thresholds with a modest message backlog.
	cfg.FramesPerNode = 96
	var plan faultinject.Plan
	// The plan's private stream is seeded from the machine seed and plan
	// name so trials differ and plans never share a fault schedule.
	plan.Seed = cfg.Seed * 0x9e3779b97f4a7c15
	for _, ch := range pl.name {
		plan.Seed = plan.Seed*31 + uint64(ch)
	}
	pl.arm(&plan)
	if mut := opt.machineMut(nil); mut != nil {
		mut(&cfg)
	}
	if cfg.Faults == nil {
		cfg.Faults = &plan
	}
	// Every run gets spans and a watchdog even outside doctor mode: the
	// oracles need the recorder, and a wedged plan must stop with a report
	// rather than burn the whole cycle budget.
	ownRec := cfg.Spans == nil
	if ownRec {
		cfg.Spans = spans.NewRecorder(cfg.Trace)
	}
	if !cfg.Watchdog.Enabled() {
		cfg.Watchdog = glaze.WatchdogConfig{Interval: 100_000, Grace: 10}
	}
	// The timeline oracles need the flight recorder even outside -timeline
	// runs; a harness-provided recorder (Options.Telemetry) wins.
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRecorder(telemetry.Config{Every: crucibleSampleEvery})
	}
	rec := cfg.Spans

	m := glaze.NewMachine(cfg)
	defer m.Close()
	nodes := m.Net.Nodes()
	job := m.NewJob("crucible")

	// expected[d] is how many workload messages node d must receive.
	expected := make([]uint64, nodes)
	for src := 0; src < nodes; src++ {
		for i := 0; i < sends; i++ {
			expected[load.dst(src, i, nodes)]++
		}
	}
	// seen[src*sends+i] counts deliveries of message (src, i): the
	// exactly-once oracle demands every slot end at exactly 1.
	seen := make([]uint32, nodes*sends)
	recv := make([]*udm.Counter, nodes)
	eps := make([]*udm.EP, nodes)
	for n := 0; n < nodes; n++ {
		recv[n] = udm.NewCounter()
		eps[n] = udm.Attach(job.Process(n))
		c := recv[n]
		eps[n].On(crucibleHandler, func(e *udm.Env, msg *udm.Msg) {
			seen[msg.Args[0]*uint64(sends)+msg.Args[1]]++
			e.Spend(30)
			c.Add(1)
		})
	}
	for n := 0; n < nodes; n++ {
		n := n
		job.Process(n).StartMain(func(tk *cpu.Task) {
			e := eps[n].Env(tk)
			for pg := 0; pg < preTouchPages; pg++ {
				e.Touch(uint64(pg) * vm.PageWords)
			}
			for i := 0; i < sends; i++ {
				dst := load.dst(n, i, nodes)
				e.Inject(dst, crucibleHandler, uint64(n), uint64(i))
				if i%8 == 3 {
					e.Touch(uint64(i%preTouchPages) * vm.PageWords)
				}
				if i%16 == 9 {
					e.BeginAtomic()
					e.Poll()
					e.EndAtomic()
				}
				if (i+1)%load.burst == 0 {
					e.Spend(uint64(120 + (i*7+n*13)%240))
				}
			}
			recv[n].WaitFor(tk, expected[n])
		})
	}
	m.NewGang(opt.QuantumFor(), 0.01, job).Start()
	m.RunUntilDone(200_000_000, job)
	if job.Done() {
		// Settle window: the last dispose may leave trailing traffic (an
		// overflow release broadcast) in flight.
		m.Eng.RunUntil(m.Eng.Now() + 30_000)
	}

	tl := m.FinishTelemetry()
	snap := m.MetricsSnapshot()
	row := CrucibleRow{
		Plan:      pl.name,
		Trial:     trial,
		Seed:      cfg.Seed,
		Completed: job.Done(),
		Cycles:    m.Eng.Now(),
		Fast:      snap.Counters["glaze.deliver.fast"],
		Buffered:  snap.Counters["glaze.deliver.buffered"],
		Injected:  m.Faults.Counts(),
	}
	row.Problems = crucibleOracles(m, job, rec, ownRec, snap, seen, sends)
	row.Problems = append(row.Problems, crucibleTimelineOracles(tl)...)
	return cruciblePoint{
		row: row,
		counters: crucibleCounters{
			revocations:     snap.Counters["glaze.revocations"],
			faultsInHandler: snap.Counters["glaze.faults_in_handler"],
			overflowTrips:   snap.Counters["glaze.overflow.trips"],
		},
		snap:     snap,
		timeline: tl,
	}
}

// crucibleOracles checks the delivery invariants after one run:
//
//  1. the watchdog stayed quiet and the job completed;
//  2. exactly-once: every tagged message was handled exactly once;
//  3. faults lifted: every process drained back to fast mode — nothing
//     buffered, throttled, or left in an input queue;
//  4. span reconciliation: all spans terminal, fast/buffered tallies match
//     the glaze delivery counters (own-recorder runs only: a shared doctor
//     recorder spans several machines and reconciles elsewhere);
//  5. per-node conservation: arrivals = user disposes + kernel disposes +
//     hardware demuxes (the last is zero unless the delivery policy demuxes
//     in hardware), kernel disposes = inserts + kernel messages, and no
//     strays.
func crucibleOracles(m *glaze.Machine, job *glaze.Job, rec *spans.Recorder, ownRec bool, snap metrics.Snapshot, seen []uint32, sends int) []string {
	var problems []string
	if rep := rec.Report(); rep != nil {
		problems = append(problems, "watchdog fired: "+rep.Reason)
	}
	if !job.Done() {
		problems = append(problems, "job did not complete within the cycle budget")
	}

	miss, dup := 0, 0
	for _, c := range seen {
		switch {
		case c == 0:
			miss++
		case c > 1:
			dup++
		}
	}
	if miss > 0 || dup > 0 {
		problems = append(problems, fmt.Sprintf(
			"exactly-once violated: %d message(s) lost, %d duplicated of %d", miss, dup, len(seen)))
	}

	for n, p := range job.Procs() {
		if p.Buffered() {
			problems = append(problems, fmt.Sprintf("node %d still in buffered mode after faults lifted", n))
		}
		if pend := p.BufferPending(); pend > 0 {
			problems = append(problems, fmt.Sprintf("node %d has %d message(s) stuck in its software buffer", n, pend))
		}
		if p.Throttled() {
			problems = append(problems, fmt.Sprintf("node %d still throttled by overflow control", n))
		}
		if q := p.NI().QueueLen(); q > 0 {
			problems = append(problems, fmt.Sprintf("node %d has %d message(s) stuck in the NI input queue", n, q))
		}
	}

	if ownRec {
		problems = append(problems, rec.Check(
			snap.Counters["glaze.deliver.fast"], snap.Counters["glaze.deliver.buffered"])...)
	}

	for _, node := range m.Nodes {
		ns := node.Metrics.Snapshot()
		arrived := ns.Counters["nic.arrived"]
		disposed := ns.Counters["nic.disposed"]
		kdisposed := ns.Counters["nic.kdisposed"]
		demuxed := ns.Counters["nic.demuxed"]
		inserts := ns.Counters["glaze.buffer.inserts"]
		kernelMsgs := ns.Counters["glaze.kernel_msgs"]
		stray := ns.Counters["glaze.stray_messages"]
		if arrived != disposed+kdisposed+demuxed {
			problems = append(problems, fmt.Sprintf(
				"node %d conservation: arrived %d != disposed %d + kdisposed %d + demuxed %d",
				node.Index, arrived, disposed, kdisposed, demuxed))
		}
		if kdisposed != inserts+kernelMsgs+stray {
			problems = append(problems, fmt.Sprintf(
				"node %d conservation: kdisposed %d != inserts %d + kernel %d + stray %d",
				node.Index, kdisposed, inserts, kernelMsgs, stray))
		}
		if stray > 0 {
			problems = append(problems, fmt.Sprintf("node %d dropped %d stray message(s)", node.Index, stray))
		}
	}
	return problems
}

// crucibleTimelineOracles checks the time-resolved invariants the
// end-of-run oracles cannot see:
//
//  6. overflow quiesces: once the fault window has lifted and the drain
//     margin passed, no interval may record an overflow-control trip —
//     overflow here is purely fault-driven, so a late trip means the
//     machinery did not recover;
//  7. bounded buffered residency: past the same horizon, at most
//     crucibleMaxResidency of the intervals may show any node in buffered
//     mode. Gang skew legitimately buffers a message at a quantum edge now
//     and then (which the mode glyphs surface), but sustained residency
//     after the faults are gone means the drain back to the fast case is
//     broken even when the final state looks clean.
func crucibleTimelineOracles(tl telemetry.Timeline) []string {
	var problems []string
	horizon := uint64(crucibleFaultsLift + crucibleDrainMargin)
	post, buffered := 0, 0
	for _, iv := range tl.Intervals {
		if iv.Cycle <= horizon {
			continue
		}
		post++
		if d := iv.Counters["glaze.overflow.trips"]; d != 0 {
			problems = append(problems, fmt.Sprintf(
				"overflow tripped %d time(s) in the interval ending t=%d, %d cycles after faults lifted",
				d, iv.Cycle, iv.Cycle-crucibleFaultsLift))
		}
		if strings.ContainsAny(iv.Modes, "bB") {
			buffered++
		}
	}
	if post > 0 {
		if frac := float64(buffered) / float64(post); frac > crucibleMaxResidency {
			problems = append(problems, fmt.Sprintf(
				"buffered-mode residency %.0f%% of %d post-drain intervals exceeds the %.0f%% bound",
				frac*100, post, crucibleMaxResidency*100))
		}
	}
	return problems
}
