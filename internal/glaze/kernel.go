package glaze

import (
	"fmt"

	"fugu/internal/cpu"
	"fugu/internal/mesh"
	"fugu/internal/metrics"
	"fugu/internal/nic"
	"fugu/internal/sim"
	"fugu/internal/spans"
	"fugu/internal/trace"
	"fugu/internal/vm"
)

// nullGID is installed in the NI while no process is resident, so every
// arriving user message mismatches and is buffered for its real owner.
const nullGID nic.GID = 0xfffe

// OS-network control operations (word 1 of kernel packets on the second
// logical network).
const (
	osOpSuspendJob uint64 = iota + 1
	osOpResumeJob
)

// Kernel is one node's Glaze instance: interrupt handlers, the two-case
// delivery transitions, virtual buffer management and the context-switch
// machinery the gang scheduler drives.
type Kernel struct {
	m      *Machine
	node   int
	cpu    *cpu.CPU
	ni     *nic.NI
	frames *vm.Frames
	cost   CostModel

	// Delivery-policy traits, resolved once from the machine's policy:
	// kernelBuffered enables the divert machinery (mismatch inserts, mode
	// flips, overflow drain-back); hwDemux installs the kernel as the NI's
	// receive offload engine (kernel-bypass rings).
	kernelBuffered bool
	hwDemux        bool

	procs map[nic.GID]*Process
	// current is the resident process (nil while the null slot runs).
	current *Process

	mismatchIRQ *cpu.IRQ
	timeoutIRQ  *cpu.IRQ
	gangIRQ     *cpu.IRQ
	osIRQ       *cpu.IRQ

	switchTarget *Process // argument for the next gangIRQ service
	switchValid  bool

	osQueue []*mesh.Packet

	// starvedFrames counts frames currently withheld from the pool by a
	// fault-plan FrameStarvation window.
	starvedFrames int

	// Statistics.
	Inserts        uint64 // buffer insertions performed
	InsertVMAllocs uint64
	StrayMessages  uint64 // messages for unknown GIDs (dropped)
	KernelMsgs     uint64
	OverflowTrips  uint64

	// Metrics instruments, bound to the node's registry at construction.
	reg               *metrics.Registry
	mInserts          *metrics.Counter
	mInsertVMAllocs   *metrics.Counter
	mStray            *metrics.Counter
	mKernelMsgs       *metrics.Counter
	mRevocations      *metrics.Counter
	mFaultsInHandler  *metrics.Counter
	mCtxSwitches      *metrics.Counter
	mOverflowTrips    *metrics.Counter
	mOverflowReleases *metrics.Counter
	mEnterInsert      *metrics.Counter
	mEnterRevoke      *metrics.Counter
	mEnterFault       *metrics.Counter
	mExitBuffered     *metrics.Counter
	mFramesInUse      *metrics.Gauge
	mResidency        *metrics.Histogram
}

func newKernel(m *Machine, node int) *Kernel {
	k := &Kernel{
		m:              m,
		node:           node,
		cpu:            m.Nodes[node].CPU,
		ni:             m.Nodes[node].NI,
		frames:         m.Nodes[node].Frames,
		cost:           m.cost,
		kernelBuffered: m.policy.KernelBuffered(),
		hwDemux:        m.policy.HardwareDemux(),
		procs:          make(map[nic.GID]*Process),
	}
	k.bindMetrics(m.Nodes[node].Metrics)
	k.ni.SetGID(nullGID)
	k.mismatchIRQ = k.cpu.NewIRQ(fmt.Sprintf("mismatch%d", node), k.mismatchISR)
	k.timeoutIRQ = k.cpu.NewIRQ(fmt.Sprintf("timeout%d", node), k.timeoutISR)
	k.gangIRQ = k.cpu.NewIRQ(fmt.Sprintf("gang%d", node), k.gangISR)
	k.osIRQ = k.cpu.NewIRQ(fmt.Sprintf("osnet%d", node), k.osISR)
	k.ni.SetInterrupts(nic.Interrupts{
		MessageAvailable: func() {
			// The user-level interrupt: dispatch the resident process's
			// message-handling activity. Costs are charged there.
			if k.current != nil {
				k.current.SignalUpcall()
			}
		},
		MismatchAvailable: func() { k.mismatchIRQ.Raise() },
		AtomicityTimeout:  func() { k.timeoutIRQ.Raise() },
	})
	m.Net.Register(node, mesh.OS, (*osEndpoint)(k))
	if k.hwDemux {
		k.ni.SetOffload(k)
	}
	return k
}

// AdmitUser implements nic.Offload: the NI's admission check for arriving
// user packets under a hardware-demultiplexing policy. Packets for unknown
// GIDs are admitted — the mismatch path counts and drops them (a protection
// event, not backpressure).
func (k *Kernel) AdmitUser(pkt *mesh.Packet) bool {
	p := k.procs[nic.HeaderGID(pkt.Words[0])]
	if p == nil {
		return true
	}
	return p.store.Admit(len(pkt.Words))
}

// DemuxHead implements nic.Offload: the NI deposits the head user packet
// directly into its owner's ring, spending no processor cycles. Stray GIDs
// are refused and left for the mismatch interrupt.
func (k *Kernel) DemuxHead(pkt *mesh.Packet) bool {
	p := k.procs[nic.HeaderGID(pkt.Words[0])]
	if p == nil {
		return false
	}
	p.store.Push(pkt.ID, pkt.Words, pkt.SentAt, k.m.Eng.Now())
	p.mBufPages.Set(int64(p.store.PagesResident()))
	if p.scheduled && !p.atomicVirtual {
		p.SignalUpcall()
	}
	return true
}

// bindMetrics creates the kernel's named instruments in the node registry.
// The names form the "glaze." namespace: buffer-insert activity, two-case
// transition causes, overflow control and frame-pool pressure.
func (k *Kernel) bindMetrics(r *metrics.Registry) {
	k.reg = r
	k.mInserts = r.Counter("glaze.buffer.inserts")
	k.mInsertVMAllocs = r.Counter("glaze.buffer.insert_vmallocs")
	k.mStray = r.Counter("glaze.stray_messages")
	k.mKernelMsgs = r.Counter("glaze.kernel_msgs")
	k.mRevocations = r.Counter("glaze.revocations")
	k.mFaultsInHandler = r.Counter("glaze.faults_in_handler")
	k.mCtxSwitches = r.Counter("glaze.context_switches")
	k.mOverflowTrips = r.Counter("glaze.overflow.trips")
	k.mOverflowReleases = r.Counter("glaze.overflow.releases")
	k.mEnterInsert = r.Counter("glaze.mode.enter_buffered.insert")
	k.mEnterRevoke = r.Counter("glaze.mode.enter_buffered.revoke")
	k.mEnterFault = r.Counter("glaze.mode.enter_buffered.fault")
	k.mExitBuffered = r.Counter("glaze.mode.exit_buffered")
	k.mFramesInUse = r.Gauge("glaze.frames.in_use")
	k.mResidency = r.Histogram("glaze.buffer.residency")
}

// Node returns the node this kernel manages.
func (k *Kernel) Node() int { return k.node }

// Current returns the resident process, nil during a null slot.
func (k *Kernel) Current() *Process { return k.current }

// Cost returns the kernel's cost model.
func (k *Kernel) Cost() CostModel { return k.cost }

// Machine returns the machine this kernel belongs to.
func (k *Kernel) Machine() *Machine { return k.m }

// MismatchConsumed reports total cycles spent in the buffer-insertion
// (mismatch-available) handler — Table 5's insert-cost numerator.
func (k *Kernel) MismatchConsumed() uint64 { return k.mismatchIRQ.Task().Consumed() }

// CPU returns the node's processor.
func (k *Kernel) CPU() *cpu.CPU { return k.cpu }

// ---------------------------------------------------------------------------
// Interrupt service routines

// mismatchISR implements the kernel's demultiplexer: every head message that
// is not the resident user's business — mismatched GID, kernel message, or
// anything under divert-mode — is moved into its owner's virtual buffer.
func (k *Kernel) mismatchISR(t *cpu.Task) {
	for {
		pkt := k.ni.HeadPacket()
		if pkt == nil {
			return
		}
		h := pkt.Words[0]
		if !k.ni.Divert() && !nic.HeaderIsKernel(h) && nic.HeaderGID(h) == k.ni.GID() && !pkt.FaultMismatch {
			// The head now belongs to the resident user: theirs to take.
			return
		}
		if nic.HeaderIsKernel(h) {
			k.KernelMsgs++
			k.mKernelMsgs.Inc()
			t.Spend(k.cost.BufferInsertMin) // treat as a short kernel handler
			k.m.Spans.End(k.m.Eng.Now(), pkt.ID, k.node, spans.TermKernel)
			k.ni.KDispose()
			k.m.Net.Release(k.node, pkt)
			continue
		}
		p := k.procs[nic.HeaderGID(h)]
		if p == nil {
			// A message for no process on this node: a protection event.
			// FUGU notifies the global scheduler about the offender; we
			// count and drop.
			k.StrayMessages++
			k.mStray.Inc()
			t.Spend(k.cost.BufferInsertMin)
			k.m.Spans.End(k.m.Eng.Now(), pkt.ID, k.node, spans.TermStray)
			k.ni.KDispose()
			k.m.Net.Release(k.node, pkt)
			continue
		}
		k.bufferInsert(t, p, pkt)
		k.ni.KDispose()
		k.m.Net.Release(k.node, pkt)
	}
}

// bufferInsert diverts one message into p's second-case store, charging the
// policy's insert cost, and performs the overflow-control checks.
func (k *Kernel) bufferInsert(t *cpu.Task, p *Process, pkt *mesh.Packet) {
	if !k.kernelBuffered {
		panic("glaze: buffer insert under a policy without kernel buffering")
	}
	k.applyFrameStarvation()
	if k.m.Spans != nil {
		cause := "gid-mismatch"
		if k.ni.Divert() {
			cause = "divert"
		} else if pkt.FaultMismatch {
			cause = "gid-mismatch(injected)"
		}
		k.m.Spans.Insert(k.m.Eng.Now(), pkt.ID, k.node, cause)
	}
	res := p.store.Push(pkt.ID, pkt.Words, pkt.SentAt, k.m.Eng.Now())
	t.Spend(p.store.InsertCost(res))
	k.Inserts++
	k.mInserts.Inc()
	if res.NewPages > 0 || res.Fallback {
		// A demand allocation on the virtual-buffer path, or a copy taken by
		// the zero-copy policy with no frame to pin: either way the insert
		// escaped its cheap case.
		k.InsertVMAllocs++
		k.mInsertVMAllocs.Inc()
	}
	k.mFramesInUse.Set(int64(k.frames.InUse()))
	p.mBufPages.Set(int64(p.store.PagesResident()))
	p.CountDelivery(false)
	if !p.buffered {
		p.buffered = true
		k.mEnterInsert.Inc()
		if k.m.Trace.Enabled(trace.Mode) {
			k.m.Trace.Add(k.m.Eng.Now(), k.node, trace.Mode, "enter buffered %s (insert)", p.job.name)
		}
		if p.scheduled {
			k.ni.SetDivert(true)
		}
	}
	if p.scheduled && !p.atomicVirtual {
		p.SignalUpcall()
	}
	k.checkOverflow(t, p)
}

// timeoutISR implements revocation: the user held the network too long, so
// physical atomicity becomes virtual atomicity and delivery shifts to the
// buffered path.
func (k *Kernel) timeoutISR(t *cpu.Task) {
	if !k.kernelBuffered {
		// No buffered mode to revoke into: a bypass ring rides out the long
		// atomic section on its own capacity (and NACKs past it).
		return
	}
	p := k.current
	if p == nil || p.buffered {
		return // stale timeout (mode already shifted)
	}
	t.Spend(k.cost.RevokeCost)
	if k.m.Trace.Enabled(trace.Mode) {
		k.m.Trace.Add(k.m.Eng.Now(), k.node, trace.Mode, "revoke %s (uac=%#x)", p.job.name, k.ni.UAC())
	}
	p.Revocations++
	k.mRevocations.Inc()
	k.mEnterRevoke.Inc()
	p.buffered = true
	// If the user was inside an atomic section (it was, or the timer would
	// not have run), buffered delivery is deferred until the section ends;
	// the endatom traps so the kernel notices.
	p.atomicVirtual = k.ni.UAC()&(nic.UACInterruptDisable|nic.UACTimerForce) != 0
	if p.atomicVirtual {
		k.ni.SetUACKernel(nic.UACAtomicityExtend, true)
	}
	k.ni.SetDivert(true)
	// The stuck head re-evaluates as a mismatch and the drain begins.
}

// gangISR performs the context switch the gang scheduler requested.
func (k *Kernel) gangISR(t *cpu.Task) {
	if !k.switchValid {
		return
	}
	target := k.switchTarget
	k.switchTarget = nil
	k.switchValid = false
	k.contextSwitchTo(t, target)
}

// contextSwitchTo makes p (nil for the null slot) the resident process.
func (k *Kernel) contextSwitchTo(t *cpu.Task, p *Process) {
	if k.current == p {
		return
	}
	if k.m.Trace.Enabled(trace.Sched) {
		name := "null"
		if p != nil {
			name = p.job.name
		}
		k.m.Trace.Add(k.m.Eng.Now(), k.node, trace.Sched, "switch to %s", name)
	}
	t.Spend(k.cost.ContextSwitch)
	k.mCtxSwitches.Inc()
	if old := k.current; old != nil {
		old.uacShadow = k.ni.UAC()
		old.descShadow = k.ni.ClearDescriptor(old.descShadow[:0])
		old.scheduled = false
		old.suspendTasks()
	}
	k.current = p
	if p == nil {
		k.ni.ClearUAC()
		k.ni.SetGID(nullGID)
		k.ni.SetDivert(false)
		return
	}
	p.scheduled = true
	k.ni.SetGID(p.gid)
	k.ni.RestoreUAC(p.uacShadow)
	if len(p.descShadow) > 0 {
		k.ni.Describe(p.descShadow...)
		p.descShadow = p.descShadow[:0]
	}
	// Transparency at quantum start: a process with buffered messages
	// resumes in buffered mode and drains before touching the NI. A bypass
	// ring likewise resumes with whatever the NI demuxed while it was out.
	k.ni.SetDivert(p.buffered)
	p.resumeTasks()
	if (p.buffered || k.hwDemux) && !p.store.Empty() && !p.atomicVirtual {
		p.SignalUpcall()
	}
}

// ---------------------------------------------------------------------------
// Trap handling (entered synchronously from udm, in the user task's context)

// UserDispose performs the user dispose operation with full trap semantics.
// In the fast case the NI frees the message; under divert the kernel
// emulates disposal from the software buffer (the dispose-extend path).
// It reports whether the disposal was genuinely fast: false means the
// message came out of the policy store, i.e. it was already tallied as a
// buffered delivery at insert time. The distinction matters when the mode
// flips mid-read — a message read from the NI head can be diverted into the
// store by a context switch before its dispose lands, and only the dispose
// outcome says which path it ultimately took.
func (k *Kernel) UserDispose(t *cpu.Task, p *Process) bool {
	if k.hwDemux {
		k.bypassDispose(t, p)
		return true
	}
	switch trap := k.ni.Dispose(); trap {
	case nic.TrapNone:
		return true
	case nic.TrapDisposeExtend:
		k.disposeExtend(t, p)
		return false
	case nic.TrapBadDispose:
		panic(fmt.Sprintf("glaze: %s disposed with no message available", p.job.name))
	default:
		panic(fmt.Sprintf("glaze: unexpected dispose trap %v", trap))
	}
}

// bypassDispose frees the head message of a hardware-demultiplexed ring:
// the user-visible dispose under a kernel-bypass policy. It counts as a
// fast-path disposal (the kernel never touched the message), clears
// dispose-pending as the hardware dispose would, and re-offers network
// backpressure now that a ring slot is free.
func (k *Kernel) bypassDispose(t *cpu.Task, p *Process) {
	if p.store.Empty() {
		panic(fmt.Sprintf("glaze: %s disposed with empty bypass ring", p.job.name))
	}
	k.ni.SetUACKernel(nic.UACDisposePending, false)
	meta, cost := p.store.Pop()
	if cost > 0 {
		t.Spend(cost)
	}
	k.m.Spans.End(k.m.Eng.Now(), meta.ID, k.node, spans.TermFast)
	k.mResidency.Observe(k.m.Eng.Now() - meta.InsertedAt)
	p.mBufPages.Set(int64(p.store.PagesResident()))
	k.ni.NotifyInputSpace()
}

// disposeExtend emulates disposal from the software buffer, including the
// side effect of the hardware dispose: dispose-pending clears, so a handler
// that freed its message through the emulation can exit its atomic section.
func (k *Kernel) disposeExtend(t *cpu.Task, p *Process) {
	k.applyFrameStarvation()
	k.ni.SetUACKernel(nic.UACDisposePending, false)
	meta, popCost := p.store.Pop()
	if popCost > 0 {
		// Zero-copy consume: unmapping the flipped page costs a shootdown.
		t.Spend(popCost)
	}
	k.m.Spans.End(k.m.Eng.Now(), meta.ID, k.node, spans.TermBuffered)
	k.mResidency.Observe(k.m.Eng.Now() - meta.InsertedAt)
	k.mFramesInUse.Set(int64(k.frames.InUse()))
	p.mBufPages.Set(int64(p.store.PagesResident()))
	if p.store.Empty() {
		k.exitBuffered(t, p)
	}
	k.maybeLiftOverflow(p)
}

// UserEndAtom performs endatom with trap handling: atomicity-extend returns
// control here so virtual atomicity can be dissolved; dispose-failure means
// the handler broke the discipline and is fatal, as in FUGU.
func (k *Kernel) UserEndAtom(t *cpu.Task, p *Process, mask uint8) {
	switch trap := k.ni.EndAtom(mask, false); trap {
	case nic.TrapNone:
		// Leaving an atomic section in buffered mode (or with a demuxed
		// backlog) releases deferred messages to the message-handling
		// activity.
		if (p.buffered || k.hwDemux) && !p.store.Empty() {
			p.SignalUpcall()
		}
		return
	case nic.TrapAtomicityExtend:
		k.atomicityExtend(t, p, mask)
	case nic.TrapDisposeFailure:
		panic(fmt.Sprintf("glaze: %s handler exited atomic section without disposing", p.job.name))
	default:
		panic(fmt.Sprintf("glaze: unexpected endatom trap %v", trap))
	}
}

// atomicityExtend ends a virtually-atomic section: the suspended or polling
// thread has released atomicity, so deferred buffered messages may now be
// delivered by the message-handling activity.
func (k *Kernel) atomicityExtend(t *cpu.Task, p *Process, mask uint8) {
	p.atomicVirtual = false
	k.ni.SetUACKernel(nic.UACAtomicityExtend, false)
	if trap := k.ni.EndAtom(mask, false); trap != nic.TrapNone {
		panic(fmt.Sprintf("glaze: endatom retry trapped %v", trap))
	}
	if p.buffered && !p.store.Empty() {
		p.SignalUpcall()
	}
}

// exitBuffered returns a drained process to direct delivery. Under the
// one-case ablation there is no direct delivery to return to.
func (k *Kernel) exitBuffered(t *cpu.Task, p *Process) {
	if k.m.alwaysBuffered {
		return
	}
	if k.m.Trace.Enabled(trace.Mode) {
		k.m.Trace.Add(k.m.Eng.Now(), k.node, trace.Mode, "exit buffered %s", p.job.name)
	}
	k.mExitBuffered.Inc()
	p.buffered = false
	p.atomicVirtual = false
	if p.scheduled {
		k.ni.SetUACKernel(nic.UACAtomicityExtend, false)
		k.ni.SetDivert(false)
		// Messages still queued in the NI re-evaluate: if the head is the
		// user's it raises message-available and the fast path resumes.
	}
}

// Touch services a user access to addr in p's data space, modelling demand
// zero-fill faults. inHandler marks accesses from a message handler: a
// fault there forces the transition to buffered mode (Section 4.3), since
// the handler blocks the network while the kernel services it.
func (k *Kernel) Touch(t *cpu.Task, p *Process, addr uint64, inHandler bool) {
	k.applyFrameStarvation()
	faulted, ok := p.Space.Ensure(addr)
	if !faulted {
		return
	}
	if !ok {
		panic("glaze: data page fault with exhausted frame pool (overflow control failed)")
	}
	t.Spend(k.cost.FaultService)
	k.mFramesInUse.Set(int64(k.frames.InUse()))
	if inHandler {
		p.FaultsInHandler++
		k.mFaultsInHandler.Inc()
		if k.kernelBuffered && !p.buffered {
			p.buffered = true
			k.mEnterFault.Inc()
			p.atomicVirtual = true // the faulting handler holds atomicity
			k.ni.SetUACKernel(nic.UACAtomicityExtend, true)
			k.ni.SetDivert(true)
		}
	}
}

// ---------------------------------------------------------------------------
// Fault-injection entry points (driven by the machine's faultinject plan)

// SyntheticHandlerFault models a page fault taken inside a message handler
// without touching any page: the kernel charges fault service and shifts the
// process to buffered mode exactly as a real in-handler fault would
// (Section 4.3).
func (k *Kernel) SyntheticHandlerFault(t *cpu.Task, p *Process) {
	t.Spend(k.cost.FaultService)
	p.FaultsInHandler++
	k.mFaultsInHandler.Inc()
	if k.kernelBuffered && !p.buffered {
		p.buffered = true
		k.mEnterFault.Inc()
		if k.m.Trace.Enabled(trace.Mode) {
			k.m.Trace.Add(k.m.Eng.Now(), k.node, trace.Mode, "enter buffered %s (injected fault)", p.job.name)
		}
		p.atomicVirtual = true // the faulting handler holds atomicity
		k.ni.SetUACKernel(nic.UACAtomicityExtend, true)
		k.ni.SetDivert(true)
	}
}

// ForceQuantumExpiry models a quantum boundary landing mid-handler: p is
// preempted into the null slot now (messages arriving meanwhile mismatch
// against the null GID and buffer) and switched back in resumeAfter cycles
// later, unless a real gang tick got there first — the next real tick is the
// liveness backstop either way.
func (k *Kernel) ForceQuantumExpiry(p *Process, resumeAfter uint64) {
	if p == nil || k.current != p {
		return
	}
	if k.m.Trace.Enabled(trace.Sched) {
		k.m.Trace.Add(k.m.Eng.Now(), k.node, trace.Sched, "forced quantum expiry %s", p.job.name)
	}
	k.switchTarget = nil
	k.switchValid = true
	k.gangIRQ.Raise()
	k.m.Eng.ScheduleSite(siteFaultExpiry, resumeAfter, func() {
		if k.current != nil || k.m.Eng.Stopped() {
			return // a real tick already scheduled someone
		}
		k.switchTarget = p
		k.switchValid = true
		k.gangIRQ.Raise()
	})
}

// siteFaultExpiry labels injected quantum-expiry resumes for the profiler.
var siteFaultExpiry = sim.NewSite("glaze.fault.expiry")

// starvationReserve is the free-frame floor applyFrameStarvation never takes
// below: data-page faults must still find a frame, or the exhausted-pool
// panic in Touch would fire on an injected condition rather than a real
// overflow-control failure.
const starvationReserve = 8

// applyFrameStarvation reconciles the pool with the fault plan's withheld
// target for this node. Called on the buffer-management paths, so the pool
// shrinks while a starvation window is open and refills after it closes.
func (k *Kernel) applyFrameStarvation() {
	if k.m.Faults == nil {
		return
	}
	want := k.m.Faults.WithheldFrames(k.node)
	if want == k.starvedFrames {
		return
	}
	if want > k.starvedFrames {
		take := want - k.starvedFrames
		if room := k.frames.Free() - starvationReserve; take > room {
			take = room
		}
		if take > 0 {
			k.starvedFrames += k.frames.Withhold(take)
		}
	} else {
		k.frames.Unwithhold(k.starvedFrames - want)
		k.starvedFrames = want
	}
	k.mFramesInUse.Set(int64(k.frames.InUse()))
}

// ---------------------------------------------------------------------------
// Overflow control

// overflow thresholds as fractions of the node's frame pool.
const (
	overflowHighFrac = 0.85 // trip when in-use frames exceed this
	overflowLowFrac  = 0.50 // recover below this
)

// checkOverflow trips the overflow-control mechanism: the offending job is
// globally suspended (senders stall) via the OS network and the scheduler is
// advised to gang-schedule it so it drains.
func (k *Kernel) checkOverflow(t *cpu.Task, p *Process) {
	if p.job.overflowed {
		return
	}
	if float64(k.frames.InUse()) < overflowHighFrac*float64(k.frames.Total()) {
		return
	}
	k.OverflowTrips++
	k.mOverflowTrips.Inc()
	if k.m.Trace.Enabled(trace.Overflow) {
		k.m.Trace.Add(k.m.Eng.Now(), k.node, trace.Overflow, "trip %s: %d/%d frames",
			p.job.name, k.frames.InUse(), k.frames.Total())
	}
	p.job.overflowed = true
	p.job.overflowSeq++
	k.broadcastOS(osOpSuspendJob, uint64(p.gid)|p.job.overflowSeq<<16)
	if k.m.Gang != nil {
		k.m.Gang.Prefer(p.job)
	}
}

// maybeLiftOverflow reverses overflow control once pressure subsides.
func (k *Kernel) maybeLiftOverflow(p *Process) {
	if !p.job.overflowed {
		return
	}
	if float64(k.frames.InUse()) > overflowLowFrac*float64(k.frames.Total()) && !p.store.Empty() {
		return
	}
	p.job.overflowed = false
	p.job.overflowSeq++
	k.mOverflowReleases.Inc()
	if k.m.Trace.Enabled(trace.Overflow) {
		k.m.Trace.Add(k.m.Eng.Now(), k.node, trace.Overflow, "release %s", p.job.name)
	}
	k.broadcastOS(osOpResumeJob, uint64(p.gid)|p.job.overflowSeq<<16)
	if k.m.Gang != nil {
		k.m.Gang.Unprefer(p.job)
	}
}

// broadcastOS sends a control operation to every node (including this one)
// on the reserved OS network — the guaranteed, deadlock-free path.
func (k *Kernel) broadcastOS(op, arg uint64) {
	for n := 0; n < k.m.Net.Nodes(); n++ {
		pkt := k.m.Net.Acquire(k.node, 3)
		pkt.Words[0], pkt.Words[1], pkt.Words[2] = nic.MakeKernelHeader(n), op, arg
		k.m.Net.SendPacket(mesh.OS, k.node, n, pkt)
	}
}

// osEndpoint adapts Kernel to mesh.Endpoint for the OS network without
// colliding with the NI's main-network endpoint.
type osEndpoint Kernel

// Arrive queues an OS-network packet; the kernel's OS ISR services it.
func (oe *osEndpoint) Arrive(pkt *mesh.Packet) bool {
	k := (*Kernel)(oe)
	k.m.Spans.Queued(k.m.Eng.Now(), pkt.ID, k.node)
	k.osQueue = append(k.osQueue, pkt)
	k.osIRQ.Raise()
	return true
}

// osISR handles one queued OS-network control message.
func (k *Kernel) osISR(t *cpu.Task) {
	if len(k.osQueue) == 0 {
		return
	}
	pkt := k.osQueue[0]
	copy(k.osQueue, k.osQueue[1:])
	k.osQueue = k.osQueue[:len(k.osQueue)-1]
	t.Spend(k.cost.BufferInsertMin) // nominal handler cost
	k.m.Spans.End(k.m.Eng.Now(), pkt.ID, k.node, spans.TermKernel)
	op, arg := pkt.Words[1], pkt.Words[2]
	k.m.Net.Release(k.node, pkt)
	p := k.procs[nic.GID(arg)]
	if p == nil {
		return
	}
	switch op {
	case osOpSuspendJob, osOpResumeJob:
		// Suspends and resumes race: different nodes trip and lift overflow
		// control independently, and the OS mesh only orders packets from
		// the same sender. The low 16 bits of arg carry the GID; the rest
		// is the job-wide broadcast sequence, and a stale op — one issued
		// before an op already applied here — is discarded, or a late
		// suspend would out-live the final resume and throttle the process
		// forever.
		seq := arg >> 16
		if seq <= p.overflowSeen {
			return
		}
		p.overflowSeen = seq
		if op == osOpSuspendJob {
			p.throttled = true
		} else {
			p.throttled = false
			p.throttleW.WakeAll()
		}
	}
}
