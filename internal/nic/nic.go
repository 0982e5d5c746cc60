package nic

import (
	"fmt"

	"fugu/internal/cpu"
	"fugu/internal/faultinject"
	"fugu/internal/mesh"
	"fugu/internal/metrics"
	"fugu/internal/niq"
	"fugu/internal/sim"
	"fugu/internal/spans"
)

// Trap enumerates the synchronous traps of Table 2. Operations return the
// trap they raise (or TrapNone); the calling software layer vectors into the
// kernel's trap handlers.
type Trap int

// Traps, per Table 2 of the paper.
const (
	TrapNone Trap = iota
	TrapDisposeExtend
	TrapDisposeFailure
	TrapBadDispose
	TrapAtomicityExtend
	TrapProtectionViolation
)

func (t Trap) String() string {
	switch t {
	case TrapNone:
		return "none"
	case TrapDisposeExtend:
		return "dispose-extend"
	case TrapDisposeFailure:
		return "dispose-failure"
	case TrapBadDispose:
		return "bad-dispose"
	case TrapAtomicityExtend:
		return "atomicity-extend"
	case TrapProtectionViolation:
		return "protection-violation"
	default:
		return fmt.Sprintf("trap(%d)", int(t))
	}
}

// UAC bits, per Table 3. The low two bits are user-writable via
// beginatom/endatom; the high two only the kernel may change.
const (
	UACInterruptDisable uint8 = 1 << 0 // user: defer message-available interrupts
	UACTimerForce       uint8 = 1 << 1 // user: run atomicity timer unconditionally
	UACDisposePending   uint8 = 1 << 2 // kernel: set in message-available stub, reset by dispose
	UACAtomicityExtend  uint8 = 1 << 3 // kernel: trap at end of atomic section

	uacUserBits = UACInterruptDisable | UACTimerForce
)

// Interrupts carries the NI's interrupt lines. The kernel wires these to CPU
// IRQ vectors; unconnected lines are permitted in unit tests.
type Interrupts struct {
	// MessageAvailable is the user-level interrupt: a message for the
	// current GID is at the head of the queue and user interrupts are
	// enabled.
	MessageAvailable func()
	// MismatchAvailable is the kernel interrupt: the head message carries a
	// mismatched GID, a kernel message, or divert-mode is set.
	MismatchAvailable func()
	// AtomicityTimeout is the kernel interrupt: the atomicity timer expired.
	AtomicityTimeout func()
}

// Config sets the hardware parameters of an NI.
type Config struct {
	InputQueueDepth int    // messages buffered in the receive queue
	OutputWords     int    // send descriptor buffer capacity (16 in FUGU)
	TimerPreset     uint64 // atomicity-timeout preset value
	DrainPerWord    uint64 // cycles per word to drain the output buffer
	// Queue selects the input-queue organization (see internal/niq). The
	// zero value is the original static FIFO at InputQueueDepth slots,
	// bit-identical to the pre-seam hardware.
	Queue niq.Spec
	// QueueAudit walks the queue's structural invariants (reserve
	// guarantees, borrow accounting, list integrity) after every push and
	// pop, panicking on the first violation. Test-only: it consumes no
	// simulated time but is O(slots) real work per message.
	QueueAudit bool
}

// ConfigOption mutates a Config under construction.
type ConfigOption func(*Config)

// WithInputQueueDepth sets the receive-queue capacity in messages.
func WithInputQueueDepth(n int) ConfigOption { return func(c *Config) { c.InputQueueDepth = n } }

// WithQueue selects the input-queue organization (model, allocation policy
// and optionally an explicit slot count; see niq.Spec).
func WithQueue(spec niq.Spec) ConfigOption { return func(c *Config) { c.Queue = spec } }

// WithQueueAudit checks the input queue's structural invariants after every
// mutation (see Config.QueueAudit). Property tests use it to catch a
// reserve violation at the moment it happens rather than after the run.
func WithQueueAudit() ConfigOption { return func(c *Config) { c.QueueAudit = true } }

// WithOutputWords sets the send descriptor buffer capacity in words.
func WithOutputWords(n int) ConfigOption { return func(c *Config) { c.OutputWords = n } }

// WithTimerPreset sets the atomicity-timeout preset value.
func WithTimerPreset(v uint64) ConfigOption { return func(c *Config) { c.TimerPreset = v } }

// WithDrainPerWord sets the output drain rate in cycles per word.
func WithDrainPerWord(v uint64) ConfigOption { return func(c *Config) { c.DrainPerWord = v } }

// DefaultConfig mirrors the FUGU hardware: a small single input queue and a
// 16-word send descriptor. The timer preset is a free parameter of the
// design ("may be changed without affecting correctness"); 2000 cycles is
// comfortably above any reasonable handler.
func DefaultConfig() Config {
	return Config{InputQueueDepth: 16, OutputWords: 16, TimerPreset: 2000, DrainPerWord: 1}
}

// NewConfig builds a Config from the defaults plus options.
func NewConfig(opts ...ConfigOption) Config {
	cfg := DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Offload is the receive-side offload engine of a hardware-demultiplexing
// delivery policy (kernel-bypass rings): the NI consults it to admit
// arriving user packets and to sort admitted ones into per-process stores
// without raising interrupts. The OS layer implements it; the NI only holds
// the hook so the hardware model never imports kernel code. Kernel packets
// are never offloaded — they always take the mismatch interrupt.
type Offload interface {
	// AdmitUser is consulted before a user packet enters the input queue.
	// Refusal NACKs the packet back into the network for sender retry.
	AdmitUser(pkt *mesh.Packet) bool
	// DemuxHead takes the head user packet into its owner's store. A false
	// return leaves the packet for the mismatch interrupt path (stray GID).
	DemuxHead(pkt *mesh.Packet) bool
}

// NI is one node's network interface.
type NI struct {
	eng  *sim.Engine
	net  *mesh.Net
	node int
	cfg  Config
	intr Interrupts

	// Receive side. q is the input-queue organization (static FIFO unless
	// Config.Queue says otherwise); signaled is the packet the last raised
	// interrupt (message-available or mismatch-available) was for, so a
	// head that has not changed is never signaled twice. It is cleared
	// whenever its referent leaves the queue or the routing state (GID,
	// divert) changes, so it can never alias a recycled pool packet.
	q        niq.InputQueue
	signaled *mesh.Packet

	// Send side.
	out         []uint64
	outBusyTill uint64
	spaceWait   *sim.Cond // procs blocked for output drain (blocking stores)
	drainFn     func()    // broadcasts spaceWait; bound once so Launch never allocates

	// Protection and control state (kernel-managed except UAC user bits).
	gid    GID
	divert bool
	uac    uint8

	timer atomicityTimer

	// off is the receive offload engine of a hardware-demultiplexing
	// delivery policy, nil (pure two-case hardware) unless SetOffload is
	// called. demuxing guards the demux loop against reentrance: popping a
	// demuxed head re-offers network backpressure, which can deliver the
	// next packet and re-enter evaluate synchronously.
	off      Offload
	demuxing bool

	// Statistics.
	arrived   uint64
	refused   uint64
	launched  uint64
	disposed  uint64
	kdisposed uint64
	demuxed   uint64 // user packets sorted by the offload engine
	nacked    uint64 // user packets refused by offload admission

	// Metrics instruments, nil (no-op) unless UseMetrics is called.
	mArrived   *metrics.Counter
	mRefused   *metrics.Counter
	mLaunched  *metrics.Counter
	mDisposed  *metrics.Counter
	mKDisposed *metrics.Counter
	mQueueLen  *metrics.Gauge
	mDemuxed   *metrics.Counter // registered only when an offload is set
	mNacked    *metrics.Counter
	reg        *metrics.Registry

	// rec observes message lifecycles, nil (no-op) unless UseSpans is called.
	rec *spans.Recorder

	// inj supplies arrival-time faults (forced mismatches and timeouts),
	// output-window clamps and DMA stalls; nil (no-op) unless UseFaults is
	// called.
	inj *faultinject.Injector
}

// UseSpans installs a lifecycle recorder: input-queue acceptance and
// fast-path disposal are recorded against the packet ID. Kernel disposals
// are recorded by the glaze layer, which knows their cause.
func (ni *NI) UseSpans(rec *spans.Recorder) { ni.rec = rec }

// UseFaults installs a fault injector: arriving user packets may be forced
// to mismatch or to fire the atomicity timeout, the space-available register
// may be clamped, and output drains may be stretched, per the plan.
func (ni *NI) UseFaults(inj *faultinject.Injector) { ni.inj = inj }

// UseMetrics binds the NI's instruments into a registry: lifetime counters
// mirroring Stats ("nic.arrived", ".refused", ".launched", ".disposed",
// ".kdisposed") and a "nic.queue_len" gauge whose Max is the deepest the
// input queue ever got.
func (ni *NI) UseMetrics(r *metrics.Registry) {
	ni.reg = r
	ni.mArrived = r.Counter("nic.arrived")
	ni.mRefused = r.Counter("nic.refused")
	ni.mLaunched = r.Counter("nic.launched")
	ni.mDisposed = r.Counter("nic.disposed")
	ni.mKDisposed = r.Counter("nic.kdisposed")
	ni.mQueueLen = r.Gauge("nic.queue_len")
	// The queue registers its own instruments; the default FIFO registers
	// none, keeping the default policy's metric key set exact.
	ni.q.UseMetrics(r)
	ni.bindOffloadMetrics()
}

// SetOffload installs (or clears) the receive offload engine. The demux
// counters ("nic.demuxed", "nic.nacked") are registered only when an
// offload exists, so the default policy's metric snapshots keep their
// exact key set.
func (ni *NI) SetOffload(off Offload) {
	ni.off = off
	ni.bindOffloadMetrics()
	if off != nil {
		ni.evaluate()
	}
}

func (ni *NI) bindOffloadMetrics() {
	if ni.off == nil || ni.reg == nil {
		return
	}
	ni.mDemuxed = ni.reg.Counter("nic.demuxed")
	ni.mNacked = ni.reg.Counter("nic.nacked")
}

// New creates an NI for node and registers it as the node's endpoint on the
// main logical network.
func New(eng *sim.Engine, net *mesh.Net, node int, cfg Config) *NI {
	ni := &NI{eng: eng, net: net, node: node, cfg: cfg}
	ni.q = niq.New(cfg.Queue, cfg.InputQueueDepth, net.Nodes())
	// The presentation predicates read the NI's live routing state, so the
	// queue's head tracks GID and divert changes without re-binding. A
	// multi-queue model uses them to keep the fast path alive when the
	// globally oldest packet is mismatched; the FIFO ignores them.
	ni.q.Bind(
		func(pkt *mesh.Packet) bool {
			if ni.divert || pkt.FaultMismatch {
				return false
			}
			h := pkt.Words[0]
			return !HeaderIsKernel(h) && HeaderGID(h) == ni.gid
		},
		func(pkt *mesh.Packet) bool { return HeaderIsKernel(pkt.Words[0]) },
	)
	ni.spaceWait = sim.NewCond(eng)
	ni.drainFn = func() { ni.spaceWait.Broadcast() }
	ni.timer.init(eng, cfg.TimerPreset, ni)
	net.Register(node, mesh.Main, ni)
	return ni
}

// SetInterrupts wires the NI's interrupt lines.
func (ni *NI) SetInterrupts(i Interrupts) { ni.intr = i }

// Node returns the node number this NI serves.
func (ni *NI) Node() int { return ni.node }

// OutputWords returns the send descriptor buffer capacity in words.
func (ni *NI) OutputWords() int { return ni.cfg.OutputWords }

// AttachCPU registers the NI as a run listener so the atomicity timer can
// count user cycles only, per Table 3.
func (ni *NI) AttachCPU(c *cpu.CPU) { c.AddRunListener(&ni.timer) }

// ---------------------------------------------------------------------------
// Receive side

// Arrive implements mesh.Endpoint: the network offers the next in-order
// packet; a queue that cannot admit it refuses (backpressure into the
// network). Admission is the queue model's policy check — the static FIFO
// refuses only when full, the shared models also enforce per-source caps
// and reserve guarantees.
func (ni *NI) Arrive(pkt *mesh.Packet) bool {
	if !ni.q.Admit(pkt.Src, HeaderIsKernel(pkt.Words[0])) {
		ni.refused++
		ni.mRefused.Inc()
		return false
	}
	if ni.off != nil && !HeaderIsKernel(pkt.Words[0]) && !ni.off.AdmitUser(pkt) {
		// Offload admission refused (destination ring full or unknown
		// geometry): NACK the packet back into the network for retry.
		ni.nacked++
		ni.mNacked.Inc()
		return false
	}
	ni.arrived++
	ni.mArrived.Inc()
	ni.rec.Queued(ni.eng.Now(), pkt.ID, ni.node)
	ni.q.Push(pkt)
	ni.audit()
	ni.mQueueLen.Set(int64(ni.q.Len()))
	if ni.inj != nil && !HeaderIsKernel(pkt.Words[0]) {
		if !pkt.FaultMismatch && ni.inj.ForceMismatch(ni.node) {
			pkt.FaultMismatch = true
		}
		// A forced timeout models the timer expiring exactly at arrival;
		// the kernel's timeout ISR tolerates spurious raises.
		if ni.inj.ForceTimeout(ni.node) && ni.intr.AtomicityTimeout != nil {
			ni.intr.AtomicityTimeout()
		}
	}
	ni.evaluate()
	return true
}

// MessageAvailable returns the user-visible message-available flag: a
// message for the current GID is at the head and the buffered path is not
// engaged.
func (ni *NI) MessageAvailable() bool {
	return ni.headMatches()
}

// headMatches reports whether the presented head message belongs to the
// current user.
func (ni *NI) headMatches() bool {
	if ni.divert {
		return false
	}
	pkt := ni.q.Head()
	if pkt == nil || pkt.FaultMismatch {
		return false
	}
	h := pkt.Words[0]
	return !HeaderIsKernel(h) && HeaderGID(h) == ni.gid
}

// HeadLen returns the length in words of the head message, or 0 if none.
func (ni *NI) HeadLen() int {
	pkt := ni.q.Head()
	if pkt == nil {
		return 0
	}
	return len(pkt.Words)
}

// ReadWord returns word i of the head message (the input message window).
// Reading with no message present returns 0, as reading garbage registers
// would; protected software never does this.
func (ni *NI) ReadWord(i int) uint64 {
	pkt := ni.q.Head()
	if pkt == nil || i >= len(pkt.Words) {
		return 0
	}
	return pkt.Words[i]
}

// HeadPacket exposes the head packet to kernel software (the
// mismatch-available handler demultiplexes from it). Returns nil if empty.
func (ni *NI) HeadPacket() *mesh.Packet { return ni.q.Head() }

// QueueLen reports how many messages sit in the input queue.
func (ni *NI) QueueLen() int { return ni.q.Len() }

// Queue exposes the input-queue organization for tests and diagnostics.
func (ni *NI) Queue() niq.InputQueue { return ni.q }

// Dispose implements the user dispose operation of Table 1: under divert it
// traps dispose-extend so the OS can emulate disposal from the software
// buffer; with no matching message it traps bad-dispose; otherwise it
// deletes the head message, clears dispose-pending and presets the
// atomicity timer.
func (ni *NI) Dispose() Trap {
	if ni.divert {
		return TrapDisposeExtend
	}
	if !ni.MessageAvailable() {
		return TrapBadDispose
	}
	ni.disposed++
	ni.mDisposed.Inc()
	pkt := ni.q.Head()
	ni.rec.End(ni.eng.Now(), pkt.ID, ni.node, spans.TermFast)
	ni.popHead()
	ni.uac &^= UACDisposePending
	ni.timer.preset()
	ni.evaluate()
	// Fast-case disposal is terminal: the handler consumed the words from
	// the input window before disposing, so the packet is dead and can be
	// recycled for a future launch from this node.
	ni.net.Release(ni.node, pkt)
	return TrapNone
}

// KDispose removes the head message with kernel privilege (the buffered-path
// insertion handler uses it after copying the message to memory).
func (ni *NI) KDispose() {
	if ni.q.Len() == 0 {
		panic("nic: KDispose with empty queue")
	}
	ni.kdisposed++
	ni.mKDisposed.Inc()
	ni.popHead()
	ni.evaluate()
}

// popHead removes the presented head (selection is pure, so this is the
// packet Head just returned) and re-offers backpressured traffic.
func (ni *NI) popHead() {
	ni.q.PopHead()
	ni.audit()
	ni.mQueueLen.Set(int64(ni.q.Len()))
	ni.signaled = nil
	ni.net.NotifySpace(ni.node, mesh.Main)
}

// audit enforces Config.QueueAudit: every queue mutation must leave the
// structure satisfying all its invariants, reserve guarantees included.
func (ni *NI) audit() {
	if !ni.cfg.QueueAudit {
		return
	}
	if err := ni.q.CheckInvariants(); err != nil {
		panic(fmt.Sprintf("nic: node %d input-queue invariant violated: %v", ni.node, err))
	}
}

// evaluate recomputes the interrupt lines after any state change: arrival,
// disposal, UAC write, or a kernel change to GID/divert. At most one
// interrupt is raised per presented head per routing decision: the signaled
// pointer tracks which packet the last interrupt was for, so an unchanged
// head is never re-signaled, while a multi-queue model changing its
// presented head (a matching packet arriving behind a mismatched front)
// raises the interrupt the new head deserves.
func (ni *NI) evaluate() {
	defer ni.timer.update()
	if ni.off != nil {
		ni.demuxLoop()
	}
	head := ni.q.Head()
	if head == nil {
		return
	}
	if ni.headMatches() {
		if ni.uac&UACInterruptDisable == 0 && head != ni.signaled {
			ni.signaled = head
			if ni.intr.MessageAvailable != nil {
				ni.intr.MessageAvailable()
			}
		}
		return
	}
	// Mismatched GID, kernel message, or divert mode: kernel interrupt.
	if head != ni.signaled {
		ni.signaled = head
		if ni.intr.MismatchAvailable != nil {
			ni.intr.MismatchAvailable()
		}
	}
}

// demuxLoop sorts user packets at the head of the queue into their owners'
// stores through the offload engine, without interrupting any processor.
// Kernel packets and packets the engine refuses (stray GIDs) are left at
// the head for the mismatch interrupt. Popping a head re-offers network
// backpressure, which can synchronously deliver the next packet and
// re-enter evaluate; the demuxing guard collapses that recursion into this
// loop's next iteration.
func (ni *NI) demuxLoop() {
	if ni.demuxing {
		return
	}
	ni.demuxing = true
	for ni.q.Len() > 0 {
		pkt := ni.q.Head()
		if HeaderIsKernel(pkt.Words[0]) {
			break
		}
		if !ni.off.DemuxHead(pkt) {
			break
		}
		ni.demuxed++
		ni.mDemuxed.Inc()
		ni.popHead()
		// The store copied the words and popHead cleared signaled: the
		// packet is dead.
		ni.net.Release(ni.node, pkt)
	}
	ni.demuxing = false
}

// NotifyInputSpace re-offers backpressured packets to this NI. A
// hardware-demultiplexing policy calls it when ring space frees: admission
// refusals parked senders' packets in the network, and nothing else would
// wake them.
func (ni *NI) NotifyInputSpace() {
	ni.net.NotifySpace(ni.node, mesh.Main)
}

// ---------------------------------------------------------------------------
// Send side

// SpaceAvailable returns how many descriptor words may be written without
// blocking, the space-available register used to implement injectc.
func (ni *NI) SpaceAvailable() int {
	if ni.eng.Now() < ni.outBusyTill {
		return 0
	}
	avail := ni.cfg.OutputWords - len(ni.out)
	if c, ok := ni.inj.OutputClamp(ni.node); ok && avail > c {
		avail = c
	}
	return avail
}

// OutputReadyAt returns the time the output buffer finishes draining; the
// udm layer parks blocking injectors until then.
func (ni *NI) OutputReadyAt() uint64 { return ni.outBusyTill }

// Describe appends words to the output descriptor buffer. The caller must
// have checked SpaceAvailable (blocking-store semantics live in the udm
// layer, which parks until OutputReadyAt).
func (ni *NI) Describe(words ...uint64) {
	if len(ni.out)+len(words) > ni.cfg.OutputWords {
		panic(fmt.Sprintf("nic: descriptor overflow (%d+%d > %d)", len(ni.out), len(words), ni.cfg.OutputWords))
	}
	ni.out = append(ni.out, words...)
}

// DescriptorLength returns the descriptor-length register: words currently
// described and not yet launched (the state a context switch would swap).
func (ni *NI) DescriptorLength() int { return len(ni.out) }

// ClearDescriptor unloads the current descriptor (kernel context-switch
// path): it appends the described words to dst, empties the descriptor and
// returns the extended dst; the kernel later reloads it via Describe. The
// NI keeps reusing its own array, so the saved words alias nothing in it.
func (ni *NI) ClearDescriptor(dst []uint64) []uint64 {
	dst = append(dst, ni.out...)
	ni.out = ni.out[:0]
	return dst
}

// Launch implements the launch operation of Table 1. With user privilege a
// kernel-message header takes a protection-violation trap. An empty
// descriptor makes launch a no-op, per the table. On success the hardware
// stamps the GID (the caller's GID for users, the given one for the kernel)
// and commits the message to the network atomically.
func (ni *NI) Launch(kernelPriv bool) Trap {
	if len(ni.out) == 0 {
		return TrapNone
	}
	h := ni.out[0]
	if !kernelPriv {
		if HeaderIsKernel(h) {
			return TrapProtectionViolation
		}
		h = stampGID(h, ni.gid)
	} else if !HeaderIsKernel(h) && HeaderGID(h) == 0 {
		// Kernel sending on behalf of itself without a stamp: kernel GID.
		h = stampGID(h, KernelGID)
	}
	// The descriptor is copied into a pooled packet (recycled by whichever
	// path ends its delivery), so steady-state launches do not allocate.
	pkt := ni.net.Acquire(ni.node, len(ni.out))
	copy(pkt.Words, ni.out)
	pkt.Words[0] = h
	ni.out = ni.out[:0]
	ni.launched++
	ni.mLaunched.Inc()

	// The output buffer drains at link rate; until then space-available
	// reads zero and blocking stores stall. A DMA-stall fault holds the
	// descriptor busy longer.
	drain := ni.cfg.DrainPerWord*uint64(len(pkt.Words)) + ni.inj.DMAStall(ni.node)
	start := ni.eng.Now()
	if ni.outBusyTill > start {
		start = ni.outBusyTill
	}
	ni.outBusyTill = start + drain
	ni.eng.ScheduleSite(siteDrain, ni.outBusyTill-ni.eng.Now(), ni.drainFn)

	ni.net.SendPacket(mesh.Main, ni.node, HeaderDst(h), pkt)
	return TrapNone
}

// siteDrain labels output-buffer drain completions for the cost profiler.
var siteDrain = sim.NewSite("nic.drain")

// SpaceCond returns the condition signalled when the output buffer drains.
func (ni *NI) SpaceCond() *sim.Cond { return ni.spaceWait }

// ---------------------------------------------------------------------------
// Atomicity control

// BeginAtom implements beginatom(MASK): UAC |= MASK. User privilege may only
// touch the user bits; touching kernel bits is a protection violation.
func (ni *NI) BeginAtom(mask uint8, kernelPriv bool) Trap {
	if !kernelPriv && mask&^uacUserBits != 0 {
		return TrapProtectionViolation
	}
	ni.uac |= mask
	ni.evaluate()
	return TrapNone
}

// EndAtom implements endatom(MASK) with the trap rules of Table 1:
// dispose-pending set traps dispose-failure (the handler exited without
// freeing a message); atomicity-extend set traps so the OS regains control;
// otherwise the bits clear and pending messages may now interrupt.
func (ni *NI) EndAtom(mask uint8, kernelPriv bool) Trap {
	if !kernelPriv && mask&^uacUserBits != 0 {
		return TrapProtectionViolation
	}
	if ni.uac&UACDisposePending != 0 {
		return TrapDisposeFailure
	}
	if ni.uac&UACAtomicityExtend != 0 {
		return TrapAtomicityExtend
	}
	ni.uac &^= mask
	ni.evaluate()
	return TrapNone
}

// UAC returns the atomicity control register.
func (ni *NI) UAC() uint8 { return ni.uac }

// SetUACKernel sets or clears a kernel UAC bit (dispose-pending or
// atomicity-extend) with kernel privilege.
func (ni *NI) SetUACKernel(bit uint8, on bool) {
	if on {
		ni.uac |= bit
	} else {
		ni.uac &^= bit
	}
	ni.evaluate()
}

// ClearUAC resets the whole register (kernel, on context switch).
func (ni *NI) ClearUAC() {
	ni.uac = 0
	ni.evaluate()
}

// RestoreUAC installs a saved register image (kernel, on context switch).
func (ni *NI) RestoreUAC(v uint8) {
	ni.uac = v
	ni.evaluate()
}

// ---------------------------------------------------------------------------
// Kernel registers

// GID returns the current application GID register.
func (ni *NI) GID() GID { return ni.gid }

// SetGID installs the scheduled application's GID (kernel, context switch).
func (ni *NI) SetGID(g GID) {
	ni.gid = g
	ni.signaled = nil
	ni.evaluate()
}

// Divert returns the divert-mode bit.
func (ni *NI) Divert() bool { return ni.divert }

// SetDivert flips the buffered path on or off. With divert set every
// incoming message interrupts the operating system and user dispose traps.
func (ni *NI) SetDivert(on bool) {
	if ni.divert == on {
		return
	}
	ni.divert = on
	ni.signaled = nil
	ni.evaluate()
}

// SetTimerPreset changes the atomicity-timeout preset value.
func (ni *NI) SetTimerPreset(v uint64) {
	ni.cfg.TimerPreset = v
	ni.timer.presetVal = v
	ni.timer.preset()
	ni.timer.update()
}

// TimerRemaining exposes the countdown for tests and diagnostics.
func (ni *NI) TimerRemaining() uint64 { return ni.timer.remainingNow() }

// Stats reports lifetime NI counters: messages arrived, refused by a full
// queue, launched, user-disposed and kernel-disposed.
func (ni *NI) Stats() (arrived, refused, launched, disposed, kdisposed uint64) {
	return ni.arrived, ni.refused, ni.launched, ni.disposed, ni.kdisposed
}

// Demuxed reports user packets sorted into per-process stores by the
// offload engine (always zero without one).
func (ni *NI) Demuxed() uint64 { return ni.demuxed }

// Nacked reports user packets refused by offload admission and bounced back
// into the network for retry (always zero without an offload).
func (ni *NI) Nacked() uint64 { return ni.nacked }
