package core

import (
	"repro/internal/clock"
	"repro/internal/detect"
	"repro/internal/fault"
	"repro/internal/htm"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/sim"
)

// RetryBudgetNone requests zero fast-path retries: every pure-retry abort
// falls back to the slow path immediately. The Options zero value keeps the
// default budget, so "no retries" needs this explicit sentinel.
const RetryBudgetNone = -1

// Options configures the TxRace runtime.
type Options struct {
	// HTM is the transactional hardware model; htm.New fills each zero
	// field with its htm.DefaultConfig value.
	HTM htm.Config
	// LoopCut selects the capacity-abort optimization (Fig. 9).
	LoopCut CutMode
	// Thresholds preloads loop-cut thresholds for ProfCut.
	Thresholds LoopThresholds
	// RetryBudget bounds fast-path retries of pure-retry aborts before
	// falling back to the slow path, guaranteeing forward progress. Zero
	// keeps the default (3); RetryBudgetNone requests no retries at all.
	RetryBudget int
	// RetryOnlyFraction is the fraction of interrupt aborts that report
	// only the retry bit rather than an unknown status, exercising the
	// retry policy of §4.2.
	RetryOnlyFraction float64
	// SlowScale multiplies the per-access slow-path hook cost, modelling
	// per-application detector pathologies (contended shadow words, report
	// storms) that make real TSan arbitrarily slower on some programs.
	SlowScale float64
	// DisableTxFail turns off the global-abort protocol (§3): on a
	// conflict abort only the aborted thread re-executes on the slow path;
	// concurrent transactions run to completion. This is the ablation for
	// the paper's design choice of artificially aborting all in-flight
	// transactions — without it the conflicting partner's accesses are
	// usually never re-examined and the race is missed.
	DisableTxFail bool
	// TargetedSlowPath is the §9 "future HTM" extension the paper closes
	// on: with an HTM that exposes the conflicting address
	// (HTM.ExposeConflictAddress), a conflict episode's slow-path
	// re-execution only pays detector hooks for accesses on the conflicting
	// line instead of the whole region. Races on other lines of the same
	// region can then slip through, but episodes get drastically cheaper.
	// Capacity and unknown aborts still re-execute fully monitored.
	TargetedSlowPath bool
	// Fault, when non-nil, is a compiled fault plan (internal/fault): the
	// runtime attaches it to the HTM model's injection hooks and consults
	// its syscall hook for machine-wide abort clustering. nil injects
	// nothing.
	Fault *fault.Injector
	// Governor configures the adaptive fallback governor (governor.go); the
	// zero value disables it.
	Governor GovernorConfig
	// Detect configures the slow path's detector as for NewTSanWith: the
	// zero value is the default sparse/delta configuration, RefDense the
	// retained dense reference for differential runs, Cells bounded shadow.
	Detect detect.Config
	// Obs, when non-nil, receives structured lifecycle events and metrics
	// updates (internal/obs): transaction begin/commit/abort with the RTM
	// status word, TxFail episodes, slow-path regions, loop-cut decisions.
	// The runtime also attaches it to the HTM model. The disabled path is
	// one nil-check per hook.
	Obs *obs.Observer
}

func (o Options) withDefaults() Options {
	switch {
	case o.RetryBudget == 0:
		o.RetryBudget = 3
	case o.RetryBudget < 0:
		// RetryBudgetNone (and any negative) means an explicit zero budget.
		o.RetryBudget = 0
	}
	o.Governor = o.Governor.withDefaults()
	if o.SlowScale == 0 {
		o.SlowScale = 1
	}
	if o.Thresholds == nil {
		o.Thresholds = LoopThresholds{}
	} else {
		o.Thresholds = o.Thresholds.Clone()
	}
	return o
}

// threadCtx is the runtime's per-thread state.
type threadCtx struct {
	mode Mode
	// snap is the rollback point, rewritten in place at every begin.
	snap         sim.Snapshot
	genAtBegin   uint64
	clockAtBegin int64
	retries      int
	slowCause    Cause
	slowStart    int64
	// Targeted slow path (future-HTM extension): when set, only accesses on
	// targetLine reach the detector during this slow region.
	targetLine memmodel.Line
	hasTarget  bool
	// Loop-cut bookkeeping: LoopCheck hits per loop slot (TxRace.loopSlot)
	// within the current transaction, the slots hit so far (so the clear at
	// each begin costs only the loops actually run), and the most recent
	// LoopCheck (the LBR stand-in used to attribute capacity aborts, §4.3).
	iterInTx    []int
	iterTouched []int32
	lastLoop    sim.LoopID
	hasLastLoop bool
	// Fallback-governor state (governor.go): the sliding outcome window,
	// degradation bookkeeping, and the governor-budgeted unknown retries.
	govWindow        uint64
	govCount         int
	govDegraded      bool
	govForcedLeft    int
	govProbeInterval int
	govProbing       bool
	unknownRetries   int
	// Attribution-only markers (dead when no ledger is attached): the
	// runtime set attribSyscall when it injected the interrupt for a hidden
	// syscall inside this thread's own transaction, attribFault when a
	// fault-plan syscall cluster doomed it; attribCause remembers the
	// classified cause of the abort that opened the current slow region so
	// TxEndMark can fold the re-execution into the same bucket.
	attribSyscall bool
	attribFault   bool
	attribCause   obs.AbortCause
}

// TxRace is the two-phase runtime. Create with NewTxRace and pass to
// sim.Engine.Run with a program instrumented by instrument.ForTxRace.
type TxRace struct {
	sim.NopRuntime

	// slow is the slow path (§5): its detector takes every slow-path
	// access, it tracks thread lifetimes (Fork, Joined, JoinedAll), and its
	// Finish folds the detector's stats. TxRace keeps its own sync, atomic
	// and access hooks, which gate on the thread's mode.
	slow *TSan

	opts Options
	hw   *htm.HTM

	txFail    memmodel.Addr
	txFailGen uint64
	// episodeLine publishes the genuine conflict line of the current TxFail
	// episode so artificially aborted threads can target it too (they only
	// ever see TxFail itself as their hardware conflict address).
	episodeLine    memmodel.Line
	hasEpisodeLine bool

	ctx []threadCtx // indexed by thread ID, created in Init

	// Governor run-wide state: the count of currently degraded threads and
	// the remaining region begins of an engaged global degradation window.
	govDegraded   int
	govGlobalLeft int

	// Per-loop state is indexed by slot (loopSlot): a LoopID below
	// denseLoops is its own slot, and the rare larger ids a program's
	// LoopCheck marks use take the slots after those, in the order farLoops
	// numbers them.
	// thresholds stays keyed by LoopID: it is the harvested profile.
	thresholds LoopThresholds
	denseLoops int
	farLoops   map[sim.LoopID]int
	cutActive  []bool

	// obs is the optional observability layer; episode* track the open
	// TxFail global-abort episode so its end can be traced when the
	// initiating thread finishes its slow-path re-execution.
	obs          *obs.Observer
	episodeTid   int
	episodeStart int64
	episodeOpen  bool

	// led is the cycle-attribution ledger (nil unless the observer carries
	// one). The runtime moves each thread's sim.Thread.Phase at mode
	// transitions and records per-cause abort costs here; the engine bills
	// every charge to the current phase.
	led *obs.Ledger

	stats Stats
}

// NewTxRace returns a runtime with the given options.
func NewTxRace(opts Options) *TxRace {
	opts = opts.withDefaults()
	slow := NewTSanWith(opts.Detect)
	slow.SlowScale = opts.SlowScale
	r := &TxRace{
		slow:       slow,
		opts:       opts,
		hw:         htm.New(opts.HTM),
		txFail:     txFailBase,
		thresholds: opts.Thresholds,
		obs:        opts.Obs,
		led:        opts.Obs.Ledger(),
	}
	r.stats.SlowRegions = make(map[Cause]uint64)
	return r
}

// Detector exposes the slow path's detector.
func (r *TxRace) Detector() *detect.Detector { return r.slow.det }

// Fork implements sim.Runtime.
func (r *TxRace) Fork(p, c *sim.Thread) { r.slow.Fork(p, c) }

// Joined implements sim.Runtime.
func (r *TxRace) Joined(p, c *sim.Thread) { r.slow.Joined(p, c) }

// JoinedAll implements sim.BatchJoiner.
func (r *TxRace) JoinedAll(p *sim.Thread, cs []*sim.Thread) { r.slow.JoinedAll(p, cs) }

// Stats returns the runtime statistics collected so far.
func (r *TxRace) Stats() Stats { return r.stats }

// HWStats returns the underlying machine's transactional event counts, for
// cross-checking runtime-level accounting against machine-level accounting.
func (r *TxRace) HWStats() htm.Stats { return r.hw.Stats() }

// Thresholds returns the live loop-cut thresholds (after adaptation), which
// a profiling run harvests to build a ProfCut profile.
func (r *TxRace) Thresholds() LoopThresholds { return r.thresholds }

// Init implements sim.Runtime. It sizes the per-loop and per-thread state
// from the program once, so the hooks never grow a table.
func (r *TxRace) Init(e *sim.Engine) {
	r.slow.Init(e)
	p := e.Program()
	r.initLoops(p)
	if r.opts.LoopCut == ProfCut {
		for id := range r.thresholds {
			// A profiled loop the program never checks cannot be cut.
			if s, ok := r.loopSlot(id); ok {
				r.cutActive[s] = true
			}
		}
	}
	nl := len(r.cutActive)
	r.ctx = make([]threadCtx, p.Threads())
	iters := make([]int, len(r.ctx)*nl)
	for i := range r.ctx {
		r.ctx[i].iterInTx = iters[i*nl : (i+1)*nl : (i+1)*nl]
	}
	r.hw.SetClock(e.ThreadClock)
	if r.obs != nil {
		r.hw.SetObserver(r.obs, e.ThreadClock)
	}
	if r.opts.Fault != nil {
		r.hw.SetInjector(r.opts.Fault)
	}
}

func (r *TxRace) tctx(t *sim.Thread) *threadCtx { return &r.ctx[t.ID] }

// denseLoopLimit bounds the loop ids that index per-loop state directly, as
// sim bounds its dense sync-id tables: builders hand out loop ids from 1, and
// a larger id in a hand-built program costs a map probe, not a huge table.
const denseLoopLimit = 1 << 16

// initLoops assigns a slot to every loop id the program's LoopCheck marks
// use (the only ids the loop-cut hooks ever see) and sizes cutActive.
func (r *TxRace) initLoops(p *sim.Program) {
	visit := func(in sim.Instr) {
		lc, ok := in.(*sim.LoopCheck)
		switch {
		case !ok:
		case lc.ID < denseLoopLimit:
			r.denseLoops = max(r.denseLoops, int(lc.ID)+1)
		default:
			if r.farLoops == nil {
				r.farLoops = make(map[sim.LoopID]int)
			}
			if _, seen := r.farLoops[lc.ID]; !seen {
				r.farLoops[lc.ID] = len(r.farLoops)
			}
		}
	}
	sim.ForEachInstr(p.Setup, visit)
	for _, w := range p.Workers {
		sim.ForEachInstr(w, visit)
	}
	sim.ForEachInstr(p.Teardown, visit)
	r.cutActive = make([]bool, r.denseLoops+len(r.farLoops))
}

// loopSlot returns the per-loop state index of id, and false when no
// LoopCheck in the program uses id.
func (r *TxRace) loopSlot(id sim.LoopID) (int, bool) {
	if int(id) < r.denseLoops {
		return int(id), true
	}
	s, ok := r.farLoops[id]
	return r.denseLoops + s, ok
}

// multithreaded reports whether HTM monitoring is worthwhile: at least two
// worker threads are live (§4.3, optimization 1).
func (r *TxRace) multithreaded() bool { return r.slow.eng.LiveWorkers() >= 2 }

// chargeFast charges c cycles to t and attributes them to pure fast-path
// overhead (the black "xbegin/xend" bar of Fig. 7).
func (r *TxRace) chargeFast(t *sim.Thread, c int64) {
	r.slow.eng.ChargeAs(t, c, obs.PhaseFast)
	r.stats.CyclesFastPath += c
}

// SyncAcquire tracks the happens-before edge on both paths (§5, Fig. 6).
func (r *TxRace) SyncAcquire(t *sim.Thread, s sim.SyncID, kind sim.SyncKind) {
	c := r.tctx(t)
	if c.mode == ModeNone && !r.multithreaded() {
		return
	}
	r.chargeFast(t, r.slow.eng.Config().Cost.FastSyncHook)
	detect.AcquireKind(r.slow.det, clock.TID(t.ID), detect.SyncID(s), kind)
}

// SyncRelease tracks the happens-before edge on both paths (§5, Fig. 6).
func (r *TxRace) SyncRelease(t *sim.Thread, s sim.SyncID, kind sim.SyncKind) {
	c := r.tctx(t)
	if c.mode == ModeNone && !r.multithreaded() {
		return
	}
	r.chargeFast(t, r.slow.eng.Config().Cost.FastSyncHook)
	detect.ReleaseKind(r.slow.det, clock.TID(t.ID), detect.SyncID(s), kind)
}

// TxBeginMark opens a region: a hardware transaction on the fast path, a
// software-monitored region for small regions, a no-op in single-threaded
// mode, and — when the thread was just rolled back here — the entry point of
// a slow-path re-execution.
func (r *TxRace) TxBeginMark(t *sim.Thread, m *sim.TxBegin) {
	c := r.tctx(t)
	if c.mode == ModeSlow {
		// Re-executing the region on the slow path after a rollback.
		return
	}
	if !r.multithreaded() {
		c.mode = ModeNone
		t.Phase = obs.PhaseApp
		return
	}
	if m.Small {
		// §4.3: regions with fewer than K memory operations skip the HTM;
		// the software detector covers them.
		r.enterSlow(t, c, CauseSmall, obs.PhaseSlow)
		return
	}
	if r.governorForces(t, c) {
		// Degraded thread (or run-wide degradation window): no transaction
		// is attempted; the software detector covers the whole region.
		r.stats.ForcedSlow++
		if o := r.obs; o != nil {
			o.GovernorForced(t.ID, t.Clock)
		}
		r.enterSlow(t, c, CauseGovernor, obs.PhaseGovernor)
		return
	}
	r.beginTxn(t, c)
}

// beginTxn opens a hardware transaction whose rollback point is t's
// current instruction. With no free hardware context the region runs on
// the slow path instead (§6 reason 4).
func (r *TxRace) beginTxn(t *sim.Thread, c *threadCtx) {
	st, err := r.hw.Begin(t.ID)
	if st != 0 {
		// A nested begin means runtime mode tracking went wrong; fail loudly
		// rather than silently running unmonitored.
		panic("txrace: nested transaction begin")
	}
	if err != nil {
		r.enterSlow(t, c, CauseNoHW, obs.PhaseSlow)
		return
	}
	t.Phase = obs.PhaseFast
	r.chargeFast(t, r.slow.eng.Config().Cost.XBegin)
	if o := r.obs; o != nil {
		o.TxBegin(t.ID, t.Clock)
	}
	c.mode = ModeFast
	r.slow.eng.Checkpoint(t, &c.snap)
	c.genAtBegin = r.txFailGen
	c.clockAtBegin = t.Clock
	c.hasLastLoop = false
	c.attribSyscall = false
	c.attribFault = false
	c.clearLoopIters()
	// Instrumented prologue: read the TxFail flag transactionally so a
	// later non-transactional write to it aborts this transaction (§4.1).
	r.hw.Access(t.ID, r.txFail, false)
}

// enterSlow starts a slow region of the given cause at t's current
// instruction, billing t's cycles to phase from here on.
func (r *TxRace) enterSlow(t *sim.Thread, c *threadCtx, cause Cause, phase obs.Phase) {
	c.mode = ModeSlow
	c.slowCause = cause
	c.slowStart = t.Clock
	t.Phase = phase
	r.stats.SlowRegions[cause]++
	if o := r.obs; o != nil {
		o.SlowEnter(t.ID, t.Clock, cause.String())
	}
}

func (c *threadCtx) clearLoopIters() {
	for _, s := range c.iterTouched {
		c.iterInTx[s] = 0
	}
	c.iterTouched = c.iterTouched[:0]
}

// Atomic handles an atomic read-modify-write: a synchronization operation,
// tracked on both paths like every other sync (§5). Instrumentation has
// already cut the region around it, so no transaction is open here.
func (r *TxRace) Atomic(t *sim.Thread, m *sim.AtomicRMW, addr memmodel.Addr) {
	c := r.tctx(t)
	if c.mode == ModeNone && !r.multithreaded() {
		return
	}
	r.chargeFast(t, r.slow.eng.Config().Cost.FastSyncHook)
	// The atomic still participates in HTM conflict detection (coherence
	// traffic) like any access.
	r.hw.Access(t.ID, addr, true)
	detect.AtomicOp(r.slow.det, clock.TID(t.ID), addr, m.Site)
}

// Access handles one memory access according to the thread's mode. All
// accesses participate in HTM conflict detection (hardware tracks every
// byte a transaction touches, hooked or not, and strong isolation makes
// non-transactional accesses conflict too); only hooked accesses reach the
// software detector on the slow path.
func (r *TxRace) Access(t *sim.Thread, m *sim.MemAccess, addr memmodel.Addr) {
	c := r.tctx(t)
	switch c.mode {
	case ModeNone:
		return
	case ModeFast, ModeIdle:
		r.hw.Access(t.ID, addr, m.Write)
	case ModeSlow:
		// Strong isolation: this non-transactional access aborts any
		// conflicting in-flight transaction (Fig. 5's fast/slow mixed
		// detection — in the one direction the hardware supports).
		r.hw.Access(t.ID, addr, m.Write)
		if c.hasTarget && memmodel.LineOf(addr) != c.targetLine {
			// Targeted slow path: off-line accesses skip the detector.
			return
		}
		if m.Hooked {
			hc := accessHookCost(r.slow.eng, r.slow.SlowScale)
			r.slow.eng.Charge(t, hc)
			r.attributeSlow(c, hc)
			r.slow.det.Access(clock.TID(t.ID), addr, m.Write, m.Site)
		}
	}
}

// attributeSlow adds hook cycles to the Fig. 7 bucket for the current
// slow-region cause. (For abort-caused regions the whole re-execution time
// is attributed at TxEndMark; hook cycles are folded in there, so this
// only needs to handle causes that do not re-execute.)
func (r *TxRace) attributeSlow(c *threadCtx, cycles int64) {
	switch c.slowCause {
	case CauseSmall, CauseNoHW:
		r.stats.CyclesSmall += cycles
	case CauseGovernor:
		r.stats.CyclesGovernor += cycles
	}
}

// SyscallEvent fires for every system call. Instrumentation cuts
// transactions around every syscall it knows about, so reaching here in
// ModeFast means a *hidden* syscall (the paper's misprofiled third-party
// library case, §7): the privilege-level change aborts the transaction with
// an unknown status.
func (r *TxRace) SyscallEvent(t *sim.Thread, sc *sim.Syscall) {
	c := r.tctx(t)
	if c.mode == ModeFast {
		c.attribSyscall = true // the runtime itself dooms the transaction here
		r.hw.InjectInterrupt(t.ID)
	}
	if f := r.opts.Fault; f != nil && f.AtSyscall(t.ID, t.Clock) {
		// Injected abort clustering (fault.SyscallCluster): the privilege-
		// level change dooms every open transaction machine-wide, modelling
		// an interrupt storm around the syscall, not just the caller's own
		// transaction.
		for tid := range r.ctx {
			if oc := &r.ctx[tid]; oc.mode == ModeFast {
				oc.attribFault = true
				r.hw.InjectInterrupt(tid)
			}
		}
	}
}

// Interrupt delivers a timer interrupt / context switch: an open transaction
// aborts, usually with an unknown status, occasionally retry-only.
func (r *TxRace) Interrupt(t *sim.Thread) {
	c := r.tctx(t)
	if c.mode != ModeFast {
		return
	}
	if r.opts.RetryOnlyFraction > 0 && t.RNG.Bool(r.opts.RetryOnlyFraction) {
		r.hw.InjectAbort(t.ID, htm.StatusRetry)
		return
	}
	r.hw.InjectInterrupt(t.ID)
}

// PreStep is the abort-delivery point: a transaction doomed by a remote
// access or interrupt takes effect before the thread's next instruction.
func (r *TxRace) PreStep(t *sim.Thread) {
	c := r.tctx(t)
	if c.mode != ModeFast {
		return
	}
	if _, ok := r.hw.Pending(t.ID); !ok {
		return
	}
	st := r.hw.Resolve(t.ID)
	r.handleAbort(t, c, st)
}

// classifyAbort maps one delivered abort to its attribution-ledger cause,
// one level finer than the §4.2 policy's view: fault-injected dooms and
// hidden-syscall interrupts are split out of the status word's buckets. It
// consumes the per-thread markers, so call it exactly once per abort (and
// only when a ledger is attached — it is observability, not policy).
func (r *TxRace) classifyAbort(t *sim.Thread, c *threadCtx, st htm.Status) obs.AbortCause {
	injected := r.opts.Fault.ConsumeMark(t.ID)
	clusterHit := c.attribFault
	ownSyscall := c.attribSyscall
	c.attribFault, c.attribSyscall = false, false
	switch {
	case injected:
		return obs.AbortFault
	case ownSyscall && st == 0:
		return obs.AbortSyscall
	case clusterHit:
		return obs.AbortFault
	case st.Is(htm.StatusConflict):
		return obs.AbortConflict
	case st.Is(htm.StatusCapacity):
		return obs.AbortCapacity
	default:
		return obs.AbortUnknown
	}
}

// handleAbort implements the §4.2 policy table.
func (r *TxRace) handleAbort(t *sim.Thread, c *threadCtx, st htm.Status) {
	cost := r.slow.eng.Config().Cost
	attempt := t.Clock - c.clockAtBegin
	r.slow.eng.ChargeAs(t, cost.AbortPenalty, obs.PhaseAbort)
	wasted := t.Clock - c.clockAtBegin

	var ac obs.AbortCause
	if r.led != nil {
		// The attempt's cycles were billed live as fast-path execution; the
		// abort reveals them as discarded work.
		r.led.Move(t.ID, obs.PhaseFast, obs.PhaseAbort, attempt)
		ac = r.classifyAbort(t, c, st)
		r.led.Abort(t.ID, ac, wasted)
	}

	var cause Cause
	artificial := false
	switch {
	case st.Is(htm.StatusConflict):
		// Conflict (or conflict+retry, treated as conflict per §4.2).
		r.stats.ConflictAborts++
		cause = CauseConflict
		if r.opts.TargetedSlowPath {
			if line, ok := r.hw.ConflictLine(t.ID); ok {
				if memmodel.LineBase(line) == r.txFail || memmodel.LineOf(r.txFail) == line {
					// Artificial abort: the hardware address is TxFail
					// itself; the initiator published the real line.
					c.targetLine, c.hasTarget = r.episodeLine, r.hasEpisodeLine
				} else {
					c.targetLine, c.hasTarget = line, true
				}
			}
		}
		if r.opts.DisableTxFail {
			// Ablation: no artificial aborts; partners keep running.
		} else if c.genAtBegin == r.txFailGen {
			// First abort of this episode: write TxFail. Strong isolation
			// plus every transaction's prologue read of TxFail aborts all
			// concurrent in-flight transactions (§3 steps 3–4).
			r.txFailGen++
			r.episodeLine, r.hasEpisodeLine = c.targetLine, c.hasTarget
			r.slow.eng.ChargeAs(t, cost.TxFailWrite, obs.PhaseAbort)
			r.hw.Access(t.ID, r.txFail, true)
			if o := r.obs; o != nil {
				if r.episodeOpen {
					// The previous initiator is still re-executing; close its
					// episode at the hand-off to the new one.
					o.TxFailEnd(r.episodeTid, t.Clock, t.Clock-r.episodeStart)
				}
				r.episodeTid, r.episodeStart, r.episodeOpen = t.ID, t.Clock, true
				o.TxFailBegin(t.ID, t.Clock, r.txFailGen)
			}
		} else {
			// Artificially aborted by another thread's TxFail write.
			r.stats.ArtificialAborts++
			artificial = true
		}
	case st.Is(htm.StatusCapacity):
		r.stats.CapacityAborts++
		cause = CauseCapacity
		r.noteCapacityAbort(c)
	case st == 0:
		// Unknown status: §4.2 falls back immediately; the governor may
		// spend its separate unknown-retry budget first, softening the
		// interrupt storms fault plans cluster at syscalls.
		if g := &r.opts.Governor; g.Enabled && c.unknownRetries < g.UnknownRetryBudget {
			c.unknownRetries++
			r.stats.UnknownRetries++
			r.retryFast(t, c, c.unknownRetries, wasted)
			return
		}
		r.stats.UnknownAborts++
		cause = CauseUnknown
	case st.Is(htm.StatusRetry):
		// Pure retry status: retry the transaction on the fast path within
		// budget (§4.2 "Retry").
		if c.retries < r.opts.RetryBudget {
			c.retries++
			r.stats.Retries++
			r.retryFast(t, c, c.retries, wasted)
			return
		}
		r.stats.UnknownAborts++
		cause = CauseUnknown
	default:
		// Debug/nested cannot arise from our instrumentation (§4.2); treat
		// defensively as unknown so progress is guaranteed.
		r.stats.UnknownAborts++
		cause = CauseUnknown
	}

	c.retries = 0
	c.unknownRetries = 0
	c.mode = ModeSlow
	c.slowCause = cause
	c.attribCause = ac
	t.Phase = obs.PhaseSlow
	r.stats.SlowRegions[cause]++
	r.slow.eng.Restore(t, &c.snap)
	c.slowStart = t.Clock
	// The wasted attempt is part of this cause's overhead.
	r.addCauseCycles(cause, wasted+cost.AbortPenalty)
	r.governorAbort(t, c)
	if o := r.obs; o != nil {
		o.TxAbort(t.ID, t.Clock, uint32(st), cause.String(), wasted, artificial)
		o.SlowEnter(t.ID, c.slowStart, cause.String())
	}
}

// retryFast re-executes the region on the fast path after a retryable
// abort; attempt is 1-based within its budget. Under the governor each
// attempt first stalls for an exponentially growing backoff, so a retry
// storm cannot spin through its budget at full speed.
func (r *TxRace) retryFast(t *sim.Thread, c *threadCtx, attempt int, wasted int64) {
	r.stats.CyclesFastPath += wasted
	// Until the re-executed TxBegin reopens a transaction, the thread is in
	// abort handling (the backoff below, plus any interrupt delivered before
	// the begin re-executes).
	t.Phase = obs.PhaseAbort
	if g := &r.opts.Governor; g.Enabled {
		r.slow.eng.ChargeAs(t, g.backoffCost(attempt), obs.PhaseAbort)
	}
	if o := r.obs; o != nil {
		o.TxRetry(t.ID, t.Clock, attempt)
	}
	c.mode = ModeIdle
	r.slow.eng.Restore(t, &c.snap) // re-executes TxBegin → new transaction
}

func (r *TxRace) addCauseCycles(cause Cause, cycles int64) {
	switch cause {
	case CauseConflict:
		r.stats.CyclesConflict += cycles
	case CauseCapacity:
		r.stats.CyclesCapacity += cycles
	case CauseUnknown:
		r.stats.CyclesUnknown += cycles
	}
}

// noteCapacityAbort attributes a capacity abort to the innermost loop whose
// LoopCheck executed most recently inside the transaction — the simulator's
// stand-in for Last Branch Record profiling (§4.3) — and adjusts the
// loop-cut threshold downward (commit raises it, abort lowers it).
func (r *TxRace) noteCapacityAbort(c *threadCtx) {
	if r.opts.LoopCut == NoCut || !c.hasLastLoop {
		return
	}
	id := c.lastLoop
	if s, _ := r.loopSlot(id); !r.cutActive[s] {
		r.cutActive[s] = true
		if _, ok := r.thresholds[id]; !ok {
			r.thresholds[id] = 2 // DynLoopcut's small initial estimate
		}
		return
	}
	// Threshold adaptation, scaled: the paper adjusts by ±1 per event; at
	// this simulator's run lengths (hundreds of loop executions rather than
	// millions) proportional steps reproduce the same walk-to-the-boundary
	// dynamics — climb slowly on commits, back off harder on aborts.
	if th := r.thresholds[id]; th > 1 {
		r.thresholds[id] = max(1, th-max(1, th/4))
	}
}

// LoopCheckMark fires at the end of each cut-candidate loop body iteration.
// On the fast path it both records abort-attribution state and, when the
// loop's threshold is reached, splits the transaction (commit + begin) to
// preempt a capacity abort.
func (r *TxRace) LoopCheckMark(t *sim.Thread, m *sim.LoopCheck) {
	c := r.tctx(t)
	if c.mode != ModeFast {
		return
	}
	c.lastLoop, c.hasLastLoop = m.ID, true
	if r.opts.LoopCut == NoCut {
		return
	}
	s, _ := r.loopSlot(m.ID)
	if c.iterInTx[s] == 0 {
		c.iterTouched = append(c.iterTouched, int32(s))
	}
	c.iterInTx[s]++
	if !r.cutActive[s] {
		return
	}
	th := r.thresholds[m.ID]
	if th <= 0 || c.iterInTx[s] < th {
		return
	}
	// Cut: end the transaction here and start a new one, moving the
	// rollback point to this loop iteration.
	st, ok := r.hw.Commit(t.ID)
	r.chargeFast(t, r.slow.eng.Config().Cost.XEnd)
	if !ok {
		r.handleAbort(t, c, st)
		return
	}
	r.stats.CommittedTxns++
	r.stats.LoopCuts++
	r.governorCommit(t, c)
	if o := r.obs; o != nil {
		o.TxCommit(t.ID, t.Clock, t.Clock-c.clockAtBegin)
		o.LoopCut(t.ID, t.Clock, uint32(m.ID), th)
	}
	// A successful cut commit raises the estimate (§4.3) — proportional
	// step, matching the scaled adaptation in noteCapacityAbort.
	if th := r.thresholds[m.ID]; th < 1<<20 {
		r.thresholds[m.ID] = th + max(1, th/32)
	}
	r.beginTxn(t, c)
}

// TxEndMark closes the current region: commit on the fast path, switch back
// to the fast path after a slow region (§3: "TxRace switches back to the
// fast path ... for the next program regions").
func (r *TxRace) TxEndMark(t *sim.Thread, m *sim.TxEnd) {
	c := r.tctx(t)
	switch c.mode {
	case ModeNone:
		c.mode = ModeIdle
		if !r.multithreaded() {
			c.mode = ModeNone
		}
		t.Phase = obs.PhaseApp
		return
	case ModeIdle:
		return
	case ModeSlow:
		if c.slowCause == CauseConflict || c.slowCause == CauseCapacity || c.slowCause == CauseUnknown {
			// The whole re-execution is overhead attributable to the abort.
			r.addCauseCycles(c.slowCause, t.Clock-c.slowStart)
			// Same in the attribution ledger, under the finer-grained cause
			// classified at the abort (no new abort is counted).
			r.led.AddAbortCycles(t.ID, c.attribCause, t.Clock-c.slowStart)
		}
		if o := r.obs; o != nil {
			o.SlowExit(t.ID, t.Clock, c.slowCause.String(), t.Clock-c.slowStart)
			if r.episodeOpen && r.episodeTid == t.ID && c.slowCause == CauseConflict {
				// The TxFail episode ends when its initiator finishes the
				// slow-path re-execution.
				o.TxFailEnd(t.ID, t.Clock, t.Clock-r.episodeStart)
				r.episodeOpen = false
			}
		}
		c.slowCause = CauseNone
		c.hasTarget = false
		c.mode = ModeIdle
		t.Phase = obs.PhaseApp
		return
	case ModeFast:
		cost := r.slow.eng.Config().Cost
		st, ok := r.hw.Commit(t.ID)
		r.chargeFast(t, cost.XEnd)
		if !ok {
			r.handleAbort(t, c, st)
			return
		}
		r.stats.CommittedTxns++
		r.governorCommit(t, c)
		if o := r.obs; o != nil {
			o.TxCommit(t.ID, t.Clock, t.Clock-c.clockAtBegin)
		}
		c.retries = 0
		c.unknownRetries = 0
		c.mode = ModeIdle
		t.Phase = obs.PhaseApp
	}
}

// ThreadExit releases any open state (a transaction cannot be open here —
// instrumentation places a TxEnd at thread exit — but be defensive).
func (r *TxRace) ThreadExit(t *sim.Thread) {
	c := r.tctx(t)
	if c.mode == ModeFast && r.hw.InTxn(t.ID) {
		r.hw.AbortExplicit(t.ID, 0xff)
		if _, ok := r.hw.Pending(t.ID); ok {
			r.hw.Resolve(t.ID)
		}
		// Discard any injector mark left by a doom that never reached
		// handleAbort, so it cannot misattribute a later thread's abort.
		r.opts.Fault.ConsumeMark(t.ID)
	}
	c.mode = ModeNone
	t.Phase = obs.PhaseApp
}

// FaultStats returns the attached injector's per-kind injected counts
// (zero when no fault plan is attached).
func (r *TxRace) FaultStats() fault.Stats { return r.opts.Fault.Stats() }

// Finish folds the slow-path detector's stats (TSan.Finish), the HTM
// conflict directory's counters, and the fault injector's per-kind counts
// into the metrics registry.
func (r *TxRace) Finish(e *sim.Engine) {
	r.slow.Finish(e)
	d := r.hw.BackendStats()
	e.Config().Obs.HTMDirStats(d.Lines, d.Checks, d.Fastpath)
	e.Config().Obs.HTMBackendStats(r.hw.Backend(), d.TagRecycled, d.TagFalse, d.Overflows)
	if f := r.opts.Fault; f != nil {
		fs := f.Stats()
		e.Config().Obs.FaultStats(
			fs.Of(fault.Unknown), fs.Of(fault.RetryStorm), fs.Of(fault.CapacityBurst),
			fs.Of(fault.DoomedLine), fs.Of(fault.CommitAbort), fs.Of(fault.SyscallCluster))
	}
}
