// Package obs is the runtime's observability layer: a structured event
// tracer plus a metrics registry, designed to cost a single nil-check when
// disabled. The TxRace runtime (internal/core), the HTM model (internal/htm)
// and the scheduler (internal/sim) emit lifecycle events — transaction
// begin/commit/abort with the full RTM status word, TxFail global-abort
// episodes, slow-path region entry/exit with cause, loop-cut decisions,
// scheduler preemptions — stamped with simulated cycle time and thread id.
//
// An Observer fans each event out to an optional Sink (the ring-buffered
// Tracer by default) and to a Metrics registry of counters, gauges and
// log-scaled histograms. Exporters turn a captured event stream into Chrome
// trace_event JSON (chrome.go, loadable in chrome://tracing or Perfetto) or
// a human-readable per-thread timeline (timeline.go).
//
// The package deliberately depends on nothing above the standard library
// (and internal/report for text rendering), so every layer of the system can
// import it without cycles.
package obs

import "strconv"

// Kind classifies one traced event.
type Kind uint8

// Event kinds. Duration pairs (TxBegin/TxCommit-or-TxAbort, SlowEnter/
// SlowExit, TxFailBegin/TxFailEnd) become spans in the Chrome exporter;
// the rest render as instants.
const (
	KindNone Kind = iota
	// KindTxBegin: a hardware transaction opened on this thread.
	KindTxBegin
	// KindTxCommit: the open transaction committed; Arg is its length in
	// cycles.
	KindTxCommit
	// KindTxAbort: the open transaction aborted; Status is the raw RTM
	// status word, Cause the runtime's slow-path cause, Arg the wasted
	// cycles of the discarded attempt.
	KindTxAbort
	// KindTxRetry: a pure-retry abort re-ran on the fast path; Arg is the
	// attempt number.
	KindTxRetry
	// KindTxFailBegin: this thread wrote the TxFail flag, opening a
	// global-abort episode; Arg is the episode generation.
	KindTxFailBegin
	// KindTxFailEnd: the episode's initiating thread finished its slow-path
	// re-execution; Arg is the episode duration in cycles.
	KindTxFailEnd
	// KindSlowEnter: the thread entered a software-monitored slow region;
	// Cause says why (conflict, capacity, unknown, small, nohw).
	KindSlowEnter
	// KindSlowExit: the slow region ended; Arg is its duration in cycles.
	KindSlowExit
	// KindLoopCut: the loop-cut optimization split a transaction at loop
	// Loop; Arg is the threshold that triggered the cut.
	KindLoopCut
	// KindInterrupt: a timer interrupt / context switch hit the thread.
	KindInterrupt
	// KindThreadStart and KindThreadExit bracket a simulated thread's life.
	KindThreadStart
	KindThreadExit
	// KindHTMConflict: the machine doomed TID's transaction on a line
	// conflict; Line is the conflicting line and Arg the winning thread.
	KindHTMConflict
	// KindGovernor: the fallback governor changed state for TID; Cause is
	// the transition label ("degrade", "probe", "recover", "global",
	// "global-end") and Arg the probe interval where applicable.
	KindGovernor
)

func (k Kind) String() string {
	switch k {
	case KindTxBegin:
		return "tx-begin"
	case KindTxCommit:
		return "tx-commit"
	case KindTxAbort:
		return "tx-abort"
	case KindTxRetry:
		return "tx-retry"
	case KindTxFailBegin:
		return "txfail-begin"
	case KindTxFailEnd:
		return "txfail-end"
	case KindSlowEnter:
		return "slow-enter"
	case KindSlowExit:
		return "slow-exit"
	case KindLoopCut:
		return "loop-cut"
	case KindInterrupt:
		return "interrupt"
	case KindThreadStart:
		return "thread-start"
	case KindThreadExit:
		return "thread-exit"
	case KindHTMConflict:
		return "htm-conflict"
	case KindGovernor:
		return "governor"
	default:
		return "event"
	}
}

// Event is one structured trace record. Fields beyond Kind, TID and Time are
// kind-specific; unused ones are zero. Cause values are the runtime's cause
// labels ("conflict", "capacity", "unknown", "small", "nohw") — constant
// strings, so recording one allocates nothing.
type Event struct {
	Kind   Kind
	TID    int32
	Time   int64  // simulated cycle at which the event occurred
	Status uint32 // raw RTM status word (abort events)
	Loop   uint32 // loop id (loop-cut events)
	Line   uint64 // conflicting line (HTM conflict events)
	Cause  string // slow-path cause label
	Arg    int64  // kind-specific payload (durations, counts, winner tid)
}

// Sink consumes the event stream. Emit is called from simulator hot paths;
// implementations must not retain the Event beyond the call unless they copy
// it (the struct is plain data, so assignment copies).
type Sink interface {
	Emit(ev Event)
}

// StatusString renders a raw RTM status word the way internal/htm does: the
// set bits joined with "|", or "unknown" for the all-zero word Haswell
// reports on interrupts and other unexplained aborts.
func StatusString(s uint32) string {
	if s == 0 {
		return "unknown"
	}
	out := ""
	add := func(c string) {
		if out != "" {
			out += "|"
		}
		out += c
	}
	if s&(1<<0) != 0 {
		add("explicit(" + strconv.Itoa(int(s>>24)) + ")")
	}
	if s&(1<<1) != 0 {
		add("retry")
	}
	if s&(1<<2) != 0 {
		add("conflict")
	}
	if s&(1<<3) != 0 {
		add("capacity")
	}
	if s&(1<<4) != 0 {
		add("debug")
	}
	if s&(1<<5) != 0 {
		add("nested")
	}
	return out
}

// Observer is the handle the runtimes hold: typed emit helpers that feed
// both the trace sink and the metrics registry. A nil *Observer is the
// disabled state — instrumented code guards every call with one nil-check,
// so a run without observability pays a single predictable branch per hook.
type Observer struct {
	trace   Sink
	metrics *Metrics
	ledger  *Ledger

	// Pre-registered instruments so hot-path updates are pointer bumps,
	// never map lookups or string concatenation.
	cTxBegin, cTxCommit, cTxRetry, cLoopCut           *Counter
	cAbortConflict, cAbortCapacity, cAbortUnknown     *Counter
	cAbortArtificial                                  *Counter
	cSlowConflict, cSlowCapacity, cSlowUnknown        *Counter
	cSlowSmall, cSlowNoHW, cSlowGovernor              *Counter
	cTxFail, cInterrupts, cThreadStart, cThreadExit   *Counter
	cHTMBegin, cHTMCommit                             *Counter
	cHTMConflict, cHTMCapacity, cHTMUnknown, cHTMExpl *Counter
	cShadowPages, cShadowCellPages                    *Counter
	cVCPoolHit, cVCPoolMiss                           *Counter
	cClockPromote, cClockCollapse, cClockFallback     *Counter
	cDirLines, cDirChecks, cDirFastpath               *Counter
	cTagRecycled, cTagFalse, cBoundedOverflow         *Counter
	cGovForced, cGovTrips, cGovGlobal                 *Counter
	cFaultUnknown, cFaultRetry, cFaultCapacity        *Counter
	cFaultDoomed, cFaultCommit, cFaultSyscall         *Counter
	cTraceDropped                                     *Counter
	gThreadsLive, gTxActive, gGovState                *Gauge
	hTxnCycles, hAbortWasted, hSlowCycles, hEpisode   *Histogram
}

// New returns an Observer writing events to trace (may be nil: metrics only)
// and instrument updates to m (nil allocates a private registry, for callers
// that only want the event stream).
func New(trace Sink, m *Metrics) *Observer {
	if m == nil {
		m = NewMetrics()
	}
	return &Observer{
		trace:   trace,
		metrics: m,

		cTxBegin:         m.Counter("txn.begin"),
		cTxCommit:        m.Counter("txn.commit"),
		cTxRetry:         m.Counter("txn.retry"),
		cLoopCut:         m.Counter("txn.loopcut"),
		cAbortConflict:   m.Counter("txn.abort.conflict"),
		cAbortCapacity:   m.Counter("txn.abort.capacity"),
		cAbortUnknown:    m.Counter("txn.abort.unknown"),
		cAbortArtificial: m.Counter("txn.abort.artificial"),
		cSlowConflict:    m.Counter("slow.region.conflict"),
		cSlowCapacity:    m.Counter("slow.region.capacity"),
		cSlowUnknown:     m.Counter("slow.region.unknown"),
		cSlowSmall:       m.Counter("slow.region.small"),
		cSlowNoHW:        m.Counter("slow.region.nohw"),
		cSlowGovernor:    m.Counter("slow.region.governor"),
		cTxFail:          m.Counter("txfail.episodes"),
		cInterrupts:      m.Counter("sched.interrupts"),
		cThreadStart:     m.Counter("threads.started"),
		cThreadExit:      m.Counter("threads.exited"),
		cHTMBegin:        m.Counter("htm.begin"),
		cHTMCommit:       m.Counter("htm.commit"),
		cHTMConflict:     m.Counter("htm.abort.conflict"),
		cHTMCapacity:     m.Counter("htm.abort.capacity"),
		cHTMUnknown:      m.Counter("htm.abort.unknown"),
		cHTMExpl:         m.Counter("htm.abort.explicit"),
		cShadowPages:     m.Counter("shadow.pages"),
		cShadowCellPages: m.Counter("shadow.cellpages"),
		cVCPoolHit:       m.Counter("shadow.vcpool.hit"),
		cVCPoolMiss:      m.Counter("shadow.vcpool.miss"),
		cClockPromote:    m.Counter("clock.sparse.promotions"),
		cClockCollapse:   m.Counter("clock.sparse.collapses"),
		cClockFallback:   m.Counter("clock.sparse.fallbacks"),
		cDirLines:        m.Counter("htm.dir.lines"),
		cDirChecks:       m.Counter("htm.dir.checks"),
		cDirFastpath:     m.Counter("htm.dir.fastpath"),
		cTagRecycled:     m.Counter("htm.tag.recycled"),
		cTagFalse:        m.Counter("htm.tag.false"),
		cBoundedOverflow: m.Counter("htm.bounded.overflow"),
		cGovForced:       m.Counter("core.fallback.forced"),
		cGovTrips:        m.Counter("core.governor.trips"),
		cGovGlobal:       m.Counter("core.governor.global"),
		cFaultUnknown:    m.Counter("fault.injected.unknown"),
		cFaultRetry:      m.Counter("fault.injected.retry"),
		cFaultCapacity:   m.Counter("fault.injected.capacity"),
		cFaultDoomed:     m.Counter("fault.injected.doomed"),
		cFaultCommit:     m.Counter("fault.injected.commit"),
		cFaultSyscall:    m.Counter("fault.injected.syscall"),
		cTraceDropped:    m.Counter("obs.trace.dropped"),
		gThreadsLive:     m.Gauge("threads.live"),
		gTxActive:        m.Gauge("txn.active"),
		gGovState:        m.Gauge("core.governor.state"),
		hTxnCycles:       m.Histogram("txn.cycles"),
		hAbortWasted:     m.Histogram("txn.abort.wasted.cycles"),
		hSlowCycles:      m.Histogram("slow.region.cycles"),
		hEpisode:         m.Histogram("txfail.episode.cycles"),
	}
}

// Metrics returns the registry the observer updates.
func (o *Observer) Metrics() *Metrics { return o.metrics }

// AttachLedger enables cycle attribution: the simulator and runtimes will
// charge every virtual cycle to a per-thread phase ledger. Attach before the
// run starts; a nil receiver or nil ledger is a no-op.
func (o *Observer) AttachLedger(l *Ledger) {
	if o == nil {
		return
	}
	o.ledger = l
}

// Ledger returns the attached attribution ledger, or nil (the common case —
// attribution is opt-in). Nil-safe on the receiver, and the *Ledger nil case
// is itself a no-op for every ledger method, so callers can thread the
// result without guards.
func (o *Observer) Ledger() *Ledger {
	if o == nil {
		return nil
	}
	return o.ledger
}

// Fork returns a fresh Observer with a private registry, for one job of a
// parallel experiment plan. Forks deliberately carry no trace sink — a ring
// buffer interleaving events from concurrent independent runs would be
// nondeterministic and uninterpretable — so a fork records metrics only;
// Join folds them back into the parent. Fork of a nil Observer is nil, so
// unobserved plans cost nothing.
func (o *Observer) Fork() *Observer {
	if o == nil {
		return nil
	}
	child := New(nil, nil)
	if o.ledger != nil {
		child.ledger = NewLedger()
	}
	return child
}

// Join merges a fork's metrics into this observer's registry. Joining the
// same forks in the same order always produces the same totals (see
// Metrics.Merge). Nil receivers and nil children are no-ops.
func (o *Observer) Join(child *Observer) {
	if o == nil || child == nil {
		return
	}
	o.metrics.Merge(child.metrics)
	o.ledger.Merge(child.ledger)
}

func (o *Observer) emit(ev Event) {
	if o.trace != nil {
		o.trace.Emit(ev)
	}
}

// TxBegin records a hardware transaction opening on tid at cycle now.
func (o *Observer) TxBegin(tid int, now int64) {
	o.cTxBegin.Inc()
	o.gTxActive.Add(1)
	o.emit(Event{Kind: KindTxBegin, TID: int32(tid), Time: now})
}

// TxCommit records a successful commit; length is the transaction's cycles.
func (o *Observer) TxCommit(tid int, now, length int64) {
	o.cTxCommit.Inc()
	o.gTxActive.Add(-1)
	o.hTxnCycles.Observe(length)
	o.emit(Event{Kind: KindTxCommit, TID: int32(tid), Time: now, Arg: length})
}

// TxAbort records an abort that sends tid to the slow path. status is the
// raw RTM word, cause the runtime's attribution, wasted the discarded
// cycles, artificial whether the abort was TxFail-induced.
func (o *Observer) TxAbort(tid int, now int64, status uint32, cause string, wasted int64, artificial bool) {
	switch cause {
	case "conflict":
		o.cAbortConflict.Inc()
	case "capacity":
		o.cAbortCapacity.Inc()
	default:
		o.cAbortUnknown.Inc()
	}
	if artificial {
		o.cAbortArtificial.Inc()
	}
	o.gTxActive.Add(-1)
	o.hAbortWasted.Observe(wasted)
	o.emit(Event{Kind: KindTxAbort, TID: int32(tid), Time: now, Status: status, Cause: cause, Arg: wasted})
}

// TxRetry records a pure-retry abort re-running on the fast path.
func (o *Observer) TxRetry(tid int, now int64, attempt int) {
	o.cTxRetry.Inc()
	o.gTxActive.Add(-1)
	o.emit(Event{Kind: KindTxRetry, TID: int32(tid), Time: now, Arg: int64(attempt)})
}

// TxFailBegin records tid writing the TxFail flag, opening episode gen.
func (o *Observer) TxFailBegin(tid int, now int64, gen uint64) {
	o.cTxFail.Inc()
	o.emit(Event{Kind: KindTxFailBegin, TID: int32(tid), Time: now, Arg: int64(gen)})
}

// TxFailEnd records the end of the episode tid initiated, dur cycles long.
func (o *Observer) TxFailEnd(tid int, now, dur int64) {
	o.hEpisode.Observe(dur)
	o.emit(Event{Kind: KindTxFailEnd, TID: int32(tid), Time: now, Arg: dur})
}

// SlowEnter records tid entering a software-monitored region for cause.
func (o *Observer) SlowEnter(tid int, now int64, cause string) {
	switch cause {
	case "conflict":
		o.cSlowConflict.Inc()
	case "capacity":
		o.cSlowCapacity.Inc()
	case "small":
		o.cSlowSmall.Inc()
	case "nohw":
		o.cSlowNoHW.Inc()
	case "governor":
		o.cSlowGovernor.Inc()
	default:
		o.cSlowUnknown.Inc()
	}
	o.emit(Event{Kind: KindSlowEnter, TID: int32(tid), Time: now, Cause: cause})
}

// SlowExit records the end of tid's slow region, dur cycles after entry.
func (o *Observer) SlowExit(tid int, now int64, cause string, dur int64) {
	o.hSlowCycles.Observe(dur)
	o.emit(Event{Kind: KindSlowExit, TID: int32(tid), Time: now, Cause: cause, Arg: dur})
}

// LoopCut records a transaction split at loop with the given threshold.
func (o *Observer) LoopCut(tid int, now int64, loop uint32, threshold int) {
	o.cLoopCut.Inc()
	o.emit(Event{Kind: KindLoopCut, TID: int32(tid), Time: now, Loop: loop, Arg: int64(threshold)})
}

// Interrupt records a scheduler preemption delivered to tid.
func (o *Observer) Interrupt(tid int, now int64) {
	o.cInterrupts.Inc()
	o.emit(Event{Kind: KindInterrupt, TID: int32(tid), Time: now})
}

// ThreadStart records a simulated thread beginning execution.
func (o *Observer) ThreadStart(tid int, now int64) {
	o.cThreadStart.Inc()
	o.gThreadsLive.Add(1)
	o.emit(Event{Kind: KindThreadStart, TID: int32(tid), Time: now})
}

// ThreadExit records a simulated thread finishing.
func (o *Observer) ThreadExit(tid int, now int64) {
	o.cThreadExit.Inc()
	o.gThreadsLive.Add(-1)
	o.emit(Event{Kind: KindThreadExit, TID: int32(tid), Time: now})
}

// HTMBegin counts a machine-level transaction open.
func (o *Observer) HTMBegin() { o.cHTMBegin.Inc() }

// HTMCommit counts a machine-level commit.
func (o *Observer) HTMCommit() { o.cHTMCommit.Inc() }

// HTMAbort counts a machine-level doom, classified by the status word with
// the same precedence the machine's own counters use.
func (o *Observer) HTMAbort(status uint32) {
	switch {
	case status&(1<<2) != 0:
		o.cHTMConflict.Inc()
	case status&(1<<3) != 0:
		o.cHTMCapacity.Inc()
	case status&(1<<0) != 0:
		o.cHTMExpl.Inc()
	case status == 0:
		o.cHTMUnknown.Inc()
	}
}

// HTMConflict records the machine dooming loser's transaction on line; the
// requesting (winning) agent is winner. now may be 0 when no clock source
// was attached.
func (o *Observer) HTMConflict(loser int, now int64, line uint64, winner int) {
	o.emit(Event{Kind: KindHTMConflict, TID: int32(loser), Time: now, Line: line, Arg: int64(winner)})
}

// ShadowMemStats folds a detector's shadow-memory allocation counters into
// the registry. Runtimes call it once per run at Finish, so the detector hot
// path carries no observability cost; pool hit rate = hit / (hit + miss).
func (o *Observer) ShadowMemStats(pages, poolHits, poolMisses uint64) {
	if o == nil {
		return
	}
	o.cShadowPages.Add(pages)
	o.cVCPoolHit.Add(poolHits)
	o.cVCPoolMiss.Add(poolMisses)
}

// ClockSparseStats folds a detector's clock-representation counters into
// the registry, once per run at Finish: sparse clocks promoted to dense,
// epoch-collapse rounds run, and joins that fell off the sparse fast path.
func (o *Observer) ClockSparseStats(promotions, collapses, fallbacks uint64) {
	if o == nil {
		return
	}
	o.cClockPromote.Add(promotions)
	o.cClockCollapse.Add(collapses)
	o.cClockFallback.Add(fallbacks)
}

// ShadowCellStats folds a bounded cell store's page-allocation counter into
// the registry, once per run at Finish.
func (o *Observer) ShadowCellStats(pages uint64) {
	if o == nil {
		return
	}
	o.cShadowCellPages.Add(pages)
}

// HTMDirStats folds the HTM conflict directory's counters into the registry
// (lines that acquired a first ownership claim, conflict-mask lookups,
// empty-machine fast-path hits), once per run at Finish.
func (o *Observer) HTMDirStats(lines, checks, fastpath uint64) {
	if o == nil {
		return
	}
	o.cDirLines.Add(lines)
	o.cDirChecks.Add(checks)
	o.cDirFastpath.Add(fastpath)
}

// HTMBackendStats records which conflict backend the run used
// (htm.backend.<name>, one increment per run) and folds in the
// backend-specific counters: tag-epoch recycling and aliased false conflicts
// for the tag backend, hard set-cap overflows for the bounded backend. The
// overflow counter is deliberately distinct from fault.injected.capacity so
// injected capacity bursts and real cap overflows stay attributable.
func (o *Observer) HTMBackendStats(name string, tagRecycled, tagFalse, boundedOverflow uint64) {
	if o == nil {
		return
	}
	if name != "" {
		o.metrics.Counter("htm.backend." + name).Add(1)
	}
	o.cTagRecycled.Add(tagRecycled)
	o.cTagFalse.Add(tagFalse)
	o.cBoundedOverflow.Add(boundedOverflow)
}

// GovernorForced counts one region the fallback governor forced onto the
// software slow path (core.fallback.forced). The region itself is also
// traced by the usual SlowEnter/SlowExit pair with cause "governor".
func (o *Observer) GovernorForced(tid int, now int64) {
	o.cGovForced.Inc()
}

// GovernorDegrade records the abort-rate tripwire degrading tid to the slow
// path; core.governor.state gauges the number of degraded threads.
func (o *Observer) GovernorDegrade(tid int, now int64) {
	o.cGovTrips.Inc()
	o.gGovState.Add(1)
	o.emit(Event{Kind: KindGovernor, TID: int32(tid), Time: now, Cause: "degrade"})
}

// GovernorProbe records a degraded thread re-attempting the fast path;
// interval is the probe interval (in regions) that elapsed.
func (o *Observer) GovernorProbe(tid int, now int64, interval int) {
	o.emit(Event{Kind: KindGovernor, TID: int32(tid), Time: now, Cause: "probe", Arg: int64(interval)})
}

// GovernorRecover records a successful probe returning tid to HTM mode.
func (o *Observer) GovernorRecover(tid int, now int64) {
	o.gGovState.Add(-1)
	o.emit(Event{Kind: KindGovernor, TID: int32(tid), Time: now, Cause: "recover"})
}

// GovernorGlobal records the whole-run tripwire engaging (every live worker
// degraded): regions run the slow path run-wide for Arg regions.
func (o *Observer) GovernorGlobal(tid int, now int64, regions int) {
	o.cGovGlobal.Inc()
	o.emit(Event{Kind: KindGovernor, TID: int32(tid), Time: now, Cause: "global", Arg: int64(regions)})
}

// GovernorGlobalEnd records the whole-run degradation window expiring.
func (o *Observer) GovernorGlobalEnd(tid int, now int64) {
	o.emit(Event{Kind: KindGovernor, TID: int32(tid), Time: now, Cause: "global-end"})
}

// TraceStats folds a tracer ring's drop count into the registry
// (obs.trace.dropped), once per run after the event stream is final. A
// non-zero value means the ring wrapped and the exported trace is the tail,
// not the whole run.
func (o *Observer) TraceStats(dropped uint64) {
	if o == nil {
		return
	}
	o.cTraceDropped.Add(dropped)
}

// FaultStats folds an injector's per-kind injected-fault counters into the
// registry (fault.injected.*), once per run at Finish.
func (o *Observer) FaultStats(unknown, retry, capacity, doomed, commit, syscall uint64) {
	if o == nil {
		return
	}
	o.cFaultUnknown.Add(unknown)
	o.cFaultRetry.Add(retry)
	o.cFaultCapacity.Add(capacity)
	o.cFaultDoomed.Add(doomed)
	o.cFaultCommit.Add(commit)
	o.cFaultSyscall.Add(syscall)
}
