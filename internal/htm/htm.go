// Package htm simulates a best-effort hardware transactional memory modelled
// on Intel's Restricted Transactional Memory (TSX RTM) as characterized in
// §2 of the paper. The properties the TxRace design depends on are all
// reproduced:
//
//   - Conflict detection at 64-byte cache-line granularity, piggybacked on
//     coherence: two different words on one line conflict (false sharing).
//   - Requester-wins resolution: the thread issuing the conflicting access
//     proceeds; every transaction it conflicts with is aborted.
//   - Strong isolation: non-transactional accesses participate in conflict
//     detection, aborting transactions they collide with. (This is what the
//     TxFail global-abort protocol and fast/slow mixed detection build on.)
//   - Bounded capacity: transactional footprints are tracked in
//     set-associative structures; evicting a transactional line aborts the
//     transaction with a capacity status.
//   - Asynchronous aborts: a transaction doomed by a remote access discovers
//     the abort at its next instruction boundary, and interrupts/context
//     switches abort with an *unknown* status (no bits set), as on Haswell.
//   - An abort reports a status word only — never the faulting address or
//     instruction, which is the first challenge (§2.2) TxRace works around.
//
// The machine is split along a seam: the HTM shell here owns the transaction
// lifecycle (Begin/Commit/Resolve, hardware-context slots, status words,
// stats, diagnostics, observability, fault injection), while conflict
// detection and footprint tracking live behind the ConflictBackend interface
// (backend.go). Three backends ship: the line-ownership directory
// (dirbackend.go, the default, with its O(n) reference scan retained), an
// HMTRace-style per-line owner-tag scheme (tagbackend.go), and a FORTH-style
// bounded read/write-set machine (boundedbackend.go).
//
// The one deliberate departure from silicon: Diagnostics retains the last
// conflict's line and threads so tests can assert the machinery, but it is
// explicitly unavailable to the TxRace runtime, mirroring real hardware.
package htm

import (
	"cmp"
	"fmt"
	"math/bits"

	"repro/internal/memmodel"
	"repro/internal/obs"
)

// Status is the RTM abort status word (the EAX layout of XBEGIN). A zero
// Status after an abort means the cause is unknown (§2.2 challenge 4).
type Status uint32

// Abort status bits, matching Intel's RTM encoding.
const (
	StatusExplicit Status = 1 << 0 // XABORT executed; code in bits 31:24
	StatusRetry    Status = 1 << 1 // the transaction may succeed on retry
	StatusConflict Status = 1 << 2 // memory conflict with another agent
	StatusCapacity Status = 1 << 3 // transactional footprint overflowed
	StatusDebug    Status = 1 << 4 // debug breakpoint hit
	StatusNested   Status = 1 << 5 // abort occurred in a nested transaction
)

// Is reports whether all bits in b are set.
func (s Status) Is(b Status) bool { return s&b == b }

// ExplicitCode extracts the XABORT immediate.
func (s Status) ExplicitCode() uint8 { return uint8(s >> 24) }

// WithCode attaches an XABORT immediate to an explicit status.
func (s Status) WithCode(code uint8) Status { return s | Status(uint32(code)<<24) }

func (s Status) String() string {
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
	if s.Is(StatusExplicit) {
		add(fmt.Sprintf("explicit(%d)", s.ExplicitCode()))
	}
	if s.Is(StatusRetry) {
		add("retry")
	}
	if s.Is(StatusConflict) {
		add("conflict")
	}
	if s.Is(StatusCapacity) {
		add("capacity")
	}
	if s.Is(StatusDebug) {
		add("debug")
	}
	if s.Is(StatusNested) {
		add("nested")
	}
	return out
}

// Config fixes the simulated machine's transactional resources.
type Config struct {
	// Write-set tracking: the L1 data cache. Haswell: 32 KiB, 8-way,
	// 64 sets — a transaction's store footprint must fit here. Zero means
	// DefaultConfig's value, as for the other geometry fields.
	WriteSets, WriteWays int
	// Read-set tracking is larger on real TSX (L2-assisted); modelled as a
	// bigger set-associative structure. Zero means DefaultConfig's value.
	ReadSets, ReadWays int
	// MaxConcurrent caps simultaneously open transactions, the
	// hardware-thread limit of §6 (4 cores, 8 with hyper-threading). Zero
	// means DefaultConfig's value.
	MaxConcurrent int
	// GranularityShift sets the conflict-detection granularity as a power
	// of two (log2 bytes). Zero means the cache-line default
	// (memmodel.LineShift = 6). Setting it to 3 (word granularity) models
	// the idealized HTM of the false-sharing ablation: conflicts only on
	// true word overlap, no false sharing.
	GranularityShift int
	// ResponderWins flips the conflict-resolution policy: instead of Intel
	// RTM's requester-wins (the paper's §2.1, after Bobba et al.'s
	// performance-pathologies taxonomy, their "eager/committed" designs),
	// the transaction that already holds the line survives and the
	// *requesting* transaction aborts. Non-transactional requesters cannot
	// be refused (strong isolation still dooms the holder). TxRace's TxFail
	// protocol was designed against requester-wins; the ablation shows what
	// changes under the other policy.
	ResponderWins bool
	// ExposeConflictAddress models the future hardware the paper's §9
	// closes on (after TxIntro): an HTM that reports the conflicting
	// address alongside the abort. Commodity RTM does not (§2.2 challenge
	// 1); with this enabled, ConflictLine returns the line that doomed a
	// conflict-aborted transaction, letting the runtime build a cheaper,
	// targeted slow path.
	ExposeConflictAddress bool
	// RefScan selects the dir backend's pre-directory reference resolver:
	// conflicts found by an O(active-transactions) scan probing every
	// context's set-associative read/write sets. The default (false)
	// resolves via the O(1) line-ownership directory. The two are
	// observationally identical (pinned by the package's differential
	// tests); the scan is kept for those tests and for before/after
	// benchmarks. Only meaningful with the dir backend.
	RefScan bool

	// Backend selects the conflict-detection backend: "dir" (the default,
	// also chosen by ""), "tag", or "bounded". See BackendNames.
	Backend string
	// TagEpochBits is the width of the per-slot epoch a line tag stores
	// (tag backend only). Real memory-tagging hardware has a handful of tag
	// bits; recycling a slot's epoch past 2^TagEpochBits makes stale tags
	// from long-dead transactions alias live ones — the backend's false
	// conflicts. Zero means the default of 8; valid range 1..32.
	TagEpochBits int
	// BoundedReadCap and BoundedWriteCap are the hard read/write-set entry
	// caps of the bounded backend: the FORTH-style deliberately small
	// tracking structures. Exceeding a cap dooms the transaction with
	// StatusCapacity. Zero means the defaults (16 read, 8 write).
	BoundedReadCap, BoundedWriteCap int
}

// DefaultConfig mirrors the paper's quad-core Haswell i7-4790.
func DefaultConfig() Config {
	return Config{
		WriteSets: 64, WriteWays: 8, // 512 lines = 32 KiB write set
		ReadSets: 512, ReadWays: 8, // 4096 lines = 256 KiB read set
		MaxConcurrent: 8,
	}
}

// ErrNoHardwareContext is returned by Begin when every hardware transaction
// slot is busy; the caller (TxRace) falls back to its slow path.
var ErrNoHardwareContext = fmt.Errorf("htm: no free hardware transaction context")

// Injector is the machine's fault-injection surface (internal/fault
// implements it). The machine consults it at exactly two opportunities, and
// only for a transaction that is active and not yet doomed:
//
//   - AtAccess: once per transactional access, before the access takes
//     effect. Returning ok dooms the transaction with the given status.
//   - AtCommit: when the transaction reaches its commit point. Returning ok
//     dooms it there, so Commit delivers the abort instead of committing.
//
// Because injection always targets an active, undoomed transaction, every
// injected fault leaves a pending abort behind — doom flips the transaction
// to (active, doomed), which is precisely the state Pending reports and
// Resolve requires. An injector therefore cannot trip the "Resolve without
// pending abort" invariant no matter where in the Begin..Commit window it
// fires; see TestInjectorPreservesResolveInvariant. The injector hooks live
// in the shell, above the backend seam, so injected behaviour is identical
// under every backend.
type Injector interface {
	AtAccess(tid int, now int64, line memmodel.Line, write bool) (Status, bool)
	AtCommit(tid int, now int64) (Status, bool)
}

type txn struct {
	active bool
	doomed bool
	// slot is the hardware-context index (0..MaxConcurrent-1) held while
	// the transaction occupies the machine: the bit position of its claims
	// in the backend's ownership structures. -1 when no context is held.
	slot   int
	status Status

	// conflictLine is the address unit that doomed this transaction, kept
	// only when Config.ExposeConflictAddress is set (future-HTM mode).
	conflictLine    memmodel.Line
	hasConflictLine bool
}

// HTM is the transactional machine shared by all simulated threads.
type HTM struct {
	cfg  Config
	txns []*txn

	// be is the conflict backend (footprint tracking + conflict tests);
	// dirbe is the same object when the default directory backend is
	// active, so the production hot path keeps a static call. slotTid maps
	// an occupied hardware-context slot back to its thread; freeSlots and
	// liveMask are slot bitmasks of, respectively, unoccupied contexts and
	// contexts running an undoomed transaction. liveMask == 0 is the
	// empty-machine fast path: no access can conflict and none is tracked.
	be         ConflictBackend
	dirbe      *dirBackend
	slotTid    [64]int
	freeSlots  uint64
	liveMask   uint64
	activeTxns int

	stats Stats
	diag  Diagnostics

	// obs mirrors the machine counters into a metrics registry and emits a
	// trace event per conflict doom; nil (the default) costs one branch per
	// site. now supplies a thread's simulated clock for event timestamps and
	// may be nil (events are then stamped 0).
	obs *obs.Observer
	now func(tid int) int64

	// inj is the optional fault injector; nil (the default) costs one
	// branch per access and per commit.
	inj Injector
}

// Stats counts machine-level transactional events.
type Stats struct {
	Begins         uint64
	Commits        uint64
	ConflictAborts uint64
	CapacityAborts uint64
	UnknownAborts  uint64
	ExplicitAborts uint64
}

// Diagnostics exposes the last conflict for tests and experiment plumbing.
// Real RTM provides none of this (§2.2 challenge 1); the TxRace runtime must
// never read it, and the runtime package does not.
type Diagnostics struct {
	LastConflictLine   memmodel.Line
	LastConflictWinner int
	LastConflictLoser  int
}

// New returns an HTM with the given configuration, each zero geometry field
// (sets, ways, MaxConcurrent) taking its DefaultConfig value. It panics on a
// configuration no machine could have: a negative or >64 context count, an
// unknown Backend name, or RefScan combined with a non-directory backend.
func New(cfg Config) *HTM {
	def := DefaultConfig()
	cfg.WriteSets = cmp.Or(cfg.WriteSets, def.WriteSets)
	cfg.WriteWays = cmp.Or(cfg.WriteWays, def.WriteWays)
	cfg.ReadSets = cmp.Or(cfg.ReadSets, def.ReadSets)
	cfg.ReadWays = cmp.Or(cfg.ReadWays, def.ReadWays)
	cfg.MaxConcurrent = cmp.Or(cfg.MaxConcurrent, def.MaxConcurrent)
	if cfg.MaxConcurrent <= 0 {
		panic("htm: MaxConcurrent must be positive")
	}
	if cfg.MaxConcurrent > 64 {
		// The ownership structures index hardware contexts as bits of a
		// uint64; no real HTM comes close to 64 simultaneous contexts.
		panic("htm: MaxConcurrent exceeds 64 hardware contexts")
	}
	if cfg.GranularityShift == 0 {
		cfg.GranularityShift = memmodel.LineShift
	}
	h := &HTM{cfg: cfg, freeSlots: ^uint64(0)}
	h.be = newBackend(h)
	if d, ok := h.be.(*dirBackend); ok {
		h.dirbe = d
	}
	return h
}

// Backend returns the active conflict backend's name ("dir", "tag",
// "bounded") — runtime Finish labels the folded metrics with it.
func (h *HTM) Backend() string { return h.be.name() }

// SetObserver attaches an observability sink to the machine. clock supplies
// the simulated time of a thread for trace timestamps; it may be nil.
func (h *HTM) SetObserver(o *obs.Observer, clock func(tid int) int64) {
	h.obs, h.now = o, clock
}

// SetClock attaches just the thread-clock source, for callers that need
// timestamped fault windows without observability attached.
func (h *HTM) SetClock(clock func(tid int) int64) { h.now = clock }

// SetInjector attaches a fault injector to the machine; nil detaches.
func (h *HTM) SetInjector(inj Injector) { h.inj = inj }

func (h *HTM) clockOf(tid int) int64 {
	if h.now == nil {
		return 0
	}
	return h.now(tid)
}

// lineOf maps an address to a conflict-detection unit at the configured
// granularity.
func (h *HTM) lineOf(a memmodel.Addr) memmodel.Line {
	return memmodel.Line(a >> h.cfg.GranularityShift)
}

func (h *HTM) txnOf(tid int) *txn {
	for tid >= len(h.txns) {
		h.txns = append(h.txns, nil)
	}
	if h.txns[tid] == nil {
		h.txns[tid] = &txn{slot: -1}
	}
	return h.txns[tid]
}

// Begin opens a transaction for tid, occupying a hardware-context slot. A
// nested Begin aborts the transaction with the nested status (delivered
// immediately).
func (h *HTM) Begin(tid int) (Status, error) {
	t := h.txnOf(tid)
	if t.active {
		h.doom(tid, StatusNested)
		return h.Resolve(tid), nil
	}
	if h.activeTxns >= h.cfg.MaxConcurrent {
		return 0, ErrNoHardwareContext
	}
	s := bits.TrailingZeros64(h.freeSlots)
	h.freeSlots &^= 1 << uint(s)
	h.slotTid[s] = tid
	h.liveMask |= 1 << uint(s)
	h.activeTxns++
	t.slot = s
	t.active = true
	t.doomed = false
	t.status = 0
	t.hasConflictLine = false
	h.be.begin(tid, s)
	h.stats.Begins++
	if h.obs != nil {
		h.obs.HTMBegin()
	}
	return 0, nil
}

// InTxn reports whether tid has an open (possibly doomed) transaction.
func (h *HTM) InTxn(tid int) bool {
	if tid >= len(h.txns) || h.txns[tid] == nil {
		return false
	}
	return h.txns[tid].active
}

// doom marks tid's transaction aborted. Its tracked footprint is released at
// once (the hardware restores cache state immediately), so a doomed
// transaction no longer conflicts with anyone.
func (h *HTM) doom(tid int, s Status) {
	t := h.txnOf(tid)
	if !t.active || t.doomed {
		return
	}
	t.doomed = true
	t.status = s
	t.hasConflictLine = false
	// The context stops being live immediately: its ownership claims are
	// withdrawn by the backend release below, and its liveMask bit clears so
	// it neither conflicts nor reactivates the fast path check. The slot
	// itself stays occupied until the abort is delivered (Resolve).
	h.liveMask &^= 1 << uint(t.slot)
	h.be.release(tid, t.slot)
	switch {
	case s.Is(StatusConflict):
		h.stats.ConflictAborts++
	case s.Is(StatusCapacity):
		h.stats.CapacityAborts++
	case s.Is(StatusExplicit):
		h.stats.ExplicitAborts++
	case s == 0:
		h.stats.UnknownAborts++
	}
	if h.obs != nil {
		h.obs.HTMAbort(uint32(s))
	}
}

// Pending returns the abort status awaiting delivery to tid, plus whether
// one exists. The runtime polls at instruction boundaries, modelling the
// asynchronous abort of real hardware.
func (h *HTM) Pending(tid int) (Status, bool) {
	if tid >= len(h.txns) || h.txns[tid] == nil {
		return 0, false
	}
	t := h.txns[tid]
	if t.active && t.doomed {
		return t.status, true
	}
	return 0, false
}

// Resolve delivers a pending abort: the transaction rolls back and tid's
// context leaves transactional mode. It panics if nothing is pending —
// callers must check Pending first, or use TryResolve.
//
// Invariant (relied on by the fallback governor): every path that dooms a
// transaction — remote conflict, capacity overflow, InjectInterrupt/
// InjectAbort, and fault injection through the Injector hooks — only acts
// on an active, undoomed transaction and leaves it (active, doomed), i.e.
// with a pending abort. Doom on an inactive or already-doomed transaction
// is a no-op. So between Begin and the abort's delivery there is no
// machine state in which Pending reports an abort that Resolve would
// refuse, no matter what faults were injected in between.
func (h *HTM) Resolve(tid int) Status {
	st, ok := h.TryResolve(tid)
	if !ok {
		panic("htm: Resolve without pending abort")
	}
	return st
}

// TryResolve delivers a pending abort if one exists, reporting false (and
// changing nothing) otherwise. Defensive callers — the runtime's governor
// paths and thread-exit teardown — use it so an abort raced away by another
// delivery path cannot turn into a machine panic.
func (h *HTM) TryResolve(tid int) (Status, bool) {
	t := h.txnOf(tid)
	if !t.active || !t.doomed {
		return 0, false
	}
	t.active = false
	t.doomed = false
	h.freeSlots |= 1 << uint(t.slot)
	h.activeTxns--
	t.slot = -1
	return t.status, true
}

// Access performs a memory access by tid to the line containing addr.
// If tid is inside a transaction the access is transactional: the line joins
// its tracked footprint and — depending on the backend — an overflow dooms
// the transaction with a capacity status, reported back immediately. Whether
// transactional or not, conflicting transactions of *other* threads are
// doomed (requester wins + strong isolation). The requester itself never
// blocks or fails here.
func (h *HTM) Access(tid int, addr memmodel.Addr, isWrite bool) {
	if h.inj != nil {
		// Fault-injection opportunity: an undoomed transactional access may
		// be fabricated into an abort before it takes effect. The hook sits
		// above the backend seam so injected behaviour is identical under
		// every backend (and under the directory's reference scan).
		if t := h.activeTxn(tid); t != nil {
			if st, ok := h.inj.AtAccess(tid, h.clockOf(tid), h.lineOf(addr), isWrite); ok {
				h.doom(tid, st)
				return
			}
		}
	}
	if h.dirbe != nil {
		// The directory backend is the production default; keeping its
		// dispatch static means the seam costs one predictable branch on
		// the hot path instead of a dynamic call.
		h.dirbe.access(tid, addr, isWrite)
		return
	}
	h.be.access(tid, addr, isWrite)
}

// activeTxn returns tid's transaction when it is open and not yet doomed,
// else nil.
func (h *HTM) activeTxn(tid int) *txn {
	if tid >= len(h.txns) || h.txns[tid] == nil {
		return nil
	}
	t := h.txns[tid]
	if !t.active || t.doomed {
		return nil
	}
	return t
}

// resolveConflicts dooms the transactions named by the slot mask (requester
// wins + strong isolation), or — under responder-wins with a transactional
// requester — dooms the requester instead and reports true so the caller
// skips footprint tracking. Victims are visited in ascending thread id: the
// reference scan iterates contexts by thread, and doom order is observable
// (stats, diagnostics, trace events), so every backend must match. This is
// the doom-decision half every backend shares; backends only compute the
// conflictor mask.
func (h *HTM) resolveConflicts(tid int, line memmodel.Line, mask uint64, requesterTx bool) (selfDoomed bool) {
	var victims [64]int
	n := 0
	for m := mask; m != 0; m &= m - 1 {
		victims[n] = h.slotTid[bits.TrailingZeros64(m)]
		n++
	}
	sortSmall(victims[:n])
	if h.cfg.ResponderWins && requesterTx {
		// The lowest-tid holder is the winner the reference scan reports.
		winner := victims[0]
		h.diag = Diagnostics{LastConflictLine: line, LastConflictWinner: winner, LastConflictLoser: tid}
		h.doom(tid, StatusConflict|StatusRetry)
		if h.cfg.ExposeConflictAddress {
			t := h.txnOf(tid)
			t.conflictLine, t.hasConflictLine = line, true
		}
		if h.obs != nil {
			h.obs.HTMConflict(tid, h.clockOf(tid), uint64(line), winner)
		}
		return true
	}
	for _, other := range victims[:n] {
		h.diag = Diagnostics{LastConflictLine: line, LastConflictWinner: tid, LastConflictLoser: other}
		h.doom(other, StatusConflict|StatusRetry)
		if h.cfg.ExposeConflictAddress {
			t := h.txnOf(other)
			t.conflictLine, t.hasConflictLine = line, true
		}
		if h.obs != nil {
			h.obs.HTMConflict(other, h.clockOf(other), uint64(line), tid)
		}
	}
	return false
}

// sortSmall insertion-sorts a tiny slice in place. Conflictor sets are
// almost always one or two entries; this keeps package sort (and its
// allocations) off the hot path.
func sortSmall(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// InjectInterrupt models an OS interrupt/exception/context switch hitting
// tid: an open transaction aborts with a fully unspecified status (§2.2
// challenge 4 — no bits set, no explanation).
func (h *HTM) InjectInterrupt(tid int) { h.InjectAbort(tid, 0) }

// InjectAbort dooms tid's open transaction (if any) with an arbitrary
// status, modelling micro-architectural abort conditions beyond conflicts
// and capacity (e.g. the occasional retry-only abort).
func (h *HTM) InjectAbort(tid int, s Status) {
	if h.InTxn(tid) {
		h.doom(tid, s)
	}
}

// AbortExplicit executes XABORT with the given code.
func (h *HTM) AbortExplicit(tid int, code uint8) {
	if h.InTxn(tid) {
		h.doom(tid, (StatusExplicit | StatusRetry).WithCode(code))
	}
}

// Commit attempts to commit tid's transaction. It returns (0, true) on
// success; if the transaction was doomed in flight the pending status is
// delivered instead and Commit returns (status, false).
func (h *HTM) Commit(tid int) (Status, bool) {
	t := h.txnOf(tid)
	if !t.active {
		panic("htm: Commit outside transaction")
	}
	if !t.doomed && h.inj != nil {
		// Fault-injection opportunity: an abort delivered exactly at the
		// commit point, after all the transaction's work is done.
		if st, ok := h.inj.AtCommit(tid, h.clockOf(tid)); ok {
			h.doom(tid, st)
		}
	}
	if t.doomed {
		return h.Resolve(tid), false
	}
	t.active = false
	// Release before the slot is freed: the backend withdraws the ownership
	// claims under the slot the transaction still holds.
	h.be.release(tid, t.slot)
	h.liveMask &^= 1 << uint(t.slot)
	h.freeSlots |= 1 << uint(t.slot)
	h.activeTxns--
	t.slot = -1
	h.stats.Commits++
	if h.obs != nil {
		h.obs.HTMCommit()
	}
	return 0, true
}

// ConflictLine returns the address unit that doomed tid's last
// conflict-aborted transaction. It only ever reports when the machine was
// configured with ExposeConflictAddress (the future-HTM mode of §9);
// commodity RTM always answers false.
func (h *HTM) ConflictLine(tid int) (memmodel.Line, bool) {
	if !h.cfg.ExposeConflictAddress || tid >= len(h.txns) || h.txns[tid] == nil {
		return 0, false
	}
	t := h.txns[tid]
	return t.conflictLine, t.hasConflictLine
}

// ReadSetSize and WriteSetSize expose tid's currently tracked footprint in
// lines. The tag backend tracks no sets and always answers zero.
func (h *HTM) ReadSetSize(tid int) int  { return h.be.readSetSize(tid) }
func (h *HTM) WriteSetSize(tid int) int { return h.be.writeSetSize(tid) }

// Stats returns machine-level counters.
func (h *HTM) Stats() Stats { return h.stats }

// Diag returns test-only diagnostics; see the Diagnostics doc comment.
func (h *HTM) Diag() Diagnostics { return h.diag }

// BackendStats returns the active backend's activity counters; see the
// BackendStats type for which fields which backend populates. All zero under
// the dir backend's RefScan reference resolver.
func (h *HTM) BackendStats() BackendStats { return h.be.stats() }
