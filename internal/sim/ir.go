// Package sim provides the multithreaded-program substrate the TxRace
// reproduction runs on: a small structured IR (loads, stores, compute,
// locks, condition signalling, barriers, system calls, counted loops) and a
// deterministic discrete-event interpreter with per-thread virtual clocks.
//
// The IR plays the role of LLVM IR in the paper's toolchain: the
// instrument package rewrites it (inserting transaction boundaries and
// loop-cut checks) exactly where the paper's compiler pass would, and the
// engine delivers runtime events to a pluggable Runtime — the baseline,
// TSan-equivalent, sampling, and TxRace runtimes in internal/core.
package sim

import (
	"fmt"

	"repro/internal/memmodel"
	"repro/internal/shadow"
)

// SiteID identifies a static instruction; re-exported from shadow so
// workloads only import sim.
type SiteID = shadow.SiteID

// SyncID names a synchronization object. Objects are typed by use: the same
// id must be used consistently as a mutex, rwlock, semaphore, or barrier.
type SyncID uint32

// SyncKind tells runtime hooks what flavour of synchronization an acquire or
// release event came from; detectors that care about lock identity (the
// Eraser-style lockset detector) or reader/writer asymmetry need it, while
// happens-before detectors may ignore it.
type SyncKind uint8

// Synchronization flavours delivered with SyncAcquire/SyncRelease events.
const (
	SyncMutex SyncKind = iota
	SyncRead           // rwlock held shared
	SyncWrite          // rwlock held exclusive
	SyncSem            // semaphore post/pend (condvar signalling)
	SyncBarrier
)

// LoopID names a static loop for the loop-cut optimization (§4.3).
type LoopID uint32

// Instr is one IR instruction. The concrete types below form the closed set
// the engine interprets.
type Instr interface{ isInstr() }

// AddrMode selects how a MemAccess computes its effective address.
type AddrMode uint8

const (
	// AddrFixed always accesses Base.
	AddrFixed AddrMode = iota
	// AddrLoop accesses Base + ((iter*Stride + Off) mod Wrap) words, where
	// iter is the induction variable of the enclosing loop at Depth
	// (0 = innermost). Wrap of zero means no wrapping.
	AddrLoop
	// AddrRandom accesses Base + r words, r uniform in [0, Range), drawn
	// from the executing thread's PRNG.
	AddrRandom
)

// AddrExpr computes an effective address at execution time.
type AddrExpr struct {
	Base   memmodel.Addr
	Mode   AddrMode
	Stride uint64 // words per iteration (AddrLoop)
	Off    uint64 // word offset (AddrLoop)
	Wrap   uint64 // modulo in words (AddrLoop); 0 = none
	Depth  int    // enclosing-loop depth (AddrLoop)
	Range  uint64 // extent in words (AddrRandom)
}

// Fixed returns an expression that always addresses a.
func Fixed(a memmodel.Addr) AddrExpr { return AddrExpr{Base: a, Mode: AddrFixed} }

// Indexed returns an expression addressing base + iter*stride words.
func Indexed(base memmodel.Addr, strideWords uint64) AddrExpr {
	return AddrExpr{Base: base, Mode: AddrLoop, Stride: strideWords}
}

// Random returns an expression addressing a uniform word in
// [base, base+rangeWords words).
func Random(base memmodel.Addr, rangeWords uint64) AddrExpr {
	return AddrExpr{Base: base, Mode: AddrRandom, Range: rangeWords}
}

// MemAccess is a load or store of one word.
type MemAccess struct {
	Write bool
	Addr  AddrExpr
	Site  SiteID
	// Local marks accesses the static analysis proves race-free
	// (thread-local data). The instrumenter strips hooks from them — the
	// optimization TxRace borrows from TSan (§4.3, second optimization) —
	// and the resulting accesses are invisible to both fast and slow paths.
	Local bool
	// Hooked is set by the instrumenter on accesses that carry a detector
	// hook. Uninstrumented programs have it false everywhere, which is how
	// the baseline run stays hook-free.
	Hooked bool
}

// Compute models n cycles of private computation.
type Compute struct{ Cycles int64 }

// Delay models input- and scheduling-dependent computation: it charges a
// uniform random number of cycles in [0, Max), drawn from the executing
// thread's PRNG. Workloads use it to make the *time* at which later
// instructions run vary between seeds, which is what makes overlap-based
// detection scheduler-sensitive (the paper's vips analysis, §8.3/Fig. 10).
type Delay struct{ Max int64 }

// Lock acquires mutex M; Unlock releases it.
type Lock struct{ M SyncID }

// Unlock releases mutex M.
type Unlock struct{ M SyncID }

// RLock acquires rwlock M for shared reading; RUnlock releases it. Multiple
// readers may hold the lock together; WLock (write mode) excludes everyone.
type RLock struct{ M SyncID }

// RUnlock releases a shared hold on rwlock M.
type RUnlock struct{ M SyncID }

// WLock acquires rwlock M exclusively; WUnlock releases it.
type WLock struct{ M SyncID }

// WUnlock releases an exclusive hold on rwlock M.
type WUnlock struct{ M SyncID }

// AtomicRMW is an atomic read-modify-write (fetch-add, CAS, exchange) on a
// word: a C++11-style synchronization operation. It orders with every other
// atomic on the same location and is never itself racy, but a *plain* access
// unordered with it still races (the C++ model's mixed-access rule).
type AtomicRMW struct {
	Addr AddrExpr
	Site SiteID
}

// Signal posts semaphore C once (lightweight condition signalling is
// modelled with semaphore semantics so generated programs cannot lose
// wakeups; CondWait/CondSignal provide real mutex-paired condition
// variables).
type Signal struct{ C SyncID }

// CondWait atomically releases mutex M, blocks on condition C, and
// reacquires M before continuing — POSIX pthread_cond_wait semantics. The
// caller must hold M. As with POSIX, a wait only returns after a
// CondSignal/CondBroadcast that arrives while it is blocked (no buffering);
// programs must encode their predicate loops accordingly.
type CondWait struct {
	C SyncID
	M SyncID
}

// CondSignal wakes one waiter blocked on C (none → no-op, as POSIX).
type CondSignal struct{ C SyncID }

// CondBroadcast wakes every waiter blocked on C.
type CondBroadcast struct{ C SyncID }

// Wait pends on semaphore C, blocking until a post is available.
type Wait struct{ C SyncID }

// Barrier blocks until N threads have arrived at barrier B.
type Barrier struct {
	B SyncID
	N int
}

// Syscall models a system call of the given cost. Hidden system calls are
// ones the instrumenter does not know about (the paper's "misprofiling" of
// third-party libraries, §7): no transaction cut is inserted around them, so
// on the fast path they abort the enclosing transaction with an unknown
// status.
type Syscall struct {
	Name   string
	Cycles int64
	Hidden bool
}

// Loop executes Body Count times. The induction variable is exposed to
// AddrLoop expressions and, after instrumentation, to LoopCheck.
type Loop struct {
	ID    LoopID
	Count int
	Body  []Instr
}

// TxBegin and TxEnd are inserted by the instrumenter at synchronization-free
// region boundaries (§4.1). Small marks regions whose static memory-access
// count is below the K threshold; the runtime routes them straight to the
// slow path (§4.3, third optimization).
type TxBegin struct {
	Small bool
	// StaticAccesses is the instrumenter's static memory-op count for the
	// region, kept for diagnostics.
	StaticAccesses int
}

// TxEnd closes the current transactional region.
type TxEnd struct{}

// LoopCheck is inserted by the instrumenter at the end of a cut-candidate
// loop body. The runtime uses it both as its stand-in for the Last Branch
// Record (attributing capacity aborts to a loop) and as the place where the
// loop-cut optimization splits a transaction (§4.3).
type LoopCheck struct{ ID LoopID }

func (*MemAccess) isInstr()     {}
func (*Compute) isInstr()       {}
func (*Delay) isInstr()         {}
func (*Lock) isInstr()          {}
func (*Unlock) isInstr()        {}
func (*RLock) isInstr()         {}
func (*RUnlock) isInstr()       {}
func (*WLock) isInstr()         {}
func (*WUnlock) isInstr()       {}
func (*AtomicRMW) isInstr()     {}
func (*Signal) isInstr()        {}
func (*CondWait) isInstr()      {}
func (*CondSignal) isInstr()    {}
func (*CondBroadcast) isInstr() {}
func (*Wait) isInstr()          {}
func (*Barrier) isInstr()       {}
func (*Syscall) isInstr()       {}
func (*Loop) isInstr()          {}
func (*TxBegin) isInstr()       {}
func (*TxEnd) isInstr()         {}
func (*LoopCheck) isInstr()     {}

// Program is a complete multithreaded program: a single-threaded Setup on
// the main thread, Workers spawned together afterwards, and a
// single-threaded Teardown after all workers are joined. Fork and join
// events carry the usual happens-before edges.
type Program struct {
	Name     string
	Setup    []Instr
	Workers  [][]Instr
	Teardown []Instr
}

// Threads returns the total thread count including main.
func (p *Program) Threads() int { return len(p.Workers) + 1 }

// Validate performs structural checks: loop counts non-negative, no nested
// identical loop ids on one path. Conditions that need execution context to
// report well (non-positive barrier widths, zero-range random addresses,
// unlocks without the hold) are left to the interpreter, which surfaces them
// as *ProgramError with the offending thread, pc, and object.
func (p *Program) Validate() error {
	check := func(body []Instr, where string) error {
		var walk func([]Instr, []LoopID) error
		walk = func(b []Instr, stack []LoopID) error {
			for _, in := range b {
				switch in := in.(type) {
				case *Loop:
					if in.Count < 0 {
						return fmt.Errorf("%s: loop %d has negative count %d", where, in.ID, in.Count)
					}
					for _, id := range stack {
						if id == in.ID {
							return fmt.Errorf("%s: loop id %d nested inside itself", where, in.ID)
						}
					}
					if err := walk(in.Body, append(stack, in.ID)); err != nil {
						return err
					}
				case *Compute:
					if in.Cycles < 0 {
						return fmt.Errorf("%s: negative compute", where)
					}
				}
			}
			return nil
		}
		return walk(body, nil)
	}
	if err := check(p.Setup, "setup"); err != nil {
		return err
	}
	for i, w := range p.Workers {
		if err := check(w, fmt.Sprintf("worker %d", i)); err != nil {
			return err
		}
	}
	return check(p.Teardown, "teardown")
}

// CountAccesses returns the static number of memory-access instructions in
// body, with loop bodies multiplied by their trip counts. The instrumenter
// uses it for the K-threshold region classification.
func CountAccesses(body []Instr) int {
	n := 0
	for _, in := range body {
		switch in := in.(type) {
		case *MemAccess:
			n++
		case *Loop:
			n += CountAccesses(in.Body) * in.Count
		}
	}
	return n
}

// ForEachInstr visits every instruction in body depth-first.
func ForEachInstr(body []Instr, f func(Instr)) {
	for _, in := range body {
		f(in)
		if l, ok := in.(*Loop); ok {
			ForEachInstr(l.Body, f)
		}
	}
}
