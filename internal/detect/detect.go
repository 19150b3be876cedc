// Package detect implements the slow-path software race detector: a
// FastTrack-style happens-before algorithm over shadow memory, equivalent in
// role to the Google ThreadSanitizer instance TxRace invokes on demand (§5).
//
// The detector is complete (reports only true happens-before races of the
// monitored trace) and — when every access is fed to it — sound for that
// trace. TxRace's unsoundness comes from feeding it only the re-executed
// regions, never from the algorithm itself.
package detect

import (
	"cmp"
	"fmt"

	"repro/internal/clock"
	"repro/internal/memmodel"
	"repro/internal/shadow"
)

// SyncID identifies a synchronization object (mutex, condvar, barrier).
type SyncID uint32

// Race is one detected happens-before violation. Prev is the access already
// recorded in shadow memory, Cur the access that completed the race.
type Race struct {
	Addr      memmodel.Addr
	PrevSite  shadow.SiteID
	CurSite   shadow.SiteID
	PrevWrite bool
	CurWrite  bool
	PrevTID   clock.TID
	CurTID    clock.TID
}

// Key returns the normalized static instruction pair identifying the race.
// The paper counts "static instances" (§8.3): a racy pair of source
// locations, regardless of how many dynamic occurrences it has.
func (r Race) Key() PairKey {
	a, b := r.PrevSite, r.CurSite
	if a > b {
		a, b = b, a
	}
	return PairKey{A: a, B: b}
}

func (r Race) String() string {
	return fmt.Sprintf("race @%#x: site %d (tid %d, write=%v) vs site %d (tid %d, write=%v)",
		uint64(r.Addr), r.PrevSite, r.PrevTID, r.PrevWrite, r.CurSite, r.CurTID, r.CurWrite)
}

// PairKey is a normalized static race identity.
type PairKey struct{ A, B shadow.SiteID }

// Compare orders pairs by A, then B: the one order sorted race-pair lists
// use (slices.SortFunc(keys, PairKey.Compare)).
func (k PairKey) Compare(o PairKey) int {
	if c := cmp.Compare(k.A, o.A); c != 0 {
		return c
	}
	return cmp.Compare(k.B, o.B)
}

// Config selects the detector's vector-clock representation (DESIGN.md §11)
// and its shadow state. The zero value is the production configuration:
// sparse/delta clocks with periodic epoch-collapsing, over exact shadow
// state.
type Config struct {
	// RefDense forces the retained dense representation everywhere: thread
	// clocks, sync tables, read vectors, vcVars. It is the reference path
	// for differential tests, exactly like the htm RefScan precedent.
	RefDense bool
	// CollapseEvery is the number of release operations between
	// epoch-collapse rounds. 0 means DefaultCollapseEvery; negative
	// disables collapsing (sparse clocks then never change base).
	CollapseEvery int
	// Cells, when positive, bounds the shadow state to Cells access
	// records per granule with random replacement drawn from CellSeed:
	// stock TSan's memory-bounded configuration (§5), which can miss
	// races. 0 keeps exact FastTrack state, the paper's configuration.
	Cells    int
	CellSeed int64
}

// DefaultCollapseEvery is the release cadence of epoch-collapse rounds.
const DefaultCollapseEvery = 256

// collapseMinThreads gates collapsing: below this thread count the dense
// representation is already near-optimal and a shared base buys nothing.
const collapseMinThreads = 16

// Detector is the FastTrack happens-before detector: the clock half
// (Clocks) advanced by sync events, and the access half (Checker) that
// checks each access against the accessing thread's clock. With
// Config.Cells, accesses are checked against bounded cells instead
// (cellAccess); the clock half is the same.
type Detector struct {
	access
	clk Clocks

	cfg           Config
	cells         *shadow.CellStore // bounded shadow (Config.Cells); nil for exact state
	evictions     uint64
	base          *clock.Base // current epoch-collapse base (nil before first round)
	collapseEvery int
	sinceCollapse int
}

// access embeds Checker under an unexported field name: its Checks field
// and race accessors are Detector's, with no exported Checker field.
type access = Checker

// New returns an empty detector in the default sparse-clock configuration.
func New() *Detector { return NewWith(Config{}) }

// NewWith returns an empty detector with the given clock configuration.
func NewWith(cfg Config) *Detector {
	d := &Detector{cfg: cfg}
	d.clk.setup(cfg.RefDense)
	var st *clock.Stats // dense read vectors under RefDense
	if !cfg.RefDense {
		st = d.clk.stats
	}
	d.access = newChecker(st)
	if cfg.Cells > 0 {
		d.cells = shadow.NewCellStore(cfg.Cells, cfg.CellSeed)
	}
	d.collapseEvery = cfg.CollapseEvery
	if d.collapseEvery == 0 {
		d.collapseEvery = DefaultCollapseEvery
	}
	return d
}

// ClockStats returns the sparse-representation transition counters; the
// runtimes fold them into observability at Finish.
func (d *Detector) ClockStats() clock.Stats { return *d.clk.stats }

func (d *Detector) thread(tid clock.TID) *clock.VC { return d.clk.thread(tid) }

// ThreadVC exposes tid's current clock (read-only use expected). The TxRace
// runtime consults it when attributing fast/slow overlap.
func (d *Detector) ThreadVC(tid clock.TID) *clock.VC { return d.thread(tid) }

// Fork records that parent spawned child (see Clocks.Fork).
func (d *Detector) Fork(parent, child clock.TID) { d.clk.Fork(parent, child) }

// Join records that parent observed child's termination.
func (d *Detector) Join(parent, child clock.TID) { d.clk.Join(parent, child) }

// JoinAllChildren records parent observing the termination of every child
// in one batched operation (see Clocks.JoinAllChildren).
func (d *Detector) JoinAllChildren(parent clock.TID, children []clock.TID) {
	d.clk.JoinAllChildren(parent, children)
}

// Acquire records tid synchronizing-with prior releases of s.
func (d *Detector) Acquire(tid clock.TID, s SyncID) { d.clk.Acquire(tid, s) }

// Release records tid publishing its history through s, then runs an
// epoch-collapse round when one is due.
func (d *Detector) Release(tid clock.TID, s SyncID) {
	d.clk.Release(tid, s)
	d.maybeCollapse()
}

func (d *Detector) maybeCollapse() {
	if d.cfg.RefDense || d.collapseEvery < 0 {
		return
	}
	d.sinceCollapse++
	if d.sinceCollapse < d.collapseEvery || len(d.clk.threads) < collapseMinThreads {
		return
	}
	d.sinceCollapse = 0
	d.Collapse()
}

// Collapse runs one epoch-collapse round: a new shared base is computed at
// the pointwise minimum of all thread clocks (clock.NextBase) and the thread
// clocks are re-expressed against it, so each ends up carrying entries only
// for components where it is ahead of the floor — idle threads' slots are
// reclaimed and Len() tracks live threads again. Sync clocks are never
// eagerly rebased; they adopt newer bases lazily when next joined. Runs
// automatically every CollapseEvery releases; exported for benchmarks.
func (d *Detector) Collapse() {
	if d.cfg.RefDense {
		return
	}
	buf := d.clk.buf[:0]
	for _, v := range d.clk.threads {
		if v != nil {
			buf = append(buf, v)
		}
	}
	d.clk.buf = buf
	if len(buf) == 0 {
		return
	}
	nb := clock.NextBase(d.base, buf)
	for _, v := range buf {
		v.Rebase(nb)
	}
	d.base = nb
	d.clk.stats.Collapses++
}

// Read analyzes a read of addr by tid at static site.
func (d *Detector) Read(tid clock.TID, addr memmodel.Addr, site shadow.SiteID) {
	c := d.thread(tid)
	if d.cells != nil {
		d.cellAccess(c, tid, addr, false, site)
		return
	}
	d.access.Read(c, tid, addr, site, len(d.clk.threads))
}

// Write analyzes a write of addr by tid at static site.
func (d *Detector) Write(tid clock.TID, addr memmodel.Addr, site shadow.SiteID) {
	c := d.thread(tid)
	if d.cells != nil {
		d.cellAccess(c, tid, addr, true, site)
		return
	}
	d.access.Write(c, tid, addr, site)
}

// Access dispatches to Read or Write.
func (d *Detector) Access(tid clock.TID, addr memmodel.Addr, isWrite bool, site shadow.SiteID) {
	if isWrite {
		d.Write(tid, addr, site)
	} else {
		d.Read(tid, addr, site)
	}
}
