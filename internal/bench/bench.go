// Package bench is the detector hot-path micro suite and its two gates.
// BenchmarkMicro runs the suite's fixed rows under go test -bench; Gate
// checks ratios between rows of one build, and Paired checks each row
// against the parent commit's runs on the same host.
//
// The suite measures the paged shadow structures (internal/shadow) against
// the original map-backed layouts (shadow.MapMemory, shadow.MapCellStore),
// which are kept in-tree precisely so one binary can report before/after
// numbers for the same workload. Gate turns the comparison into a pass/fail
// check for CI: the paged path must allocate at most half as much per access
// as the map path, and the steady-state detector sweep must stay near
// allocation-free.
package bench

import (
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/detect"
	"repro/internal/memmodel"
	"repro/internal/shadow"
)

// Result is one micro-suite row's measurement from one run.
// AllocsPerOp is the exact malloc count per op, not go test's allocs/op,
// which is truncated to an integer.
type Result struct {
	Name        string
	NsPerOp     float64
	AllocsPerOp float64
}

// workingSet is the number of distinct granules each benchmark sweeps: large
// enough to spill several pages, small enough to finish a reset cycle within
// one benchmark iteration batch.
const workingSet = 1 << 15

func addr(i int) memmodel.Addr {
	return memmodel.Addr(0x10000 + uint64(i%workingSet)*memmodel.WordSize)
}

// wordStore is the surface shared by Memory and MapMemory that the word
// benchmarks exercise.
type wordStore interface {
	Word(memmodel.Addr) *shadow.Word
	Reset()
}

// benchTouch measures first-touch cost: every reset cycle re-populates the
// whole working set, so per-op allocations reflect how much the layout
// allocates per fresh granule (map: one Word box each; paged: one page per
// PageSize granules).
func benchTouch(m wordStore) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		e := clock.MakeEpoch(0, 1)
		for i := 0; i < b.N; i++ {
			if i%workingSet == 0 {
				m.Reset()
			}
			w := m.Word(addr(i))
			w.W = e
		}
	}
}

// benchRevisit measures steady-state lookup cost over a resident working set:
// no allocation is acceptable on this path for either layout.
func benchRevisit(m wordStore) func(b *testing.B) {
	return func(b *testing.B) {
		e := clock.MakeEpoch(0, 1)
		for i := 0; i < workingSet; i++ {
			m.Word(addr(i)).W = e
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w := m.Word(addr(i))
			w.W = e
		}
	}
}

// cellStore is the surface shared by CellStore and MapCellStore.
type cellStore interface {
	Add(memmodel.Addr, shadow.Cell) bool
	Cells(memmodel.Addr) []shadow.Cell
}

// benchCells measures the bounded-shadow record/evict cycle: four cells per
// granule, eight distinct (tid, write) record shapes, so steady state evicts.
func benchCells(s cellStore) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tid := clock.TID(i % 8)
			c := shadow.Cell{E: clock.MakeEpoch(tid, clock.Time(i/8+1)), Site: shadow.SiteID(i % 16), Write: i%2 == 0}
			s.Add(addr(i), c)
			_ = s.Cells(addr(i))
		}
	}
}

// benchDetector measures the full FastTrack hot path: two threads sweeping a
// shared working set with periodic lock handoffs, the access mix the
// experiments' slow path executes. Steady state must be allocation-free.
func benchDetector() func(b *testing.B) {
	return func(b *testing.B) {
		d := detect.New()
		d.Fork(0, 1)
		const lock = detect.SyncID(1)
		// Warm both thread clocks and the working set before timing.
		for i := 0; i < workingSet; i++ {
			d.Access(0, addr(i), true, 1)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tid := clock.TID(i % 2)
			if i%1024 == 0 {
				d.Release(tid, lock)
				d.Acquire(1-tid, lock)
			}
			d.Access(tid, addr(i), i%4 == 0, shadow.SiteID(2+i%8))
		}
	}
}

// microBench names one suite entry. Constructors run per invocation so every
// measurement starts from an empty store.
type microBench struct {
	name string
	fn   func(*testing.B)
}

func microFuncs() []microBench {
	out := []microBench{
		{"shadow/touch/map", benchTouch(shadow.NewMapMemory())},
		{"shadow/touch/paged", benchTouch(shadow.NewMemory())},
		{"shadow/revisit/map", benchRevisit(shadow.NewMapMemory())},
		{"shadow/revisit/paged", benchRevisit(shadow.NewMemory())},
		{"cells/add/map", benchCells(shadow.NewMapCellStore(4, 42))},
		{"cells/add/paged", benchCells(shadow.NewCellStore(4, 42))},
		{"detect/sweep", benchDetector()},
		{"htm/access/scan", benchHTMAccess(true)},
		{"htm/access/dir", benchHTMAccess(false)},
		{"htm/access/tag", benchHTMBackendAccess("tag", 0xff)},
		{"htm/access/bounded", benchHTMBackendAccess("bounded", 0xf)},
		{"htm/access/idle", benchHTMIdle()},
		{"sim/dispatch/tree", benchSimDispatch()},
		{"detect/shard/1", benchShardedReplay(1)},
		{"detect/shard/4", benchShardedReplay(4)},
		{"detect/shard/8", benchShardedReplay(8)},
		{"trace/decode", benchTraceDecode()},
	}
	return append(out, joinBenches()...)
}

// Find returns the named result, or false when the suite does not have it.
func Find(rs []Result, name string) (Result, bool) {
	for _, r := range rs {
		if r.Name == name {
			return r, true
		}
	}
	return Result{}, false
}

// Gate checks a micro-suite run against the regression policy: the paged
// first-touch path must allocate at most half of what the map path does per
// access, the steady-state paths must be effectively allocation-free, the
// HTM conflict directory must keep a wide lead over the reference scan, and
// the sparse clock join and sharded replay must keep their scaling wins.
// Thresholds are deliberately generous — the gate exists to catch
// order-of-magnitude regressions, not scheduler noise.
func Gate(rs []Result) error {
	mt, ok1 := Find(rs, "shadow/touch/map")
	pt, ok2 := Find(rs, "shadow/touch/paged")
	if !ok1 || !ok2 {
		return fmt.Errorf("bench: suite missing shadow/touch results")
	}
	if pt.AllocsPerOp > mt.AllocsPerOp/2 {
		return fmt.Errorf("bench: paged first-touch allocates %.4f/op, more than half of map's %.4f/op",
			pt.AllocsPerOp, mt.AllocsPerOp)
	}
	for _, name := range []string{"shadow/revisit/paged", "detect/sweep", "htm/access/idle"} {
		r, ok := Find(rs, name)
		if !ok {
			return fmt.Errorf("bench: suite missing %s", name)
		}
		if r.AllocsPerOp > 0.1 {
			return fmt.Errorf("bench: %s allocates %.4f/op, steady state should be near zero",
				name, r.AllocsPerOp)
		}
	}
	// The conflict directory's claim: at the full-machine transaction count,
	// one ownership-word lookup beats the per-context scan by 2x or better.
	// Gate at 0.75x so scheduler noise cannot trip it without a real
	// regression eating most of the win.
	scan, ok1 := Find(rs, "htm/access/scan")
	dir, ok2 := Find(rs, "htm/access/dir")
	if !ok1 || !ok2 {
		return fmt.Errorf("bench: suite missing htm/access results")
	}
	if dir.NsPerOp > scan.NsPerOp*0.75 {
		return fmt.Errorf("bench: directory access %.2f ns/op, more than 0.75x of scan's %.2f ns/op",
			dir.NsPerOp, scan.NsPerOp)
	}
	// The tag backend tracks no read/write sets, so a transactional access
	// does strictly less work than the directory's: conflict test plus one
	// tag store, no cache Touch. It must not lose to the dir row.
	tag, ok := Find(rs, "htm/access/tag")
	if !ok {
		return fmt.Errorf("bench: suite missing htm/access/tag")
	}
	if tag.NsPerOp > dir.NsPerOp {
		return fmt.Errorf("bench: tag access %.2f ns/op, slower than directory's %.2f ns/op despite tracking no sets",
			tag.NsPerOp, dir.NsPerOp)
	}
	// The sparse/delta clock claim: at 1024 threads with idle skew the
	// join path must beat the dense reference by 2x or better, and at 8
	// threads it may cost at most 5% (plus a same-run noise allowance —
	// the 8-thread rows are fast enough that scheduler jitter alone can
	// exceed 5%).
	d1024, ok1 := Find(rs, "detect/join/dense/1024")
	s1024, ok2 := Find(rs, "detect/join/sparse/1024")
	if !ok1 || !ok2 {
		return fmt.Errorf("bench: suite missing detect/join/1024 results")
	}
	if s1024.NsPerOp > d1024.NsPerOp*0.5 {
		return fmt.Errorf("bench: sparse join at 1024 threads %.2f ns/op, less than 2x faster than dense's %.2f ns/op",
			s1024.NsPerOp, d1024.NsPerOp)
	}
	d8, ok1 := Find(rs, "detect/join/dense/8")
	s8, ok2 := Find(rs, "detect/join/sparse/8")
	if !ok1 || !ok2 {
		return fmt.Errorf("bench: suite missing detect/join/8 results")
	}
	if limit := d8.NsPerOp * 1.05 * 1.25; s8.NsPerOp > limit {
		return fmt.Errorf("bench: sparse join at 8 threads %.2f ns/op exceeds dense's %.2f ns/op x 1.05 budget",
			s8.NsPerOp, d8.NsPerOp)
	}
	return gateShards(rs)
}
