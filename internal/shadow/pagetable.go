package shadow

// The slow-path detectors key all per-variable state by 8-byte granule index
// (memmodel.WordOf). Granule indexes are produced by a bump allocator, so
// they are clustered and near-dense: a hash map pays a hash + bucket probe +
// pointer chase on every single access, while a two-level page table pays two
// array indexes. PageTable is that table, generic over the per-granule state
// so the FastTrack Word store, the Djit⁺ per-variable vectors, and the
// Eraser lockset states all share one layout.

const (
	// PageShift fixes the page span: 1<<PageShift granules (512, covering
	// 4 KiB of application address space — one application page) of inline
	// T values per page, allocated on first touch. Larger spans amortize
	// better on dense sweeps but waste zeroing work on sparse address
	// patterns; 4 KiB is the measured sweet spot on the Table 1 workloads.
	PageShift = 9
	// PageSize is the number of granules per page.
	PageSize = 1 << PageShift

	pageMask = PageSize - 1

	// MaxDirPages bounds the directory the fast path indexes directly: 1<<16
	// pages of granules cover the first 256 MiB of application address
	// space, and the directory itself never exceeds 512 KiB. The workload
	// builders and the frontend allocate upward from 1 MiB and stay well
	// inside it. Pages beyond it (a hostile or corrupt address, say) fall
	// back to a sparse map, so one access anywhere costs at most one page
	// and one directory.
	MaxDirPages = 1 << 16
)

// growDir returns dir extended to cover page d < MaxDirPages, at least
// doubling its length so ascending first touches copy it O(log n) times.
func growDir[P any](dir []*P, d uint64) []*P {
	n := max(2*len(dir), int(d)+1)
	n = min(n, MaxDirPages)
	nd := make([]*P, n)
	copy(nd, dir)
	return nd
}

// PageTable is a two-level paged store of T keyed by granule index. The zero
// value is an empty table. Pages are inline arrays of T allocated on first
// touch; pointers returned by Get and Peek stay valid until Reset (pages are
// never moved or freed while reachable).
type PageTable[T any] struct {
	dir    []*[PageSize]T
	far    map[uint64]*[PageSize]T // pages beyond MaxDirPages, if any
	allocs uint64
}

// Get returns the entry for granule g, allocating its page if needed.
func (pt *PageTable[T]) Get(g uint64) *T {
	d := g >> PageShift
	if d < uint64(len(pt.dir)) {
		if pg := pt.dir[d]; pg != nil {
			return &pg[g&pageMask]
		}
	}
	return pt.getSlow(g, d)
}

func (pt *PageTable[T]) getSlow(g, d uint64) *T {
	if d >= MaxDirPages {
		if pt.far == nil {
			pt.far = make(map[uint64]*[PageSize]T)
		}
		pg := pt.far[d]
		if pg == nil {
			pg = new([PageSize]T)
			pt.far[d] = pg
			pt.allocs++
		}
		return &pg[g&pageMask]
	}
	if d >= uint64(len(pt.dir)) {
		pt.dir = growDir(pt.dir, d)
	}
	pg := new([PageSize]T)
	pt.dir[d] = pg
	pt.allocs++
	return &pg[g&pageMask]
}

// Peek returns the entry for granule g, or nil when its page was never
// allocated. It never allocates.
func (pt *PageTable[T]) Peek(g uint64) *T {
	d := g >> PageShift
	if d < uint64(len(pt.dir)) {
		if pg := pt.dir[d]; pg != nil {
			return &pg[g&pageMask]
		}
		return nil
	}
	if pg := pt.far[d]; pg != nil {
		return &pg[g&pageMask]
	}
	return nil
}

// Reset drops every page in O(pages) work; the next touch reallocates.
func (pt *PageTable[T]) Reset() {
	for i := range pt.dir {
		pt.dir[i] = nil
	}
	pt.far = nil
}

// Allocs returns the cumulative number of pages allocated (Reset does not
// rewind it); the observability layer exports it as a counter.
func (pt *PageTable[T]) Allocs() uint64 { return pt.allocs }
