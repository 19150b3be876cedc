// Package shadow provides the per-word detector state ("shadow memory") used
// by the slow-path happens-before race detector.
//
// Two representations are provided, mirroring the two configurations the
// paper discusses in §5:
//
//   - Word: full FastTrack state (last-write epoch plus adaptive last-read
//     epoch/vector). With this representation the detector is sound and
//     complete for the monitored trace. This is the "enough shadow cells"
//     configuration the paper says it ran TSan in.
//
//   - CellStore: a bounded store of the last N access records per 8-byte
//     granule with random replacement, reproducing stock TSan's
//     memory-bounding design (N = 4 by default) and its resulting
//     unsoundness: evicting a cell can hide one half of a race.
//
// Both stores are paged (see PageTable): the per-access lookup is two array
// indexes into inline state, with no per-word allocation and no map hashing.
// MapMemory and MapCellStore keep the original hash-map layouts as reference
// implementations for differential tests and before/after benchmarks.
package shadow

import (
	"repro/internal/clock"
	"repro/internal/memmodel"
	"repro/internal/prng"
)

// SiteID identifies a static program location (one instruction in the
// workload IR). Races are reported and de-duplicated as pairs of SiteIDs,
// matching the paper's counting of static race instances (§8.3).
type SiteID uint32

// Word is the FastTrack state for one 8-byte granule: 32 bytes with no
// pointers, so a 512-granule page is 16 KiB of memory the garbage collector
// never scans.
type Word struct {
	// W is the epoch of the last write.
	W clock.Epoch
	// Reads are adaptive: while all reads are totally ordered, only the
	// epoch R/RSite is kept. Once two unordered reads are seen, the word
	// inflates: its read vector and per-thread read sites live in a slot of
	// the owning store's side table (see Memory.Inflate).
	R clock.Epoch
	// WSite and RSite are the static sites of the last write and last
	// (exclusive-mode) read.
	WSite SiteID
	RSite SiteID
	// slot is the 1-based index of the word's read-shared state in its
	// store's side table; 0 means exclusive mode.
	slot uint32
	// used marks granules that have been handed out by Memory.Word; inline
	// page storage needs it to preserve the map semantics of Len and Peek.
	used bool
}

// ReadShared reports whether the word is in vector (read-shared) mode.
func (w *Word) ReadShared() bool { return w.slot != 0 }

// readSet is one read-shared word's side-table entry: the read vector and
// the site of each thread's last read.
type readSet struct {
	vc    *clock.VC
	sites []SiteID
}

// readChunk is the side table's growth unit: slots live in fixed chunks, so
// growing the table never copies the slots already handed out. A trace
// whose words are mostly read-shared keeps one slot per shadow word.
const readChunk = 128

// readSets is a side table of read-shared state indexed by Word.slot-1.
// Memory and MapMemory both keep one; only Memory recycles freed slots.
type readSets struct {
	chunks []*[readChunk]readSet
	n      uint32
}

// at returns the entry of a nonzero slot.
func (rs *readSets) at(slot uint32) *readSet {
	i := slot - 1
	return &rs.chunks[i/readChunk][i%readChunk]
}

// add stores s in a new slot and returns the slot.
func (rs *readSets) add(s readSet) uint32 {
	if rs.n%readChunk == 0 {
		rs.chunks = append(rs.chunks, new([readChunk]readSet))
	}
	rs.n++
	*rs.at(rs.n) = s
	return rs.n
}

// seed carries w's exclusive-mode read epoch into its fresh read set.
func (rs *readSets) seed(w *Word) {
	if w.R != clock.NoEpoch {
		rs.record(w, w.R.TID(), w.R.Time(), w.RSite)
	}
}

// record stores a read at tid/site in w's read set.
func (rs *readSets) record(w *Word, tid clock.TID, t clock.Time, site SiteID) {
	s := rs.at(w.slot)
	s.vc.Set(tid, t)
	if int(tid) >= len(s.sites) {
		s.sites = growSites(s.sites, int(tid)+1)
	}
	s.sites[tid] = site
}

// siteOf returns the site of tid's last read in w's read set.
func (rs *readSets) siteOf(w *Word, tid clock.TID) SiteID {
	sites := rs.at(w.slot).sites
	if int(tid) >= len(sites) {
		return 0
	}
	return sites[tid]
}

// growSites extends s to length n in one step, reusing capacity when a
// pooled slice provides it (re-extended entries must be re-zeroed).
func growSites(s []SiteID, n int) []SiteID {
	if cap(s) >= n {
		old := len(s)
		s = s[:n]
		for i := old; i < n; i++ {
			s[i] = 0
		}
		return s
	}
	ns := make([]SiteID, n)
	copy(ns, s)
	return ns
}

// Memory maps 8-byte granules to FastTrack state, created on first touch.
// State lives inline in pages: the common access is two array indexes and
// allocates nothing. Read-shared state lives in a side table of slots;
// slots released by write-clears-reads keep their vector and site slice and
// are reused, last freed first, by later inflations.
type Memory struct {
	pt    PageTable[Word]
	count int

	reads     readSets
	freeSlots []uint32
	poolHits  uint64
	poolMiss  uint64

	vcStats *clock.Stats // non-nil: Inflate hands out sparse read vectors
}

// NewMemory returns an empty shadow memory.
func NewMemory() *Memory { return &Memory{} }

// UseSparseClocks switches Inflate to sparse read vectors, recording
// representation transitions in st (must be non-nil). Pooled clocks return
// to the empty sparse form on Clear even if a read-shared episode promoted
// them to dense, so recycling never leaks stale high-tid entries and a
// fresh inflation costs O(1) instead of O(threads). Site slices stay dense:
// they are plain arrays with no join structure to exploit.
func (m *Memory) UseSparseClocks(st *clock.Stats) {
	if st == nil {
		st = new(clock.Stats)
	}
	m.vcStats = st
}

// Word returns the state for the granule containing a, allocating if needed.
func (m *Memory) Word(a memmodel.Addr) *Word {
	w := m.pt.Get(memmodel.WordOf(a))
	if !w.used {
		w.used = true
		m.count++
	}
	return w
}

// Peek returns the state for a's granule or nil if never accessed.
func (m *Memory) Peek(a memmodel.Addr) *Word {
	w := m.pt.Peek(memmodel.WordOf(a))
	if w == nil || !w.used {
		return nil
	}
	return w
}

// Len returns the number of granules with state.
func (m *Memory) Len() int { return m.count }

// Reset discards all state in O(pages).
func (m *Memory) Reset() {
	m.pt.Reset()
	m.count = 0
	m.reads = readSets{}
	m.freeSlots = nil
}

// Inflate switches w to read-shared mode, seeding the vector with the
// existing read epoch. The slot comes from the free list when one is
// available.
func (m *Memory) Inflate(w *Word, threads int) {
	if w.slot != 0 {
		return
	}
	if n := len(m.freeSlots); n > 0 {
		m.poolHits++
		w.slot = m.freeSlots[n-1]
		m.freeSlots = m.freeSlots[:n-1]
		s := m.reads.at(w.slot)
		s.vc.Clear(threads)
		s.sites = growSites(s.sites[:0], threads)
	} else {
		m.poolMiss++
		var vc *clock.VC
		if m.vcStats != nil {
			vc = clock.NewSparse(m.vcStats)
			vc.Clear(threads) // records the span for the promotion ratio
		} else {
			vc = clock.New(threads)
		}
		w.slot = m.reads.add(readSet{vc: vc, sites: make([]SiteID, threads)})
	}
	m.reads.seed(w)
}

// ReadVC returns the read vector of a read-shared word. It is valid until
// the word's reads are cleared.
func (m *Memory) ReadVC(w *Word) *clock.VC { return m.reads.at(w.slot).vc }

// RecordSharedRead stores a read at tid/site in a read-shared word.
func (m *Memory) RecordSharedRead(w *Word, tid clock.TID, t clock.Time, site SiteID) {
	m.reads.record(w, tid, t, site)
}

// RSiteOf returns the site of tid's last read in a read-shared word.
func (m *Memory) RSiteOf(w *Word, tid clock.TID) SiteID { return m.reads.siteOf(w, tid) }

// ClearReads applies FastTrack's write-clears-reads transition, returning an
// inflated word's slot to the free list for reuse.
func (m *Memory) ClearReads(w *Word) {
	w.R = clock.NoEpoch
	if w.slot != 0 {
		m.freeSlots = append(m.freeSlots, w.slot)
		w.slot = 0
	}
}

// MemStats summarizes the allocation behaviour of a Memory; the runtimes
// export it through the observability layer.
type MemStats struct {
	// Pages is the cumulative number of shadow pages allocated.
	Pages uint64
	// PoolHits and PoolMisses count inflations served from a freed slot vs
	// a freshly allocated one.
	PoolHits, PoolMisses uint64
}

// Stats returns the memory's allocation counters.
func (m *Memory) Stats() MemStats {
	return MemStats{Pages: m.pt.Allocs(), PoolHits: m.poolHits, PoolMisses: m.poolMiss}
}

// Cell is one bounded-mode access record.
type Cell struct {
	E     clock.Epoch
	Site  SiteID
	Write bool
}

// Cells-per-granule state is paged like Word state (512-granule pages); each
// granule carries N inline cells within its page.
const (
	cellPageShift = 9
	cellPageSize  = 1 << cellPageShift
	cellPageMask  = cellPageSize - 1
)

// cellPage holds the records of cellPageSize granules: granule i's cells are
// the first n[i] entries of cells[i*N : (i+1)*N].
type cellPage struct {
	n     [cellPageSize]uint8
	cells []Cell
}

// CellStore keeps at most N cells per granule with random replacement,
// modelling stock TSan's memory-bounding design (§5: "TSan maintains N
// (default 4) shadow cells per 8 application bytes, and replaces one random
// shadow cell when all shadow cells are filled"). Replacement victims are
// drawn from the repository's seeded splitmix64 source (internal/prng);
// TestCellStoreEvictionSequence pins the exact sequence.
type CellStore struct {
	n      int
	rng    prng.PRNG
	dir    []*cellPage
	far    map[uint64]*cellPage
	allocs uint64
}

// NewCellStore returns a store with n cells per granule and the given
// replacement seed.
func NewCellStore(n int, seed int64) *CellStore {
	if n <= 0 {
		panic("shadow: cell count must be positive")
	}
	if n > 255 {
		panic("shadow: cell count exceeds 255")
	}
	return &CellStore{n: n, rng: prng.New(uint64(seed))}
}

func (s *CellStore) page(d uint64, alloc bool) *cellPage {
	if d < uint64(len(s.dir)) {
		if pg := s.dir[d]; pg != nil {
			return pg
		}
	} else if d >= MaxDirPages {
		if pg := s.far[d]; pg != nil || !alloc {
			return pg
		}
		if s.far == nil {
			s.far = make(map[uint64]*cellPage)
		}
		pg := &cellPage{cells: make([]Cell, cellPageSize*s.n)}
		s.far[d] = pg
		s.allocs++
		return pg
	}
	if !alloc {
		return nil
	}
	if d >= uint64(len(s.dir)) {
		s.dir = growDir(s.dir, d)
	}
	pg := &cellPage{cells: make([]Cell, cellPageSize*s.n)}
	s.dir[d] = pg
	s.allocs++
	return pg
}

// Cells returns the current records for a's granule. The slice aliases the
// store's inline state; callers read it and must not retain it across Add.
func (s *CellStore) Cells(a memmodel.Addr) []Cell {
	g := memmodel.WordOf(a)
	pg := s.page(g>>cellPageShift, false)
	if pg == nil {
		return nil
	}
	i := g & cellPageMask
	base := int(i) * s.n
	return pg.cells[base : base+int(pg.n[i]) : base+s.n]
}

// Add records c for a's granule, evicting a random cell if full. It returns
// true when an eviction happened (a potential lost race).
func (s *CellStore) Add(a memmodel.Addr, c Cell) (evicted bool) {
	g := memmodel.WordOf(a)
	pg := s.page(g>>cellPageShift, true)
	i := g & cellPageMask
	base := int(i) * s.n
	cs := pg.cells[base : base+int(pg.n[i])]
	// Refresh an existing record from the same thread and access kind
	// rather than burning a cell, as TSan does.
	for k := range cs {
		if cs[k].E.TID() == c.E.TID() && cs[k].Write == c.Write {
			cs[k] = c
			return false
		}
	}
	if int(pg.n[i]) < s.n {
		pg.cells[base+int(pg.n[i])] = c
		pg.n[i]++
		return false
	}
	cs[s.rng.Intn(int64(len(cs)))] = c
	return true
}

// Reset discards all records in O(pages).
func (s *CellStore) Reset() {
	for i := range s.dir {
		s.dir[i] = nil
	}
	s.far = nil
}

// CellStats summarizes the allocation behaviour of a CellStore.
type CellStats struct {
	// Pages is the cumulative number of cell pages allocated.
	Pages uint64
}

// Stats returns the store's allocation counters.
func (s *CellStore) Stats() CellStats { return CellStats{Pages: s.allocs} }
