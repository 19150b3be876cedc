package shadow

import (
	"repro/internal/clock"
	"repro/internal/memmodel"
	"repro/internal/prng"
)

// This file preserves the original hash-map shadow layouts. They are not used
// by the runtimes; they exist as the behavioural reference the paged
// implementations are differentially tested against (identical races, Len
// and Peek results — see diff tests in this package and internal/detect) and
// as the "before" side of the internal/bench before/after measurements.

// MapMemory is the original map-of-pointers shadow memory: one heap-allocated
// Word per touched granule, found by hashing. Reference implementation only.
type MapMemory struct {
	words map[uint64]*Word
	reads readSets
}

// NewMapMemory returns an empty map-backed shadow memory.
func NewMapMemory() *MapMemory { return &MapMemory{words: make(map[uint64]*Word)} }

// Word returns the state for the granule containing a, allocating if needed.
func (m *MapMemory) Word(a memmodel.Addr) *Word {
	g := memmodel.WordOf(a)
	w := m.words[g]
	if w == nil {
		w = &Word{}
		m.words[g] = w
	}
	return w
}

// Peek returns the state for a's granule or nil if never accessed.
func (m *MapMemory) Peek(a memmodel.Addr) *Word { return m.words[memmodel.WordOf(a)] }

// Len returns the number of granules with state.
func (m *MapMemory) Len() int { return len(m.words) }

// Reset discards all state.
func (m *MapMemory) Reset() {
	m.words = make(map[uint64]*Word)
	m.reads = readSets{}
}

// Inflate mirrors Memory.Inflate without recycling: every inflation
// allocates a fresh vector and site slice in a new slot.
func (m *MapMemory) Inflate(w *Word, threads int) {
	if w.slot != 0 {
		return
	}
	w.slot = m.reads.add(readSet{vc: clock.New(threads), sites: make([]SiteID, threads)})
	m.reads.seed(w)
}

// ReadVC mirrors Memory.ReadVC.
func (m *MapMemory) ReadVC(w *Word) *clock.VC { return m.reads.at(w.slot).vc }

// RecordSharedRead mirrors Memory.RecordSharedRead.
func (m *MapMemory) RecordSharedRead(w *Word, tid clock.TID, t clock.Time, site SiteID) {
	m.reads.record(w, tid, t, site)
}

// RSiteOf mirrors Memory.RSiteOf.
func (m *MapMemory) RSiteOf(w *Word, tid clock.TID) SiteID { return m.reads.siteOf(w, tid) }

// ClearReads mirrors Memory.ClearReads; the released slot is dropped, never
// reused.
func (m *MapMemory) ClearReads(w *Word) {
	w.R = clock.NoEpoch
	if w.slot != 0 {
		*m.reads.at(w.slot) = readSet{}
		w.slot = 0
	}
}

// MapCellStore is the original map-of-slices bounded store. It draws
// replacement victims from the same splitmix64 stream as CellStore, so the
// two make identical eviction choices for identical call sequences.
// Reference implementation only.
type MapCellStore struct {
	n     int
	cells map[uint64][]Cell
	rng   prng.PRNG
}

// NewMapCellStore returns a map-backed store with n cells per granule.
func NewMapCellStore(n int, seed int64) *MapCellStore {
	if n <= 0 {
		panic("shadow: cell count must be positive")
	}
	return &MapCellStore{n: n, cells: make(map[uint64][]Cell), rng: prng.New(uint64(seed))}
}

// Cells returns the current records for a's granule.
func (s *MapCellStore) Cells(a memmodel.Addr) []Cell {
	return s.cells[memmodel.WordOf(a)]
}

// Add records c for a's granule, evicting a random cell if full.
func (s *MapCellStore) Add(a memmodel.Addr, c Cell) (evicted bool) {
	g := memmodel.WordOf(a)
	cs := s.cells[g]
	for i := range cs {
		if cs[i].E.TID() == c.E.TID() && cs[i].Write == c.Write {
			cs[i] = c
			return false
		}
	}
	if len(cs) < s.n {
		s.cells[g] = append(cs, c)
		return false
	}
	cs[s.rng.Intn(int64(len(cs)))] = c
	return true
}

// Reset discards all records.
func (s *MapCellStore) Reset() { s.cells = make(map[uint64][]Cell) }
