package shadow

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/memmodel"
	"repro/internal/prng"
)

// The paged stores must be observationally identical to the original
// map-backed layouts (kept as MapMemory / MapCellStore). These tests drive
// both sides with the same randomized operation sequences and compare every
// observable: Len, Peek, full word state, cell contents, eviction decisions.

// wordsEqual compares the observable FastTrack state of two words, a held
// by am and b by bm.
func wordsEqual(am *Memory, a *Word, bm *MapMemory, b *Word) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a.W != b.W || a.R != b.R || a.WSite != b.WSite || a.RSite != b.RSite {
		return false
	}
	if a.ReadShared() != b.ReadShared() {
		return false
	}
	if a.ReadShared() {
		n := am.ReadVC(a).Len()
		if m := bm.ReadVC(b).Len(); m > n {
			n = m
		}
		for t := clock.TID(0); int(t) < n; t++ {
			if am.ReadVC(a).Get(t) != bm.ReadVC(b).Get(t) || am.RSiteOf(a, t) != bm.RSiteOf(b, t) {
				return false
			}
		}
	}
	return true
}

// diffAddrs mixes granules within one page, across neighbouring pages, and
// beyond the directory bound (the far-map fallback path).
func diffAddrs() []memmodel.Addr {
	var out []memmodel.Addr
	for i := 0; i < 24; i++ {
		out = append(out, memmodel.Addr(0x1000+uint64(i)*memmodel.WordSize))
	}
	for i := 0; i < 8; i++ {
		out = append(out, memmodel.Addr(uint64(i+1)<<(PageShift+3)))
	}
	// Granule index ≥ MaxDirPages*PageSize: address beyond the flat directory.
	far := memmodel.Addr(uint64(MaxDirPages) << (PageShift + 3))
	for i := 0; i < 8; i++ {
		out = append(out, far+memmodel.Addr(uint64(i)*memmodel.WordSize*512))
	}
	return out
}

func TestPagedMemoryMatchesMapMemory(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		rng := prng.New(seed)
		paged, ref := NewMemory(), NewMapMemory()
		addrs := diffAddrs()
		for op := 0; op < 4000; op++ {
			a := addrs[rng.Intn(int64(len(addrs)))]
			tid := clock.TID(rng.Intn(4))
			site := SiteID(rng.Intn(32))
			e := clock.MakeEpoch(tid, clock.Time(1+rng.Intn(100)))
			pw, rw := paged.Word(a), ref.Word(a)
			switch rng.Intn(5) {
			case 0: // write + write-clears-reads
				pw.W, pw.WSite = e, site
				rw.W, rw.WSite = e, site
				paged.ClearReads(pw)
				ref.ClearReads(rw)
			case 1: // exclusive read
				pw.R, pw.RSite = e, site
				rw.R, rw.RSite = e, site
			case 2: // inflate to read-shared
				paged.Inflate(pw, 4)
				ref.Inflate(rw, 4)
			case 3: // shared-mode read record
				if pw.ReadShared() != rw.ReadShared() {
					t.Fatalf("seed %d op %d: shared-mode mismatch at %#x", seed, op, uint64(a))
				}
				if pw.ReadShared() {
					paged.RecordSharedRead(pw, tid, e.Time(), site)
					ref.RecordSharedRead(rw, tid, e.Time(), site)
				}
			case 4: // pure lookup, occasionally a reset
				if rng.Intn(500) == 0 {
					paged.Reset()
					ref.Reset()
				}
			}
		}
		if paged.Len() != ref.Len() {
			t.Fatalf("seed %d: Len %d != %d", seed, paged.Len(), ref.Len())
		}
		for _, a := range addrs {
			if !wordsEqual(paged, paged.Peek(a), ref, ref.Peek(a)) {
				t.Fatalf("seed %d: Peek mismatch at %#x", seed, uint64(a))
			}
		}
	}
}

func TestPagedCellStoreMatchesMapCellStore(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := prng.New(uint64(seed) * 977)
		paged, ref := NewCellStore(4, seed), NewMapCellStore(4, seed)
		addrs := diffAddrs()
		for op := 0; op < 6000; op++ {
			a := addrs[rng.Intn(int64(len(addrs)))]
			tid := clock.TID(rng.Intn(8))
			c := Cell{
				E:     clock.MakeEpoch(tid, clock.Time(1+op)),
				Site:  SiteID(rng.Intn(64)),
				Write: rng.Bool(0.5),
			}
			pe := paged.Add(a, c)
			re := ref.Add(a, c)
			if pe != re {
				t.Fatalf("seed %d op %d: eviction %v != %v at %#x", seed, op, pe, re, uint64(a))
			}
			pc, rc := paged.Cells(a), ref.Cells(a)
			if len(pc) != len(rc) {
				t.Fatalf("seed %d op %d: cell count %d != %d", seed, op, len(pc), len(rc))
			}
			for i := range pc {
				if pc[i] != rc[i] {
					t.Fatalf("seed %d op %d: cell %d differs: %+v vs %+v", seed, op, i, pc[i], rc[i])
				}
			}
		}
	}
}

// TestCellStoreEvictionSequence pins replacement to the repository's seeded
// splitmix64 source: victims must be exactly the Intn draws of a
// prng.PRNG seeded with the store's seed, in call order. Reverting the store
// to any other randomness source breaks this test.
func TestCellStoreEvictionSequence(t *testing.T) {
	const seed = 12345
	s := NewCellStore(2, seed)
	want := prng.New(seed)
	a := memmodel.Addr(0x2000)
	// Fill both cells with distinct (tid, kind) records, then force
	// evictions with fresh shapes and track which slot each one lands in.
	s.Add(a, Cell{E: clock.MakeEpoch(0, 1), Site: 1, Write: true})
	s.Add(a, Cell{E: clock.MakeEpoch(1, 1), Site: 2, Write: true})
	for i := 0; i < 32; i++ {
		c := Cell{E: clock.MakeEpoch(clock.TID(2+i%6), clock.Time(1+i/6)), Site: SiteID(10 + i), Write: i%2 == 0}
		cs := s.Cells(a)
		prev := [2]Cell{cs[0], cs[1]}
		refreshed := false
		for _, old := range prev {
			if old.E.TID() == c.E.TID() && old.Write == c.Write {
				refreshed = true
			}
		}
		evicted := s.Add(a, c)
		if refreshed {
			if evicted {
				t.Fatalf("step %d: refresh reported as eviction", i)
			}
			continue
		}
		if !evicted {
			t.Fatalf("step %d: full store did not evict", i)
		}
		victim := want.Intn(2)
		cs = s.Cells(a)
		if cs[victim] != c {
			t.Fatalf("step %d: expected victim slot %d to hold %+v, got %+v (other %+v)",
				i, victim, c, cs[victim], cs[1-victim])
		}
		if other := cs[1-victim]; other != prev[1-victim] {
			t.Fatalf("step %d: non-victim slot changed: %+v -> %+v", i, prev[1-victim], other)
		}
	}
}

func TestPageTableBasics(t *testing.T) {
	var pt PageTable[int]
	if pt.Peek(5) != nil {
		t.Fatal("Peek on empty table should be nil")
	}
	*pt.Get(5) = 42
	if v := pt.Peek(5); v == nil || *v != 42 {
		t.Fatalf("Peek(5) = %v, want 42", v)
	}
	if pt.Allocs() != 1 {
		t.Fatalf("Allocs = %d, want 1 (same page)", pt.Allocs())
	}
	*pt.Get(5 + PageSize) = 7 // second page
	farGranule := uint64(MaxDirPages)*PageSize + 3
	*pt.Get(farGranule) = 9 // beyond the directory: far map
	if pt.Allocs() != 3 {
		t.Fatalf("Allocs = %d, want 3", pt.Allocs())
	}
	if v := pt.Peek(farGranule); v == nil || *v != 9 {
		t.Fatalf("far Peek = %v, want 9", v)
	}
	if v := pt.Peek(farGranule + 1); v == nil || *v != 0 {
		t.Fatal("Peek within an allocated page should return the zero value, not nil")
	}
	pt.Reset()
	if pt.Peek(5) != nil || pt.Peek(farGranule) != nil {
		t.Fatal("Reset did not drop pages")
	}
	if *pt.Get(5) != 0 {
		t.Fatal("slot not zeroed after Reset")
	}
}

func TestMemoryPoolRecycles(t *testing.T) {
	m := NewMemory()
	a := memmodel.Addr(0x100)
	w := m.Word(a)
	w.R, w.RSite = clock.MakeEpoch(1, 3), 9
	m.Inflate(w, 4)
	if st := m.Stats(); st.PoolMisses != 1 || st.PoolHits != 0 {
		t.Fatalf("first inflate should miss the pool: %+v", st)
	}
	m.RecordSharedRead(w, 2, 5, 11)
	m.ClearReads(w)
	if w.ReadShared() || w.R != clock.NoEpoch {
		t.Fatal("ClearReads left read state behind")
	}
	// Second inflation must come from the pool and start clean.
	w.R, w.RSite = clock.MakeEpoch(0, 2), 4
	m.Inflate(w, 4)
	if st := m.Stats(); st.PoolHits != 1 {
		t.Fatalf("second inflate should hit the pool: %+v", st)
	}
	if got := m.ReadVC(w).Get(2); got != 0 {
		t.Fatalf("pooled vector not cleared: component 2 = %d", got)
	}
	if got := m.RSiteOf(w, 2); got != 0 {
		t.Fatalf("pooled site slice not cleared: site 2 = %d", got)
	}
	if m.ReadVC(w).Get(0) != 2 || m.RSiteOf(w, 0) != 4 {
		t.Fatal("pooled inflation did not seed the exclusive read epoch")
	}
}
