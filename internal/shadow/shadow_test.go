package shadow

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/memmodel"
)

func TestMemoryGranularity(t *testing.T) {
	m := NewMemory()
	w1 := m.Word(0)
	w2 := m.Word(7) // same 8-byte granule
	w3 := m.Word(8) // next granule
	if w1 != w2 {
		t.Fatal("addresses within one granule must share state")
	}
	if w1 == w3 {
		t.Fatal("different granules must not share state")
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
}

func TestPeek(t *testing.T) {
	m := NewMemory()
	if m.Peek(64) != nil {
		t.Fatal("Peek must not allocate")
	}
	m.Word(64)
	if m.Peek(64) == nil {
		t.Fatal("Peek must find allocated state")
	}
}

func TestInflate(t *testing.T) {
	m := NewMemory()
	w := m.Word(0x40)
	w.R, w.RSite = clock.MakeEpoch(2, 5), 42
	m.Inflate(w, 4)
	if !w.ReadShared() {
		t.Fatal("not read-shared after inflate")
	}
	if m.ReadVC(w).Get(2) != 5 {
		t.Fatalf("seed read epoch lost: %v", m.ReadVC(w))
	}
	if m.RSiteOf(w, 2) != 42 {
		t.Fatalf("seed read site lost: %d", m.RSiteOf(w, 2))
	}
	// Idempotent.
	m.Inflate(w, 4)
	if m.ReadVC(w).Get(2) != 5 {
		t.Fatal("second inflate clobbered state")
	}
}

func TestRecordSharedRead(t *testing.T) {
	m := NewMemory()
	w := m.Word(0x40)
	m.Inflate(w, 2)
	m.RecordSharedRead(w, 5, 9, 77) // beyond initial size: must grow
	if m.ReadVC(w).Get(5) != 9 || m.RSiteOf(w, 5) != 77 {
		t.Fatal("shared read not recorded")
	}
	if m.RSiteOf(w, 9) != 0 {
		t.Fatal("unknown tid must read zero site")
	}
}

func TestCellStoreRefreshSameThreadKind(t *testing.T) {
	s := NewCellStore(4, 1)
	a := memmodel.Addr(128)
	s.Add(a, Cell{E: clock.MakeEpoch(1, 1), Site: 10, Write: true})
	s.Add(a, Cell{E: clock.MakeEpoch(1, 2), Site: 11, Write: true})
	cells := s.Cells(a)
	if len(cells) != 1 {
		t.Fatalf("same thread+kind must refresh, got %d cells", len(cells))
	}
	if cells[0].E.Time() != 2 || cells[0].Site != 11 {
		t.Fatalf("refresh kept stale record: %+v", cells[0])
	}
}

func TestCellStoreKeepsDistinctKinds(t *testing.T) {
	s := NewCellStore(4, 1)
	a := memmodel.Addr(128)
	s.Add(a, Cell{E: clock.MakeEpoch(1, 1), Write: true})
	s.Add(a, Cell{E: clock.MakeEpoch(1, 1), Write: false})
	s.Add(a, Cell{E: clock.MakeEpoch(2, 1), Write: true})
	if len(s.Cells(a)) != 3 {
		t.Fatalf("distinct (thread,kind) records must coexist, got %d", len(s.Cells(a)))
	}
}

func TestCellStoreEvictsWhenFull(t *testing.T) {
	s := NewCellStore(2, 1)
	a := memmodel.Addr(0)
	if s.Add(a, Cell{E: clock.MakeEpoch(0, 1), Write: true}) {
		t.Fatal("no eviction while filling")
	}
	if s.Add(a, Cell{E: clock.MakeEpoch(1, 1), Write: true}) {
		t.Fatal("no eviction while filling")
	}
	if !s.Add(a, Cell{E: clock.MakeEpoch(2, 1), Write: true}) {
		t.Fatal("third distinct record must evict")
	}
	if len(s.Cells(a)) != 2 {
		t.Fatalf("bounded at N=2, got %d", len(s.Cells(a)))
	}
}

func TestCellStoreReset(t *testing.T) {
	s := NewCellStore(2, 1)
	s.Add(0, Cell{E: clock.MakeEpoch(0, 1)})
	s.Reset()
	if len(s.Cells(0)) != 0 {
		t.Fatal("Reset did not clear records")
	}
}

func TestCellStoreBadNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("N<=0 must panic")
		}
	}()
	NewCellStore(0, 1)
}

func TestMemoryReset(t *testing.T) {
	m := NewMemory()
	m.Word(0)
	m.Reset()
	if m.Len() != 0 {
		t.Fatal("Reset did not clear words")
	}
}

// TestPoolRecyclingNeverLeaksSparseEntries pins the pool/Clear contract for
// sparse read vectors: a recycled clock that carried high-tid entries — and
// may have promoted to dense during a wide read-shared episode — must read
// all-zeros when Inflate hands it to the next word, even when an
// epoch-collapse has since shrunk the live thread count.
func TestPoolRecyclingNeverLeaksSparseEntries(t *testing.T) {
	var st clock.Stats
	m := NewMemory()
	m.UseSparseClocks(&st)

	// Word A goes read-shared with a long, dense tail of readers.
	a := m.Word(0x100)
	m.Inflate(a, 1024)
	for tid := clock.TID(0); tid < 1024; tid += 3 {
		m.RecordSharedRead(a, tid, clock.Time(tid)+1, SiteID(tid%50+1))
	}
	if m.ReadVC(a).Sparse() {
		t.Fatal("setup: a wide read vector should have promoted to dense")
	}
	// Write-clears-reads returns the vector to the pool.
	m.ClearReads(a)

	// Word B inflates from the pool at a much smaller live-thread count.
	b := m.Word(0x200)
	b.R = clock.MakeEpoch(2, 7)
	m.Inflate(b, 8)
	if got := m.Stats().PoolHits; got != 1 {
		t.Fatalf("expected a pool hit, stats %+v", m.Stats())
	}
	if !m.ReadVC(b).Sparse() {
		t.Fatal("recycled clock must come back in sparse form")
	}
	for tid := clock.TID(0); tid < 1100; tid++ {
		want := clock.Time(0)
		if tid == 2 {
			want = 7 // the seeded exclusive-read epoch
		}
		if got := m.ReadVC(b).Get(tid); got != want {
			t.Fatalf("stale entry leaked: recycled RVC.Get(%d) = %d, want %d", tid, got, want)
		}
		if tid != 2 && m.RSiteOf(b, tid) != 0 {
			t.Fatalf("stale site leaked at tid %d", tid)
		}
	}
}
