package shadow

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/clock"
	"repro/internal/memmodel"
	"repro/internal/prng"
)

// pointerField returns the path of the first field of t the garbage
// collector would have to scan, or "" when t holds no pointers.
func pointerField(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p := pointerField(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
		return ""
	case reflect.Array:
		return pointerField(t.Elem(), path+"[]")
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Interface, reflect.Chan, reflect.Func, reflect.String:
		return path + " (" + t.Kind().String() + ")"
	}
	return ""
}

// TestWordLayout pins Word at 32 bytes with no pointer-bearing field: four
// words per application granule, as TSan's four 64-bit cells, and shadow
// pages the garbage collector never scans. Read-shared state belongs in the
// store's side table, not in the word.
func TestWordLayout(t *testing.T) {
	if got := unsafe.Sizeof(Word{}); got != 32 {
		t.Fatalf("sizeof(Word) = %d, want 32", got)
	}
	if p := pointerField(reflect.TypeOf(Word{}), "Word"); p != "" {
		t.Fatalf("Word must be pointer-free; %s is not", p)
	}
}

// TestReadSharedMatchesMapMemory drives the paged memory and the map
// reference through randomized inflate / shared-read / write-clear / Reset
// scripts with tids 0..70 and requires identical words, read vectors,
// per-thread sites, Len and Peek: for the touched word after every step,
// for every word every 500 steps and at the end. A model of the free list
// checks the pool counters and that a released slot is the next one reused
// (last freed, first reused). Enough words are read-shared at once to fill
// several side-table chunks.
func TestReadSharedMatchesMapMemory(t *testing.T) {
	const maxTID = 70
	for seed := uint64(1); seed <= 6; seed++ {
		rng := prng.New(seed * 0x51de)
		paged, ref := NewMemory(), NewMapMemory()
		if seed%2 == 0 {
			paged.UseSparseClocks(new(clock.Stats))
		}
		var addrs []memmodel.Addr
		for i := 0; i < 4*readChunk; i++ {
			addrs = append(addrs, memmodel.Addr(0x100000+uint64(i)*memmodel.WordSize))
		}
		addrs = append(addrs, memmodel.Addr(uint64(MaxDirPages)<<(PageShift+3)))
		same := func(op int, a memmodel.Addr) {
			pw, rw := paged.Peek(a), ref.Peek(a)
			if !wordsEqual(paged, pw, ref, rw) {
				t.Fatalf("seed %d op %d: word at %#x differs", seed, op, uint64(a))
			}
			if pw == nil || !pw.ReadShared() {
				return
			}
			for tid := clock.TID(0); tid <= maxTID+8; tid++ {
				if paged.RSiteOf(pw, tid) != ref.RSiteOf(rw, tid) || paged.ReadVC(pw).Get(tid) != ref.ReadVC(rw).Get(tid) {
					t.Fatalf("seed %d op %d: read set at %#x differs at tid %d", seed, op, uint64(a), tid)
				}
			}
		}
		var free []uint32 // the model free list, last freed at the end
		var hits, misses uint64
		var topSlot uint32
		for op := 0; op < 20000; op++ {
			a := addrs[rng.Intn(int64(len(addrs)))]
			tid := clock.TID(rng.Intn(maxTID + 1))
			site := SiteID(1 + rng.Intn(64))
			tm := clock.Time(1 + rng.Intn(1000))
			pw, rw := paged.Word(a), ref.Word(a)
			switch rng.Intn(8) {
			case 0, 1, 2: // inflate, seeding the exclusive read if there is one
				if !pw.ReadShared() && rng.Bool(0.5) {
					e := clock.MakeEpoch(tid, tm)
					pw.R, pw.RSite = e, site
					rw.R, rw.RSite = e, site
				}
				wasShared := pw.ReadShared()
				threads := 1 + int(rng.Intn(maxTID+1))
				paged.Inflate(pw, threads)
				ref.Inflate(rw, threads)
				switch {
				case wasShared:
				case len(free) > 0:
					hits++
					if want := free[len(free)-1]; pw.slot != want {
						t.Fatalf("seed %d op %d: inflate took slot %d, want last freed %d", seed, op, pw.slot, want)
					}
					free = free[:len(free)-1]
				default:
					misses++
				}
				topSlot = max(topSlot, pw.slot)
			case 3, 4: // shared-mode read
				if pw.ReadShared() {
					paged.RecordSharedRead(pw, tid, tm, site)
					ref.RecordSharedRead(rw, tid, tm, site)
				}
			case 5, 6: // write clears reads
				e := clock.MakeEpoch(tid, tm)
				pw.W, pw.WSite = e, site
				rw.W, rw.WSite = e, site
				if pw.ReadShared() {
					free = append(free, pw.slot)
				}
				paged.ClearReads(pw)
				ref.ClearReads(rw)
			case 7:
				if rng.Intn(1000) == 0 {
					paged.Reset()
					ref.Reset()
					free = free[:0]
				}
			}
			if st := paged.Stats(); st.PoolHits != hits || st.PoolMisses != misses {
				t.Fatalf("seed %d op %d: pool hits/misses %d/%d, model %d/%d", seed, op, st.PoolHits, st.PoolMisses, hits, misses)
			}
			if paged.Len() != ref.Len() {
				t.Fatalf("seed %d op %d: Len %d != %d", seed, op, paged.Len(), ref.Len())
			}
			same(op, a)
			if op%500 == 0 || op == 19999 {
				for _, a := range addrs {
					same(op, a)
				}
			}
		}
		if hits == 0 || misses == 0 || topSlot <= 2*readChunk {
			t.Fatalf("seed %d: script too shallow (hits %d, misses %d, highest slot %d)", seed, hits, misses, topSlot)
		}
	}
}

// allocBytes returns the bytes f allocates, averaged over a few runs.
func allocBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 4
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestPageTableBoundedHostileAddresses pins the directory bound: one access
// anywhere, including just below the dense window's edge, costs a fresh
// store under 1 MB, in the FastTrack memory and the bounded cell store.
func TestPageTableBoundedHostileAddresses(t *testing.T) {
	edge := memmodel.Addr(uint64(MaxDirPages)<<(PageShift+3) - memmodel.WordSize)
	for _, a := range []memmodel.Addr{1 << 30, 1<<35 - 8, 1 << 36, 1 << 62, edge} {
		mem := allocBytes(func() {
			m := NewMemory()
			m.Word(a).W = clock.MakeEpoch(1, 1)
		})
		cells := allocBytes(func() {
			s := NewCellStore(4, 1)
			s.Add(a, Cell{E: clock.MakeEpoch(1, 1)})
		})
		if mem >= 1e6 || cells >= 1e6 {
			t.Errorf("one access at %#x allocates %d B (Memory), %d B (CellStore); want < 1 MB", uint64(a), mem, cells)
		}
	}
}

// TestPageTableBoundedAscendingTouches pins geometric directory growth:
// touching pages in ascending order copies the directory O(log n) times,
// not once per page (quadratic: about 1 GB for these 2^14 pages), and the
// last page of the window is still indexed directly.
func TestPageTableBoundedAscendingTouches(t *testing.T) {
	const pages = 1 << 14
	var pt PageTable[struct{}] // zero-size pages: only the directory allocates
	got := allocBytes(func() {
		pt = PageTable[struct{}]{}
		for d := uint64(0); d < pages; d++ {
			pt.Get(d << PageShift)
		}
	})
	final := uint64(pages) * uint64(unsafe.Sizeof(uintptr(0)))
	if got > 3*final {
		t.Fatalf("ascending touches allocated %d B for a %d B directory; want at most 3x", got, final)
	}
	pt.Get((MaxDirPages - 1) << PageShift)
	if len(pt.dir) != MaxDirPages || pt.far != nil {
		t.Fatalf("directory len %d, far map %v: the window's last page must be indexed directly", len(pt.dir), pt.far != nil)
	}
}
