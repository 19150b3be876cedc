package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/memmodel"
)

func TestTouchFillsWithoutEviction(t *testing.T) {
	c := New(4, 2)
	for l := memmodel.Line(0); l < 8; l++ {
		if _, ev := c.Touch(l); ev {
			t.Fatalf("eviction while filling at line %d", l)
		}
	}
	if c.Len() != 8 {
		t.Fatalf("Len = %d, want 8", c.Len())
	}
	for l := memmodel.Line(0); l < 8; l++ {
		if !c.Contains(l) {
			t.Fatalf("line %d missing after fill", l)
		}
	}
}

func TestEvictionIsLRUWithinSet(t *testing.T) {
	c := New(1, 2) // single set, two ways
	c.Touch(10)
	c.Touch(20)
	c.Touch(10) // refresh 10 → 20 becomes LRU
	ev, ok := c.Touch(30)
	if !ok || ev != 20 {
		t.Fatalf("evicted %d,%v, want 20,true", ev, ok)
	}
	if !c.Contains(10) || !c.Contains(30) || c.Contains(20) {
		t.Fatal("post-eviction residency wrong")
	}
}

func TestSetIndexing(t *testing.T) {
	c := New(4, 1)
	// Lines 0 and 4 map to set 0; line 1 to set 1. Touching 1 must not
	// evict anything from set 0.
	c.Touch(0)
	if _, ev := c.Touch(1); ev {
		t.Fatal("cross-set touch evicted")
	}
	ev, ok := c.Touch(4)
	if !ok || ev != 0 {
		t.Fatalf("same-set conflict: evicted %d,%v, want 0,true", ev, ok)
	}
}

func TestReset(t *testing.T) {
	c := New(4, 2)
	c.Touch(1)
	c.Touch(2)
	c.Reset()
	if c.Len() != 0 || c.Contains(1) || c.Contains(2) {
		t.Fatal("Reset did not empty the cache")
	}
	// Reusable after reset.
	if _, ev := c.Touch(3); ev {
		t.Fatal("eviction right after reset")
	}
}

func TestResident(t *testing.T) {
	c := New(2, 2)
	lines := []memmodel.Line{3, 8, 5}
	for _, l := range lines {
		c.Touch(l)
	}
	got := c.Resident()
	if len(got) != 3 {
		t.Fatalf("Resident len = %d, want 3", len(got))
	}
	set := map[memmodel.Line]bool{}
	for _, l := range got {
		set[l] = true
	}
	for _, l := range lines {
		if !set[l] {
			t.Fatalf("line %d missing from Resident", l)
		}
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, g := range []struct{ sets, ways int }{{0, 1}, {3, 1}, {4, 0}, {-4, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) must panic", g.sets, g.ways)
				}
			}()
			New(g.sets, g.ways)
		}()
	}
}

// TestPropertyResidencyBound checks that under random access streams the
// cache never exceeds capacity, every reported eviction was resident, and a
// just-touched line is always resident.
func TestPropertyResidencyBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(8, 4)
		resident := map[memmodel.Line]bool{}
		for i := 0; i < 2000; i++ {
			l := memmodel.Line(rng.Intn(200))
			ev, ok := c.Touch(l)
			if ok {
				if !resident[ev] {
					return false // evicted something not resident
				}
				delete(resident, ev)
			}
			resident[l] = true
			if !c.Contains(l) {
				return false
			}
			if c.Len() > c.Capacity() {
				return false
			}
			if c.Len() != len(resident) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestOnEvictFiresOnTouch pins both that the callback fires exactly when
// Touch reports an eviction and that the victim is the LRU line of the set.
func TestOnEvictFiresOnTouch(t *testing.T) {
	c := New(1, 2)
	var fired []memmodel.Line
	c.SetOnEvict(func(l memmodel.Line) { fired = append(fired, l) })
	c.Touch(10)
	c.Touch(20)
	c.Touch(10) // refresh: 20 becomes LRU
	if len(fired) != 0 {
		t.Fatalf("callback fired without eviction: %v", fired)
	}
	ev, ok := c.Touch(30)
	if !ok || ev != 20 {
		t.Fatalf("evicted %d,%v, want 20,true", ev, ok)
	}
	if len(fired) != 1 || fired[0] != 20 {
		t.Fatalf("callback saw %v, want [20]", fired)
	}
	// Next victim must be 10 (LRU after the refresh ordering 30, 10).
	if ev, ok := c.Touch(40); !ok || ev != 10 {
		t.Fatalf("second eviction %d,%v, want 10,true", ev, ok)
	}
	if len(fired) != 2 || fired[1] != 10 {
		t.Fatalf("callback saw %v, want [20 10]", fired)
	}
}

// TestOnEvictFiresOnReset pins that Reset reports every resident line to the
// callback, MRU-first within each set, and that a reset cache fires nothing
// further until repopulated.
func TestOnEvictFiresOnReset(t *testing.T) {
	c := New(2, 2)
	var fired []memmodel.Line
	c.SetOnEvict(func(l memmodel.Line) { fired = append(fired, l) })
	for _, l := range []memmodel.Line{2, 4, 3} { // set0: 4,2 (MRU-first); set1: 3
		c.Touch(l)
	}
	c.Reset()
	want := []memmodel.Line{4, 2, 3}
	if len(fired) != len(want) {
		t.Fatalf("Reset fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("Reset fired %v, want %v (MRU-first per set)", fired, want)
		}
	}
	fired = fired[:0]
	c.Reset()
	if len(fired) != 0 {
		t.Fatalf("empty Reset fired %v", fired)
	}
}

// TestOnEvictConservation checks under random streams that lines reported
// evicted plus lines still resident always account for every inserted line.
func TestOnEvictConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(4, 2)
		live := map[memmodel.Line]bool{}
		c.SetOnEvict(func(l memmodel.Line) {
			if !live[l] {
				t.Errorf("evicted non-resident line %d", l)
			}
			delete(live, l)
		})
		for i := 0; i < 1000; i++ {
			l := memmodel.Line(rng.Intn(64))
			c.Touch(l)
			live[l] = true
			if len(live) != c.Len() {
				return false
			}
		}
		c.Reset()
		return len(live) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestGeometryAccessors(t *testing.T) {
	c := New(16, 8)
	if c.Sets() != 16 || c.Ways() != 8 || c.Capacity() != 128 {
		t.Fatalf("geometry accessors wrong: %d %d %d", c.Sets(), c.Ways(), c.Capacity())
	}
}

// TestResetOrderMatchesFullWalk pins Reset's eviction order — ascending set,
// MRU-first within a set — against an independent LRU model walked over
// every set, for sparse occupancy spread across all eight bitmap words of a
// 512-set cache and over repeated fill/reset rounds.
func TestResetOrderMatchesFullWalk(t *testing.T) {
	const sets, ways = 512, 4
	rng := rand.New(rand.NewSource(7))
	c := New(sets, ways)
	var fired []memmodel.Line
	c.SetOnEvict(func(l memmodel.Line) { fired = append(fired, l) })
	for round := 0; round < 20; round++ {
		model := make([][]memmodel.Line, sets)
		// A handful of hot sets per round, so most bitmap words stay sparse.
		hot := make([]int, 1+rng.Intn(24))
		for i := range hot {
			hot[i] = rng.Intn(sets)
		}
		for i := 0; i < 200; i++ {
			s := hot[rng.Intn(len(hot))]
			l := memmodel.Line(s + sets*rng.Intn(6))
			set := model[s]
			for j, x := range set {
				if x == l {
					set = append(set[:j], set[j+1:]...)
					break
				}
			}
			set = append([]memmodel.Line{l}, set...)
			if len(set) > ways {
				set = set[:ways]
			}
			model[s] = set
			c.Touch(l)
		}
		var want []memmodel.Line
		for _, set := range model {
			want = append(want, set...)
		}
		fired = fired[:0]
		c.Reset()
		// LRU victims fired during the fill phase were cleared above; only
		// the Reset departures remain.
		if len(fired) != len(want) {
			t.Fatalf("round %d: Reset fired %d lines, want %d", round, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("round %d: Reset order diverges at %d: got %d, want %d", round, i, fired[i], want[i])
			}
		}
		if c.Len() != 0 || len(c.Resident()) != 0 {
			t.Fatalf("round %d: cache not empty after Reset", round)
		}
	}
}

// TestNewAllocatesOnce pins that a cache is carved out of one backing array:
// the HTM builds two per thread per run.
func TestNewAllocatesOnce(t *testing.T) {
	var c *Cache
	if n := testing.AllocsPerRun(100, func() { c = New(512, 8) }); n > 2 {
		t.Fatalf("New allocated %v times, want at most 2", n)
	}
	_ = c
}
