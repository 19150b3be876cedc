package detect

import (
	"slices"

	"repro/internal/clock"
	"repro/internal/memmodel"
	"repro/internal/shadow"
)

// Checker is the access half of the FastTrack detector: shadow memory and
// the races found so far, checking each access against a clock the caller
// supplies. Detector composes it with Clocks; each shard of the sharded
// server owns one and checks accesses against router snapshots. These are
// the only FastTrack read and write rules in the repository.
type Checker struct {
	mem    *shadow.Memory
	races  raceSet
	onRace func(Race)

	// Checks counts memory accesses actually analyzed; the cost model uses
	// it and the sampling comparison reports it.
	Checks uint64
}

// NewChecker returns an empty access half whose read vectors are sparse
// clocks.
func NewChecker() *Checker {
	a := newChecker(new(clock.Stats))
	return &a
}

// newChecker returns an access half whose read vectors are sparse clocks
// counted in st, or dense clocks when st is nil.
func newChecker(st *clock.Stats) Checker {
	a := Checker{mem: shadow.NewMemory()}
	if st != nil {
		a.mem.UseSparseClocks(st)
	}
	return a
}

// OnRace registers a callback invoked once per distinct static race.
func (a *Checker) OnRace(f func(Race)) { a.onRace = f }

// ShadowStats exposes the shadow memory's allocation counters; the runtimes
// fold them into the observability metrics at the end of a run.
func (a *Checker) ShadowStats() shadow.MemStats { return a.mem.Stats() }

func (a *Checker) report(r Race) {
	if a.races.add(r) && a.onRace != nil {
		a.onRace(r)
	}
}

// Read analyzes a read of addr by tid at static site against tid's clock c,
// following FastTrack's adaptive read representation. threads is the
// capacity hint for a read vector the read inflates.
func (a *Checker) Read(c *clock.VC, tid clock.TID, addr memmodel.Addr, site shadow.SiteID, threads int) {
	a.Checks++
	w := a.mem.Word(addr)
	e := c.Epoch(tid)

	if w.ReadShared() {
		if a.mem.ReadVC(w).Get(tid) == e.Time() {
			return // same-epoch read
		}
	} else if w.R == e {
		return
	}

	if !c.LeqEpoch(w.W) {
		a.report(Race{Addr: addr, PrevSite: w.WSite, CurSite: site,
			PrevWrite: true, CurWrite: false, PrevTID: w.W.TID(), CurTID: tid})
	}

	if w.ReadShared() {
		a.mem.RecordSharedRead(w, tid, e.Time(), site)
		return
	}
	if w.R == clock.NoEpoch || c.LeqEpoch(w.R) {
		w.R, w.RSite = e, site // exclusive: new read supersedes ordered old one
		return
	}
	// Two concurrent readers: inflate to vector mode (pooled).
	a.mem.Inflate(w, threads)
	a.mem.RecordSharedRead(w, tid, e.Time(), site)
}

// Write analyzes a write of addr by tid at static site against tid's clock c.
func (a *Checker) Write(c *clock.VC, tid clock.TID, addr memmodel.Addr, site shadow.SiteID) {
	a.Checks++
	w := a.mem.Word(addr)
	e := c.Epoch(tid)

	if w.W == e {
		w.WSite = site
		return // same-epoch write
	}
	if !c.LeqEpoch(w.W) {
		a.report(Race{Addr: addr, PrevSite: w.WSite, CurSite: site,
			PrevWrite: true, CurWrite: true, PrevTID: w.W.TID(), CurTID: tid})
	}
	if w.ReadShared() {
		// ForEach visits nonzero components in ascending tid order — the
		// same components, in the same order, as the dense index loop it
		// replaced, so race reports are representation-independent.
		a.mem.ReadVC(w).ForEach(func(t clock.TID, rt clock.Time) {
			if rt > c.Get(t) {
				a.report(Race{Addr: addr, PrevSite: a.mem.RSiteOf(w, t), CurSite: site,
					PrevWrite: false, CurWrite: true, PrevTID: t, CurTID: tid})
			}
		})
	} else if w.R != clock.NoEpoch && !c.LeqEpoch(w.R) {
		a.report(Race{Addr: addr, PrevSite: w.RSite, CurSite: site,
			PrevWrite: false, CurWrite: true, PrevTID: w.R.TID(), CurTID: tid})
	}
	// FastTrack write-clears-reads: any later access ordered after this
	// write is ordered after all reads it superseded; any unordered later
	// access will race with this write instead. The released read-shared
	// slot goes back to the memory's free list.
	w.W, w.WSite = e, site
	a.mem.ClearReads(w)
}

// RaceCount returns the number of distinct static races found.
func (a *Checker) RaceCount() int { return len(a.races.list) }

// Races returns the distinct races in first-detection order.
func (a *Checker) Races() []Race { return a.races.races() }

// RaceKeys returns the normalized static pairs, sorted, for set comparisons
// between detector runs (recall computation in Table 2 / Fig. 10).
func (a *Checker) RaceKeys() []PairKey { return a.races.keys() }

// raceSet keeps the first occurrence of each static race, in detection
// order.
type raceSet struct {
	seen map[PairKey]struct{}
	list []Race
}

// add records r and reports whether its static pair is new.
func (s *raceSet) add(r Race) bool {
	k := r.Key()
	if _, dup := s.seen[k]; dup {
		return false
	}
	if s.seen == nil {
		s.seen = make(map[PairKey]struct{})
	}
	s.seen[k] = struct{}{}
	s.list = append(s.list, r)
	return true
}

// races returns a copy of the races in first-detection order.
func (s *raceSet) races() []Race {
	out := make([]Race, len(s.list))
	copy(out, s.list)
	return out
}

// keys returns the races' static pairs, sorted.
func (s *raceSet) keys() []PairKey {
	out := make([]PairKey, 0, len(s.list))
	for _, r := range s.list {
		out = append(out, r.Key())
	}
	slices.SortFunc(out, PairKey.Compare)
	return out
}
