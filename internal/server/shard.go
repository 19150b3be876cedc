// Package server turns the offline FastTrack detector into a parallel,
// streaming detection service: the address space is partitioned by shadow
// page (the same geometry shadow.PageTable uses), every shard runs its own
// FastTrack shadow state, and a sequential clock router replays only the
// synchronization events, handing each access an immutable copy-on-write
// snapshot of its thread's vector clock. Because all accesses to one address
// land in one shard in trace order, and a thread's clock only changes at
// sync operations, per-shard analysis sees exactly the clocks the sequential
// detector would — race sets merge back byte-identical (DESIGN.md §12).
package server

import (
	"runtime"
	"sort"

	"repro/internal/clock"
	"repro/internal/detect"
	"repro/internal/memmodel"
	"repro/internal/shadow"
	"repro/internal/sim"
	"repro/internal/trace"
)

// rwReaderBit mirrors detect's rwlock namespacing: one sync clock for the
// write side of a reader-writer lock, one (with this bit set) for the read
// side. The value is pinned by the wire format, like trace.ReplayVC's use.
const rwReaderBit detect.SyncID = 1 << 31

// shardOf maps an address to its shard: accesses on the same 512-granule
// shadow page (shadow.PageShift) always share a shard, so shard state keeps
// the page-level locality the single-detector page table has.
func shardOf(addr memmodel.Addr, shards int) int {
	return int((memmodel.WordOf(addr) >> shadow.PageShift) % uint64(shards))
}

// clockRouter is the sequential half of the sharded detector: it applies
// every synchronization event (fork/join/acquire/release) to per-thread and
// per-sync vector clocks exactly as detect.Detector does, and hands out
// immutable snapshots of thread clocks for shards to check accesses against.
//
// Snapshots are copy-on-write: handing one out marks the clock shared, and
// the next sync operation that would mutate it clones it first (clock.Clone
// shares the immutable sparse base, so a clone is O(live entries)). Between
// two sync operations of a thread, all its accesses share one snapshot —
// the "epoch batching" that keeps snapshot traffic proportional to sync
// density, not access density. Epoch-collapsing is disabled here (Rebase
// would mutate clocks shards still hold); race results are representation-
// independent, so the answer is unchanged.
type clockRouter struct {
	threads []*clock.VC
	shared  []bool // threads[i] has outstanding snapshots
	syncs   map[detect.SyncID]*clock.VC
	stats   *clock.Stats
}

func newClockRouter() *clockRouter {
	return &clockRouter{
		syncs: make(map[detect.SyncID]*clock.VC),
		stats: new(clock.Stats),
	}
}

// numThreads returns the thread-slice length, the capacity hint shards pass
// to shadow.Memory.Inflate (capacity only — never affects results).
func (r *clockRouter) numThreads() int { return len(r.threads) }

func (r *clockRouter) thread(tid clock.TID) *clock.VC {
	if int(tid) >= len(r.threads) {
		nt := make([]*clock.VC, int(tid)+1)
		copy(nt, r.threads)
		r.threads = nt
		ns := make([]bool, int(tid)+1)
		copy(ns, r.shared)
		r.shared = ns
	}
	if r.threads[tid] == nil {
		v := clock.NewSparse(r.stats)
		v.Tick(tid) // a thread's own component starts at 1
		r.threads[tid] = v
	}
	return r.threads[tid]
}

// mutable returns tid's clock for in-place mutation, cloning first if a
// shard still holds a snapshot of it.
func (r *clockRouter) mutable(tid clock.TID) *clock.VC {
	v := r.thread(tid)
	if r.shared[tid] {
		v = v.Clone()
		r.threads[tid] = v
		r.shared[tid] = false
	}
	return v
}

// snapshot returns tid's current clock as an immutable snapshot: the caller
// may read it concurrently; the router will never mutate it again.
func (r *clockRouter) snapshot(tid clock.TID) *clock.VC {
	v := r.thread(tid)
	r.shared[tid] = true
	return v
}

func (r *clockRouter) sync(s detect.SyncID) *clock.VC {
	v := r.syncs[s]
	if v == nil {
		v = clock.NewSparse(r.stats)
		r.syncs[s] = v
	}
	return v
}

func (r *clockRouter) fork(parent, child clock.TID) {
	r.thread(parent)
	r.thread(child)
	p, c := r.mutable(parent), r.mutable(child)
	c.Join(p)
	c.Tick(child)
	p.Tick(parent)
}

func (r *clockRouter) join(parent, child clock.TID) {
	r.thread(parent)
	r.thread(child)
	p, c := r.mutable(parent), r.mutable(child)
	p.Join(c)
	c.Tick(child)
}

func (r *clockRouter) acquire(tid clock.TID, s detect.SyncID) {
	r.mutable(tid).Join(r.sync(s))
}

func (r *clockRouter) release(tid clock.TID, s detect.SyncID) {
	t := r.mutable(tid)
	r.sync(s).Join(t)
	t.Tick(tid)
}

// applySync applies one non-access event with the same kind semantics as
// detect.AcquireKind/ReleaseKind (rwlock read holds join only the writer
// side; read unlocks publish into the reader side).
func (r *clockRouter) applySync(e trace.Event) {
	tid := clock.TID(e.TID)
	switch e.Kind {
	case trace.KAcquire:
		switch e.SyncKind {
		case sim.SyncWrite:
			r.acquire(tid, e.Sync)
			r.acquire(tid, e.Sync|rwReaderBit)
		default:
			r.acquire(tid, e.Sync)
		}
	case trace.KRelease:
		switch e.SyncKind {
		case sim.SyncRead:
			r.release(tid, e.Sync|rwReaderBit)
		default:
			r.release(tid, e.Sync)
		}
	case trace.KFork:
		r.fork(tid, clock.TID(e.Other))
	case trace.KJoin:
		r.join(tid, clock.TID(e.Other))
	}
}

// shardEvt is one access routed to a shard: the event's payload plus the
// thread-clock snapshot current at routing time and the global event index
// (the merge key that restores sequential first-detection order).
type shardEvt struct {
	vc    *clock.VC
	addr  memmodel.Addr
	idx   uint64
	site  shadow.SiteID
	tid   clock.TID
	write bool
}

// indexedRace is a race found in one shard, tagged with the global index of
// the access that completed it.
type indexedRace struct {
	r   detect.Race
	idx uint64
}

// shardState is one shard's detection state: a private shadow memory plus
// the races found so far, deduplicated locally by static pair in
// first-occurrence order (the global merge re-deduplicates across shards).
type shardState struct {
	mem    *shadow.Memory
	stats  *clock.Stats
	races  []indexedRace
	seen   map[detect.PairKey]struct{}
	checks uint64
}

func newShardState() *shardState {
	st := new(clock.Stats)
	m := shadow.NewMemory()
	m.UseSparseClocks(st)
	return &shardState{mem: m, stats: st, seen: make(map[detect.PairKey]struct{})}
}

func (s *shardState) report(r detect.Race, idx uint64) {
	k := r.Key()
	if _, dup := s.seen[k]; dup {
		return
	}
	s.seen[k] = struct{}{}
	s.races = append(s.races, indexedRace{r: r, idx: idx})
}

// access replays detect.Detector.Read/Write against a snapshot clock. The
// logic is a line-for-line port: any drift here breaks the byte-identical
// guarantee TestShardedMatchesReference pins.
func (s *shardState) access(ev shardEvt, threads int) {
	s.checks++
	c := ev.vc
	w := s.mem.Word(ev.addr)
	e := c.Epoch(ev.tid)

	if ev.write {
		if w.W == e {
			w.WSite = ev.site
			return // same-epoch write
		}
		if !c.LeqEpoch(w.W) {
			s.report(detect.Race{Addr: ev.addr, PrevSite: w.WSite, CurSite: ev.site,
				PrevWrite: true, CurWrite: true, PrevTID: w.W.TID(), CurTID: ev.tid}, ev.idx)
		}
		if w.ReadShared() {
			w.RVC.ForEach(func(t clock.TID, rt clock.Time) {
				if rt > c.Get(t) {
					s.report(detect.Race{Addr: ev.addr, PrevSite: w.RSiteOf(t), CurSite: ev.site,
						PrevWrite: false, CurWrite: true, PrevTID: t, CurTID: ev.tid}, ev.idx)
				}
			})
		} else if w.R != clock.NoEpoch && !c.LeqEpoch(w.R) {
			s.report(detect.Race{Addr: ev.addr, PrevSite: w.RSite, CurSite: ev.site,
				PrevWrite: false, CurWrite: true, PrevTID: w.R.TID(), CurTID: ev.tid}, ev.idx)
		}
		w.W, w.WSite = e, ev.site
		s.mem.ClearReads(w)
		return
	}

	if w.ReadShared() {
		if w.RVC.Get(ev.tid) == e.Time() {
			return // same-epoch read
		}
	} else if w.R == e {
		return
	}
	if !c.LeqEpoch(w.W) {
		s.report(detect.Race{Addr: ev.addr, PrevSite: w.WSite, CurSite: ev.site,
			PrevWrite: true, CurWrite: false, PrevTID: w.W.TID(), CurTID: ev.tid}, ev.idx)
	}
	if w.ReadShared() {
		w.RecordSharedRead(ev.tid, e.Time(), ev.site)
		return
	}
	if w.R == clock.NoEpoch || c.LeqEpoch(w.R) {
		w.R, w.RSite = e, ev.site
		return
	}
	s.mem.Inflate(w, threads)
	w.RecordSharedRead(ev.tid, e.Time(), ev.site)
}

// mergeShards restores the sequential detector's race list from per-shard
// findings: a k-way merge by ascending global event index (each index lives
// in exactly one shard, so the order is total), deduplicated by static pair
// — exactly the reduction runner uses for jobs-invariance.
func mergeShards(states []*shardState) (races []detect.Race, checks uint64) {
	pos := make([]int, len(states))
	seen := make(map[detect.PairKey]struct{})
	for {
		best := -1
		for i, st := range states {
			if pos[i] >= len(st.races) {
				continue
			}
			if best < 0 || st.races[pos[i]].idx < states[best].races[pos[best]].idx {
				best = i
			}
		}
		if best < 0 {
			break
		}
		ir := states[best].races[pos[best]]
		pos[best]++
		if _, dup := seen[ir.r.Key()]; dup {
			continue
		}
		seen[ir.r.Key()] = struct{}{}
		races = append(races, ir.r)
	}
	for _, st := range states {
		checks += st.checks
	}
	return races, checks
}

// Report is the outcome of a sharded detection run, online or offline. Its
// accessors mirror detect.Detector's so callers can diff the two directly.
type Report struct {
	Name   string
	Shards int
	// Events is every event ingested; Checks the accesses analyzed; Shed
	// the accesses dropped by the overload governor (offline runs never
	// shed, so Checks+Shed equals the trace's access count either way).
	Events        uint64
	Checks        uint64
	Shed          uint64
	GovernorTrips uint64
	races         []detect.Race
}

// Sampled reports whether the governor shed any accesses: the run degraded
// to sampling-mode detection and the race set is a subset of the full one.
func (r *Report) Sampled() bool { return r.Shed > 0 }

// Coverage is the fraction of accesses analyzed (1 when nothing was shed);
// the sampling-mode recall bound reported to clients.
func (r *Report) Coverage() float64 {
	total := r.Checks + r.Shed
	if total == 0 {
		return 1
	}
	return float64(r.Checks) / float64(total)
}

// RaceCount returns the number of distinct static races found.
func (r *Report) RaceCount() int { return len(r.races) }

// Races returns the distinct races in first-detection order.
func (r *Report) Races() []detect.Race { return r.races }

// RaceKeys returns the normalized static pairs, sorted, like
// detect.Detector.RaceKeys.
func (r *Report) RaceKeys() []detect.PairKey {
	out := make([]detect.PairKey, 0, len(r.races))
	for _, rc := range r.races {
		out = append(out, rc.Key())
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// ReplaySharded analyzes a recorded trace with `shards` parallel detection
// shards on `jobs` workers (0 = GOMAXPROCS): it feeds the trace through a
// lossless Session, so offline and served detection share one pipeline.
// The race list is byte-identical to trace.Replay(t).Races() at every
// shard and worker count. The error is always nil.
func ReplaySharded(t *trace.Trace, shards, jobs int) (*Report, error) {
	if jobs < 1 {
		jobs = runtime.GOMAXPROCS(0)
	}
	sess := NewSession(SessionConfig{Shards: shards, Workers: jobs})
	t.ForEach(sess.Feed)
	return sess.Finish(t.Name), nil
}
