// Package server turns the offline FastTrack detector into a parallel,
// streaming detection service: the address space is partitioned by shadow
// page (the same geometry shadow.PageTable uses), every shard runs its own
// copy of detect's access half (detect.Checker), and a sequential router
// replays only the synchronization events through detect's clock half
// (detect.Clocks), handing each access an immutable copy-on-write snapshot
// of its thread's vector clock. Because all accesses to one address
// land in one shard in trace order, and a thread's clock only changes at
// sync operations, per-shard analysis sees exactly the clocks the sequential
// detector would — race sets merge back byte-identical (DESIGN.md §12).
package server

import (
	"runtime"
	"slices"

	"repro/internal/clock"
	"repro/internal/detect"
	"repro/internal/memmodel"
	"repro/internal/shadow"
	"repro/internal/trace"
)

// shardOf maps an address to its shard: accesses on the same 512-granule
// shadow page (shadow.PageShift) always share a shard, so shard state keeps
// the page-level locality the single-detector page table has.
func shardOf(addr memmodel.Addr, shards int) int {
	return int((memmodel.WordOf(addr) >> shadow.PageShift) % uint64(shards))
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

// shardState is one shard's detection state: detect's access half over
// the shard's pages, plus, for each race it found, the global index of the
// access that completed it (the merge key), in its first-detection order.
// Races are deduplicated locally by static pair; the global merge
// re-deduplicates across shards.
type shardState struct {
	chk *detect.Checker
	idx []uint64
}

func newShardState() *shardState { return &shardState{chk: detect.NewChecker()} }

// check analyzes one routed access against its snapshot clock and tags any
// race it found with the access's global index.
func (s *shardState) check(ev *shardEvt, threads int) {
	if ev.write {
		s.chk.Write(ev.vc, ev.tid, ev.addr, ev.site)
	} else {
		s.chk.Read(ev.vc, ev.tid, ev.addr, ev.site, threads)
	}
	for len(s.idx) < s.chk.RaceCount() {
		s.idx = append(s.idx, ev.idx)
	}
}

// mergeShards restores the sequential detector's race list from per-shard
// findings: a k-way merge by ascending global event index (each index lives
// in exactly one shard, so the order is total), deduplicated by static pair
// — exactly the reduction runner uses for jobs-invariance.
func mergeShards(states []*shardState) (races []detect.Race, checks uint64) {
	found := make([][]detect.Race, len(states))
	for i, st := range states {
		found[i] = st.chk.Races()
		checks += st.chk.Checks
	}
	pos := make([]int, len(states))
	seen := make(map[detect.PairKey]struct{})
	for {
		best := -1
		for i, st := range states {
			if pos[i] >= len(st.idx) {
				continue
			}
			if best < 0 || st.idx[pos[i]] < states[best].idx[pos[best]] {
				best = i
			}
		}
		if best < 0 {
			break
		}
		r := found[best][pos[best]]
		pos[best]++
		if _, dup := seen[r.Key()]; dup {
			continue
		}
		seen[r.Key()] = struct{}{}
		races = append(races, r)
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
	slices.SortFunc(out, detect.PairKey.Compare)
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
