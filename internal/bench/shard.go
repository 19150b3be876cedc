package bench

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/detect"
	"repro/internal/memmodel"
	"repro/internal/server"
	"repro/internal/shadow"
	"repro/internal/trace"
)

// shardTraceEvents sizes the synthetic trace the shard rows replay: large
// enough that per-shard detection dominates the sequential router stage,
// small enough that one op stays in the tens of milliseconds.
const shardTraceEvents = 120_000

var (
	shardTraceOnce sync.Once
	shardTrace     *trace.Trace
)

// buildShardTrace deterministically generates a detection-heavy trace: eight
// threads sweeping a multi-page working set with periodic lock handoffs, the
// same access mix as detect/sweep but in recorded form, so the shard rows
// measure exactly what ReplaySharded does to a real trace.
func buildShardTrace() *trace.Trace {
	tr := &trace.Trace{Name: "bench-shard"}
	const threads = 8
	for c := 1; c < threads; c++ {
		tr.Append(trace.Event{Kind: trace.KFork, TID: 0, Other: int32(c)})
	}
	rng := uint64(42)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	for i := 0; i < shardTraceEvents; i++ {
		tid := int32(i % threads)
		if i%2048 == 0 {
			s := detect.SyncID(1 + next(4))
			tr.Append(trace.Event{Kind: trace.KRelease, TID: tid, Sync: s})
			tr.Append(trace.Event{Kind: trace.KAcquire, TID: (tid + 1) % threads, Sync: s})
			continue
		}
		// Spread across ~64 shadow pages so every shard count gets work.
		page := next(64)
		off := next(512)
		tr.Append(trace.Event{
			Kind: trace.KAccess, TID: tid, Write: i%4 == 0,
			Addr: memmodel.Addr(uint64(page)<<(shadow.PageShift+3) | uint64(off)<<3),
			Site: shadow.SiteID(1 + i%32),
		})
	}
	return tr
}

// benchShardedReplay measures one full sharded replay of the synthetic
// trace per op.
func benchShardedReplay(shards int) func(b *testing.B) {
	return func(b *testing.B) {
		shardTraceOnce.Do(func() { shardTrace = buildShardTrace() })
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := server.ReplaySharded(shardTrace, shards, shards); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// gateShards is the core-count-aware acceptance check for the sharded
// detector: on a machine with real parallelism the 8-shard replay must beat
// the 1-shard replay by the advertised margin; on starved runners (the
// 1-CPU containers some CI legs use) only a sanity bound on sharding
// overhead is checkable.
func gateShards(rs []Result) error {
	s1, ok1 := Find(rs, "detect/shard/1")
	s8, ok2 := Find(rs, "detect/shard/8")
	if !ok1 || !ok2 {
		return fmt.Errorf("bench: suite missing detect/shard results")
	}
	switch cores := runtime.NumCPU(); {
	case cores >= 8:
		// The headline claim: >= 2x events/sec at 8 shards on 8 cores.
		if s8.NsPerOp > s1.NsPerOp*0.5 {
			return fmt.Errorf("bench: 8-shard replay %.0f ns/op, less than 2x faster than 1-shard's %.0f ns/op on %d cores",
				s8.NsPerOp, s1.NsPerOp, cores)
		}
	case cores >= 4:
		if s8.NsPerOp > s1.NsPerOp*0.8 {
			return fmt.Errorf("bench: 8-shard replay %.0f ns/op, not ahead of 1-shard's %.0f ns/op on %d cores",
				s8.NsPerOp, s1.NsPerOp, cores)
		}
	default:
		// No parallelism available: routing + merge overhead must still be
		// bounded relative to the sequential replay.
		if s8.NsPerOp > s1.NsPerOp*1.5 {
			return fmt.Errorf("bench: 8-shard replay %.0f ns/op, over 1.5x the 1-shard's %.0f ns/op even allowing zero parallel win (%d cores)",
				s8.NsPerOp, s1.NsPerOp, cores)
		}
	}
	return nil
}
