package bench

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/htm"
	"repro/internal/memmodel"
	"repro/internal/sim"
)

// Hot-path rows for the simulate→HTM inner loop: the HTM's reference
// conflict scan (Config.RefScan) paired old/new in one binary with the
// line-ownership directory, like the shadow map/paged rows, and the sim
// engine's interpreter on a fixed instruction mix.

// benchHTMAccess measures a transactional access with 8 concurrent
// transactions on disjoint footprints — the paper's full-machine case, where
// the reference resolver probes every other context's caches on every access
// and the directory answers with one lookup. Footprints (256 lines per
// transaction) fit the tracking caches, so the steady state measures
// conflict resolution, not capacity-abort churn.
func benchHTMAccess(refScan bool) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := htm.DefaultConfig()
		cfg.RefScan = refScan
		h := htm.New(cfg)
		for tid := 0; tid < 8; tid++ {
			h.Begin(tid)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tid := i & 7
			h.Access(tid, memmodel.Addr(uint64(tid)<<20|uint64(i&0xff)<<6), i&1 == 0)
			if _, ok := h.Pending(tid); ok {
				h.Resolve(tid)
				h.Begin(tid)
			}
		}
	}
}

// benchHTMBackendAccess is benchHTMAccess for the pluggable conflict
// backends: the same 8-transaction disjoint-footprint loop against the
// backend selected by name, so one suite compares dir, tag, and bounded on
// identical work. lineMask bounds the per-transaction footprint — the tag
// row keeps the dir row's 256 lines (tags track no sets, footprint size is
// free), while the bounded row uses 16 lines so both capped sets stay below
// their entry limits and the row measures conflict testing, not overflow
// dooms.
func benchHTMBackendAccess(backend string, lineMask uint64) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := htm.DefaultConfig()
		cfg.Backend = backend
		h := htm.New(cfg)
		for tid := 0; tid < 8; tid++ {
			h.Begin(tid)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tid := i & 7
			h.Access(tid, memmodel.Addr(uint64(tid)<<20|(uint64(i)&lineMask)<<6), i&1 == 0)
			if _, ok := h.Pending(tid); ok {
				h.Resolve(tid)
				h.Begin(tid)
			}
		}
	}
}

// benchHTMIdle measures the non-transactional access with zero transactions
// active — the empty-machine fast path that dominates every workload.
func benchHTMIdle() func(b *testing.B) {
	return func(b *testing.B) {
		h := htm.New(htm.DefaultConfig())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Access(i&7, memmodel.Addr(uint64(i)<<3), i&1 == 0)
		}
	}
}

// dispatchProgram is the fixed instruction mix the interpreter row executes:
// one worker running a 4000-iteration loop of two accesses and a compute,
// with interrupts and jitter disabled. A single worker keeps the scheduler's
// clock-tie sampling out of the loop, so ns/op measures instruction fetch
// and dispatch.
func dispatchProgram() *sim.Program {
	body := []sim.Instr{&sim.Loop{ID: 1, Count: 4000, Body: []sim.Instr{
		&sim.MemAccess{Write: true, Addr: sim.Indexed(0, 1), Site: 1},
		&sim.MemAccess{Addr: sim.Random(1<<20, 4096), Site: 2},
		&sim.Compute{Cycles: 3},
	}}}
	return &sim.Program{Workers: [][]sim.Instr{body}}
}

// benchSimDispatch measures one full engine run of the fixed program; each
// iteration executes the same ~12k instructions, so ns/op tracks
// interpreter dispatch cost directly.
func benchSimDispatch() func(b *testing.B) {
	return func(b *testing.B) {
		p := dispatchProgram()
		cfg := sim.Config{
			Seed:      1,
			Cores:     4,
			HWThreads: 8,
			MaxSteps:  1 << 22,
			Cost:      cost.Default(),
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sim.NewEngine(cfg).Run(p, &sim.NopRuntime{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
