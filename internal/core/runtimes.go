package core

import (
	"math/rand"

	"repro/internal/clock"
	"repro/internal/detect"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Baseline is the uninstrumented runtime: no hooks, no detector, no HTM.
// Running the original program under it yields the "original time" column of
// Table 1 that all overheads are normalized against.
type Baseline struct{ sim.NopRuntime }

// TSan is the always-on happens-before runtime, standing in for Google's
// ThreadSanitizer: every hooked access pays the shadow-check cost and goes
// to the detector; every sync operation pays the vector-clock cost. Run it
// on a program instrumented by instrument.ForTSan.
//
// Built by NewSampling, it is also the paper's "TSan+Sampling" baseline
// (Figures 11–13): each hooked access is analyzed only with probability
// rate, in the style of LiteRace/Pacer.
type TSan struct {
	sim.NopRuntime
	det *detect.Detector
	eng *sim.Engine

	// rate is the probability an access is analyzed; rng draws the
	// decision, and is nil when every access is analyzed.
	rate float64
	rng  *rand.Rand

	// SlowScale multiplies the per-access hook cost; see Options.SlowScale.
	SlowScale float64
}

// NewTSan returns a TSan runtime in the default sparse-clock configuration.
func NewTSan() *TSan { return NewTSanWith(detect.Config{}) }

// NewTSanWith returns a TSan runtime over a specific detector configuration:
// detect.Config.RefDense selects the retained dense reference path for
// differential runs, and detect.Config.Cells stock TSan's bounded shadow
// cells (§5), which the shadow experiment measures.
func NewTSanWith(cfg detect.Config) *TSan {
	return &TSan{det: detect.NewWith(cfg), SlowScale: 1}
}

// NewSampling returns a TSan runtime that analyzes each hooked access with
// probability rate in [0,1], drawing from a PRNG seeded with seed; at rate 1
// it draws nothing and is TSan. A skipped access pays only the sampling
// gate and leaves no shadow state, so both halves of a race must be sampled
// for the race to be found — the recall loss of Figure 13. Synchronization
// is always tracked: dropping it would corrupt the happens-before relation
// rather than merely lose coverage.
func NewSampling(rate float64, seed int64, cfg detect.Config) *TSan {
	if rate < 0 || rate > 1 {
		panic("core: sampling rate out of [0,1]")
	}
	r := NewTSanWith(cfg)
	if rate < 1 {
		r.rate, r.rng = rate, rand.New(rand.NewSource(seed))
	}
	return r
}

// Detector exposes the underlying detector.
func (r *TSan) Detector() *detect.Detector { return r.det }

// Init implements sim.Runtime.
func (r *TSan) Init(e *sim.Engine) { r.eng = e }

// Fork implements sim.Runtime.
func (r *TSan) Fork(p, c *sim.Thread) { r.det.Fork(clock.TID(p.ID), clock.TID(c.ID)) }

// Joined implements sim.Runtime.
func (r *TSan) Joined(p, c *sim.Thread) { r.det.Join(clock.TID(p.ID), clock.TID(c.ID)) }

// JoinedAll implements sim.BatchJoiner: the engine's join-all point becomes
// one tree-structured N-way clock merge instead of N sequential joins.
func (r *TSan) JoinedAll(p *sim.Thread, cs []*sim.Thread) {
	r.det.JoinAllChildren(clock.TID(p.ID), childTIDs(cs))
}

// childTIDs converts a thread batch to detector TIDs.
func childTIDs(cs []*sim.Thread) []clock.TID {
	tids := make([]clock.TID, len(cs))
	for i, c := range cs {
		tids[i] = clock.TID(c.ID)
	}
	return tids
}

// SyncAcquire implements sim.Runtime.
func (r *TSan) SyncAcquire(t *sim.Thread, s sim.SyncID, kind sim.SyncKind) {
	r.eng.ChargeAs(t, r.eng.Config().Cost.SlowSyncHook, obs.PhaseSlow)
	detect.AcquireKind(r.det, clock.TID(t.ID), detect.SyncID(s), kind)
}

// SyncRelease implements sim.Runtime.
func (r *TSan) SyncRelease(t *sim.Thread, s sim.SyncID, kind sim.SyncKind) {
	r.eng.ChargeAs(t, r.eng.Config().Cost.SlowSyncHook, obs.PhaseSlow)
	detect.ReleaseKind(r.det, clock.TID(t.ID), detect.SyncID(s), kind)
}

// Atomic implements sim.Runtime. Atomics are synchronization, so they are
// never sampled away.
func (r *TSan) Atomic(t *sim.Thread, m *sim.AtomicRMW, addr memmodel.Addr) {
	r.eng.ChargeAs(t, r.eng.Config().Cost.SlowSyncHook, obs.PhaseSlow)
	detect.AtomicOp(r.det, clock.TID(t.ID), addr, m.Site)
}

// Access implements sim.Runtime.
func (r *TSan) Access(t *sim.Thread, m *sim.MemAccess, addr memmodel.Addr) {
	if !m.Hooked {
		return
	}
	if r.rng != nil && r.rng.Float64() >= r.rate {
		r.eng.ChargeAs(t, r.eng.Config().Cost.SampleGate, obs.PhaseSample)
		return
	}
	r.eng.ChargeAs(t, accessHookCost(r.eng, r.SlowScale), obs.PhaseSlow)
	r.det.Access(clock.TID(t.ID), addr, m.Write, m.Site)
}

// accessHookCost is the per-access detector hook cost every software
// runtime pays: the engine's SlowAccessHook scaled by the runtime's
// SlowScale.
func accessHookCost(e *sim.Engine, scale float64) int64 {
	return int64(float64(e.Config().Cost.SlowAccessHook) * scale)
}

// Finish folds the detector's shadow allocation and clock-representation
// counters into the metrics. The exact shadow's counters read zero under
// bounded cells, and the cell store's without them.
func (r *TSan) Finish(e *sim.Engine) {
	s := r.det.ShadowStats()
	e.Config().Obs.ShadowMemStats(s.Pages, s.PoolHits, s.PoolMisses)
	e.Config().Obs.ShadowCellStats(r.det.CellStats().Pages)
	cs := r.det.ClockStats()
	e.Config().Obs.ClockSparseStats(cs.Promotions, cs.Collapses, cs.Fallbacks)
}
