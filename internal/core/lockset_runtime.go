package core

import (
	"repro/internal/clock"
	"repro/internal/detect"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Lockset is the Eraser-baseline runtime: always-on lock-discipline checking
// (§9 related work). It exists for the precision comparison experiment —
// unlike the happens-before runtimes it reports false positives on
// fork/join, condition-variable, and barrier synchronization.
type Lockset struct {
	sim.NopRuntime
	det *detect.LocksetDetector
	eng *sim.Engine

	// SlowScale as in TSan, so cost comparisons are like for like.
	SlowScale float64
}

// NewLockset returns a lockset runtime.
func NewLockset() *Lockset { return &Lockset{det: detect.NewLockset(), SlowScale: 1} }

// Detector exposes the underlying lockset detector.
func (r *Lockset) Detector() *detect.LocksetDetector { return r.det }

// Init implements sim.Runtime.
func (r *Lockset) Init(e *sim.Engine) { r.eng = e }

// SyncAcquire implements sim.Runtime.
func (r *Lockset) SyncAcquire(t *sim.Thread, s sim.SyncID, kind sim.SyncKind) {
	r.eng.ChargeAs(t, r.eng.Config().Cost.SlowSyncHook/2, obs.PhaseSlow) // lockset updates are cheaper than VC joins
	r.det.Acquire(clock.TID(t.ID), detect.SyncID(s), kind)
}

// SyncRelease implements sim.Runtime.
func (r *Lockset) SyncRelease(t *sim.Thread, s sim.SyncID, kind sim.SyncKind) {
	r.eng.ChargeAs(t, r.eng.Config().Cost.SlowSyncHook/2, obs.PhaseSlow)
	r.det.Release(clock.TID(t.ID), detect.SyncID(s), kind)
}

// Access implements sim.Runtime.
func (r *Lockset) Access(t *sim.Thread, m *sim.MemAccess, addr memmodel.Addr) {
	if !m.Hooked {
		return
	}
	r.eng.ChargeAs(t, accessHookCost(r.eng, r.SlowScale), obs.PhaseSlow)
	r.det.Access(clock.TID(t.ID), addr, m.Write, m.Site)
}
