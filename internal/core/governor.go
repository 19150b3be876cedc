package core

import (
	"math/bits"

	"repro/internal/sim"
)

// GovernorConfig tunes the adaptive fallback governor: an abort-rate
// tripwire that degrades a pathological thread (then the whole run) to the
// software slow path, with recovery probing to re-enter HTM mode once the
// fast path stops thrashing. The zero value disables the governor entirely,
// preserving the ungoverned runtime's behaviour bit for bit.
//
// The governor watches a sliding window of each thread's fast-path region
// outcomes. When the abort fraction in a full window reaches TripFraction
// the thread is degraded: its next ForcedRegions regions run on the slow
// path without attempting a transaction (cause "governor"). It then probes —
// one region on the fast path — and either recovers (probe commits) or
// backs off, multiplying the forced interval by ProbeBackoff up to
// MaxForcedRegions. If every live worker is degraded at once the run-wide
// tripwire fires and the next GlobalRegions region begins anywhere in the
// run are forced slow before per-thread probing resumes.
type GovernorConfig struct {
	// Enabled turns the governor on. All other fields are ignored (and no
	// behaviour changes) while it is false.
	Enabled bool
	// Window is the number of recent fast-path region outcomes tracked per
	// thread (≤ 64); the tripwire only fires on a full window.
	Window int
	// TripFraction is the abort fraction within a full window that degrades
	// the thread.
	TripFraction float64
	// ForcedRegions is the initial number of regions a degraded thread runs
	// on the slow path before its first recovery probe.
	ForcedRegions int
	// ProbeBackoff multiplies the forced interval after a failed probe.
	ProbeBackoff int
	// MaxForcedRegions caps the forced interval growth.
	MaxForcedRegions int
	// GlobalRegions is the run-wide forced-slow window engaged when every
	// live worker is degraded simultaneously.
	GlobalRegions int
	// UnknownRetryBudget allows the governor to retry unknown-status aborts
	// on the fast path (with backoff) before falling back, softening
	// interrupt storms. Zero means unknown aborts fall back immediately,
	// exactly as the ungoverned §4.2 policy does.
	UnknownRetryBudget int
	// BackoffBase is the stall in cycles charged before fast-path retry
	// attempt n: BackoffBase << (n-1), capped at BackoffCap. Applies to both
	// pure-retry and unknown-budget retries while the governor is enabled.
	BackoffBase int64
	// BackoffCap bounds the exponential backoff stall.
	BackoffCap int64
}

func (g GovernorConfig) withDefaults() GovernorConfig {
	if !g.Enabled {
		return g
	}
	if g.Window <= 0 {
		g.Window = 16
	}
	if g.Window > 64 {
		g.Window = 64
	}
	if g.TripFraction <= 0 {
		g.TripFraction = 0.5
	}
	if g.ForcedRegions <= 0 {
		g.ForcedRegions = 8
	}
	if g.ProbeBackoff <= 1 {
		g.ProbeBackoff = 2
	}
	if g.MaxForcedRegions <= 0 {
		g.MaxForcedRegions = 128
	}
	if g.GlobalRegions <= 0 {
		g.GlobalRegions = 32
	}
	if g.BackoffBase <= 0 {
		g.BackoffBase = 32
	}
	if g.BackoffCap <= 0 {
		g.BackoffCap = 1024
	}
	return g
}

// backoffCost is the stall charged before retry attempt n (1-based).
func (g GovernorConfig) backoffCost(attempt int) int64 {
	if attempt < 1 {
		attempt = 1
	}
	c := g.BackoffBase
	for i := 1; i < attempt; i++ {
		c <<= 1
		if c >= g.BackoffCap {
			return g.BackoffCap
		}
	}
	if c > g.BackoffCap {
		c = g.BackoffCap
	}
	return c
}

// governorForces decides, at region begin, whether the governor forces this
// region onto the slow path. It also consumes the run-wide degradation
// window and flags recovery probes.
func (r *TxRace) governorForces(t *sim.Thread, c *threadCtx) bool {
	g := &r.opts.Governor
	if !g.Enabled {
		return false
	}
	if r.govGlobalLeft > 0 {
		r.govGlobalLeft--
		if r.govGlobalLeft == 0 {
			if o := r.obs; o != nil {
				o.GovernorGlobalEnd(t.ID, t.Clock)
			}
		}
		return true
	}
	if !c.govDegraded {
		return false
	}
	if c.govForcedLeft > 0 {
		c.govForcedLeft--
		return true
	}
	// Forced interval exhausted: this region is a recovery probe on the
	// fast path. Its commit recovers the thread; its abort backs off.
	c.govProbing = true
	r.stats.GovernorProbes++
	if o := r.obs; o != nil {
		o.GovernorProbe(t.ID, t.Clock, c.govProbeInterval)
	}
	return false
}

// governorCommit records a committed fast-path region (including loop-cut
// commits) — a successful probe recovers the thread into HTM mode.
func (r *TxRace) governorCommit(t *sim.Thread, c *threadCtx) {
	g := &r.opts.Governor
	if !g.Enabled {
		return
	}
	if c.govProbing {
		c.govProbing = false
		c.govDegraded = false
		c.govForcedLeft = 0
		c.govProbeInterval = 0
		c.govWindow, c.govCount = 0, 0
		r.govDegraded--
		r.stats.GovernorRecoveries++
		if o := r.obs; o != nil {
			o.GovernorRecover(t.ID, t.Clock)
		}
		return
	}
	r.governorRecord(t, c, false)
}

// governorAbort records a fast-path region that fell back to the slow path —
// a failed probe multiplies the forced interval instead.
func (r *TxRace) governorAbort(t *sim.Thread, c *threadCtx) {
	g := &r.opts.Governor
	if !g.Enabled {
		return
	}
	if c.govProbing {
		c.govProbing = false
		c.govProbeInterval *= g.ProbeBackoff
		if c.govProbeInterval > g.MaxForcedRegions {
			c.govProbeInterval = g.MaxForcedRegions
		}
		c.govForcedLeft = c.govProbeInterval
		return
	}
	r.governorRecord(t, c, true)
}

// governorRecord shifts one outcome into the thread's sliding window and
// trips the degradation when a full window's abort fraction crosses the
// threshold.
func (r *TxRace) governorRecord(t *sim.Thread, c *threadCtx, abort bool) {
	g := &r.opts.Governor
	if c.govDegraded {
		return
	}
	var bit uint64
	if abort {
		bit = 1
	}
	mask := uint64(1)<<uint(g.Window) - 1
	c.govWindow = (c.govWindow<<1 | bit) & mask
	if c.govCount < g.Window {
		c.govCount++
		return
	}
	if float64(bits.OnesCount64(c.govWindow)) < g.TripFraction*float64(g.Window) {
		return
	}
	c.govDegraded = true
	c.govProbeInterval = g.ForcedRegions
	c.govForcedLeft = g.ForcedRegions
	c.govWindow, c.govCount = 0, 0
	r.govDegraded++
	r.stats.GovernorTrips++
	if o := r.obs; o != nil {
		o.GovernorDegrade(t.ID, t.Clock)
	}
	// Run-wide tripwire: every live worker degraded at once means the fast
	// path is pathological machine-wide, not just for one thread.
	if live := r.slow.eng.LiveWorkers(); live >= 2 && r.govDegraded >= live {
		r.govGlobalLeft = g.GlobalRegions
		r.stats.GovernorGlobal++
		if o := r.obs; o != nil {
			o.GovernorGlobal(t.ID, t.Clock, g.GlobalRegions)
		}
	}
}
