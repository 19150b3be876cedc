package detect

import (
	"repro/internal/clock"
	"repro/internal/memmodel"
	"repro/internal/shadow"
)

// VCDetector is a Djit⁺-style happens-before detector (Pozniansky &
// Schuster's MultiRace lineage, [58] in the paper): it keeps a full vector
// clock per variable for reads and writes instead of FastTrack's adaptive
// epochs. Detection power is identical to Detector — both implement exact
// happens-before — but every access pays O(threads) vector work where
// FastTrack usually pays O(1). BenchmarkDetectorAlgorithms quantifies the
// gap, which is the optimization FastTrack (and hence TSan, and hence this
// reproduction's slow path) is built on.
//
// It keeps its own clock half rather than composing Clocks: it is the Djit⁺
// oracle the differential tests check the shared FastTrack core against.
type VCDetector struct {
	threads []*clock.VC
	syncs   vcTable
	vars    shadow.PageTable[vcVar]
	races   raceSet

	cfg   Config
	stats *clock.Stats

	Checks uint64
}

type vcVar struct {
	w      *clock.VC
	r      *clock.VC
	wSites []shadow.SiteID // per-thread last write site
	rSites []shadow.SiteID
}

// NewVC returns an empty Djit⁺-style detector in the default sparse-clock
// configuration. Per-variable clocks are where sparsity pays most here: a
// variable touched by a handful of threads carries a handful of entries
// however many threads the program has.
func NewVC() *VCDetector { return NewVCWith(Config{}) }

// NewVCWith returns an empty Djit⁺-style detector with the given clock
// configuration.
func NewVCWith(cfg Config) *VCDetector {
	d := &VCDetector{cfg: cfg, stats: new(clock.Stats)}
	if !cfg.RefDense {
		d.syncs.mk = d.newClock
	}
	return d
}

func (d *VCDetector) newClock() *clock.VC {
	if d.cfg.RefDense {
		return clock.New(0)
	}
	return clock.NewSparse(d.stats)
}

// ClockStats returns the sparse-representation transition counters.
func (d *VCDetector) ClockStats() clock.Stats { return *d.stats }

func (d *VCDetector) thread(tid clock.TID) *clock.VC {
	if int(tid) >= len(d.threads) {
		nt := make([]*clock.VC, int(tid)+1)
		copy(nt, d.threads)
		d.threads = nt
	}
	if d.threads[tid] == nil {
		var v *clock.VC
		if d.cfg.RefDense {
			v = clock.New(int(tid) + 1)
		} else {
			v = clock.NewSparse(d.stats)
		}
		v.Tick(tid)
		d.threads[tid] = v
	}
	return d.threads[tid]
}

func (d *VCDetector) sync(s SyncID) *clock.VC { return d.syncs.get(s) }

// Fork, Join, Acquire, Release mirror Detector's happens-before transfer.
func (d *VCDetector) Fork(parent, child clock.TID) {
	p, c := d.thread(parent), d.thread(child)
	c.Join(p)
	c.Tick(child)
	p.Tick(parent)
}

// Join records child's termination.
func (d *VCDetector) Join(parent, child clock.TID) {
	d.thread(parent).Join(d.thread(child))
	d.thread(child).Tick(child)
}

// Acquire joins the sync object's clock into the thread.
func (d *VCDetector) Acquire(tid clock.TID, s SyncID) { d.thread(tid).Join(d.sync(s)) }

// Release publishes the thread's clock through the sync object.
func (d *VCDetector) Release(tid clock.TID, s SyncID) {
	t := d.thread(tid)
	d.sync(s).Join(t)
	t.Tick(tid)
}

func (d *VCDetector) varOf(a memmodel.Addr) *vcVar {
	v := d.vars.Get(memmodel.WordOf(a))
	if v.w == nil {
		v.w, v.r = d.newClock(), d.newClock()
	}
	return v
}

func setSite(sites *[]shadow.SiteID, tid clock.TID, site shadow.SiteID) {
	if int(tid) >= len(*sites) {
		ns := make([]shadow.SiteID, int(tid)+1)
		copy(ns, *sites)
		*sites = ns
	}
	(*sites)[tid] = site
}

func siteOf(sites []shadow.SiteID, tid clock.TID) shadow.SiteID {
	if int(tid) >= len(sites) {
		return 0
	}
	return sites[tid]
}

// scan reports every component of prev that is not covered by cur —
// Djit⁺'s per-access vector comparison. ForEach visits only live
// components in ascending tid order, so a sparse per-variable clock costs
// O(touching threads) rather than O(all threads), and reports stay in the
// dense loop's order.
func (d *VCDetector) scan(prev *clock.VC, sites []shadow.SiteID, prevWrite bool,
	cur *clock.VC, tid clock.TID, isWrite bool, addr memmodel.Addr, site shadow.SiteID) {
	prev.ForEach(func(t clock.TID, pt clock.Time) {
		if t == tid {
			return
		}
		if pt > cur.Get(t) {
			d.races.add(Race{Addr: addr, PrevSite: siteOf(sites, t), CurSite: site,
				PrevWrite: prevWrite, CurWrite: isWrite, PrevTID: t, CurTID: tid})
		}
	})
}

// Read analyzes a read.
func (d *VCDetector) Read(tid clock.TID, addr memmodel.Addr, site shadow.SiteID) {
	d.Checks++
	c := d.thread(tid)
	v := d.varOf(addr)
	d.scan(v.w, v.wSites, true, c, tid, false, addr, site)
	v.r.Set(tid, c.Get(tid))
	setSite(&v.rSites, tid, site)
}

// Write analyzes a write.
func (d *VCDetector) Write(tid clock.TID, addr memmodel.Addr, site shadow.SiteID) {
	d.Checks++
	c := d.thread(tid)
	v := d.varOf(addr)
	d.scan(v.w, v.wSites, true, c, tid, true, addr, site)
	d.scan(v.r, v.rSites, false, c, tid, true, addr, site)
	v.w.Set(tid, c.Get(tid))
	setSite(&v.wSites, tid, site)
}

// Access dispatches to Read or Write.
func (d *VCDetector) Access(tid clock.TID, addr memmodel.Addr, isWrite bool, site shadow.SiteID) {
	if isWrite {
		d.Write(tid, addr, site)
	} else {
		d.Read(tid, addr, site)
	}
}

// RaceCount returns the number of distinct static races.
func (d *VCDetector) RaceCount() int { return len(d.races.list) }

// RaceKeys returns the sorted normalized race pairs.
func (d *VCDetector) RaceKeys() []PairKey { return d.races.keys() }
