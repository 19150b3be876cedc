package detect

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/memmodel"
	"repro/internal/prng"
	"repro/internal/shadow"
)

// refDetector is the pre-refactor FastTrack detector: hash-map shadow memory
// (shadow.MapMemory), map-keyed sync clocks, allocation on every inflation.
// It exists only as the behavioural reference for TestDetectorMatchesReference
// — the paged, pooled Detector must report identical races and identical
// shadow state for any event sequence.
type refDetector struct {
	threads []*clock.VC
	syncs   map[SyncID]*clock.VC
	mem     *shadow.MapMemory
	races   map[PairKey]struct{}
}

func newRefDetector() *refDetector {
	return &refDetector{
		syncs: make(map[SyncID]*clock.VC),
		mem:   shadow.NewMapMemory(),
		races: make(map[PairKey]struct{}),
	}
}

func (d *refDetector) thread(tid clock.TID) *clock.VC {
	for int(tid) >= len(d.threads) {
		d.threads = append(d.threads, nil)
	}
	if d.threads[tid] == nil {
		v := clock.New(int(tid) + 1)
		v.Tick(tid)
		d.threads[tid] = v
	}
	return d.threads[tid]
}

func (d *refDetector) sync(s SyncID) *clock.VC {
	v := d.syncs[s]
	if v == nil {
		v = clock.New(0)
		d.syncs[s] = v
	}
	return v
}

func (d *refDetector) fork(p, c clock.TID) {
	pv, cv := d.thread(p), d.thread(c)
	cv.Join(pv)
	cv.Tick(c)
	pv.Tick(p)
}

func (d *refDetector) acquire(tid clock.TID, s SyncID) { d.thread(tid).Join(d.sync(s)) }

func (d *refDetector) release(tid clock.TID, s SyncID) {
	t := d.thread(tid)
	d.sync(s).Join(t)
	t.Tick(tid)
}

func (d *refDetector) report(r Race) { d.races[r.Key()] = struct{}{} }

func (d *refDetector) read(tid clock.TID, addr memmodel.Addr, site shadow.SiteID) {
	c := d.thread(tid)
	w := d.mem.Word(addr)
	e := c.Epoch(tid)
	if w.ReadShared() {
		if d.mem.ReadVC(w).Get(tid) == e.Time() {
			return
		}
	} else if w.R == e {
		return
	}
	if !c.LeqEpoch(w.W) {
		d.report(Race{Addr: addr, PrevSite: w.WSite, CurSite: site,
			PrevWrite: true, CurWrite: false, PrevTID: w.W.TID(), CurTID: tid})
	}
	if w.ReadShared() {
		d.mem.RecordSharedRead(w, tid, e.Time(), site)
		return
	}
	if w.R == clock.NoEpoch || c.LeqEpoch(w.R) {
		w.R, w.RSite = e, site
		return
	}
	d.mem.Inflate(w, len(d.threads))
	d.mem.RecordSharedRead(w, tid, e.Time(), site)
}

func (d *refDetector) write(tid clock.TID, addr memmodel.Addr, site shadow.SiteID) {
	c := d.thread(tid)
	w := d.mem.Word(addr)
	e := c.Epoch(tid)
	if w.W == e {
		w.WSite = site
		return
	}
	if !c.LeqEpoch(w.W) {
		d.report(Race{Addr: addr, PrevSite: w.WSite, CurSite: site,
			PrevWrite: true, CurWrite: true, PrevTID: w.W.TID(), CurTID: tid})
	}
	if w.ReadShared() {
		rvc := d.mem.ReadVC(w)
		for t := clock.TID(0); int(t) < rvc.Len(); t++ {
			rt := rvc.Get(t)
			if rt > 0 && rt > c.Get(t) {
				d.report(Race{Addr: addr, PrevSite: d.mem.RSiteOf(w, t), CurSite: site,
					PrevWrite: false, CurWrite: true, PrevTID: t, CurTID: tid})
			}
		}
	} else if w.R != clock.NoEpoch && !c.LeqEpoch(w.R) {
		d.report(Race{Addr: addr, PrevSite: w.RSite, CurSite: site,
			PrevWrite: false, CurWrite: true, PrevTID: w.R.TID(), CurTID: tid})
	}
	w.W, w.WSite = e, site
	d.mem.ClearReads(w)
}

// TestDetectorMatchesReference drives the paged, pooled Detector and the
// map-backed reference through identical randomized traces (accesses, locks,
// and a sparse sync id exercising the table's map fallback) and requires
// identical race sets and identical shadow state, including under -race.
func TestDetectorMatchesReference(t *testing.T) {
	const threads = 4
	syncIDs := []SyncID{1, 2, 3, SyncID(1) | 1<<30, SyncID(2) | 1<<31}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := prng.New(seed * 0xbeef)
		cur, ref := New(), newRefDetector()
		for tid := clock.TID(1); tid < threads; tid++ {
			cur.Fork(0, tid)
			ref.fork(0, tid)
		}
		var addrs []memmodel.Addr
		for i := 0; i < 20; i++ {
			addrs = append(addrs, memmodel.Addr(0x4000+uint64(i)*memmodel.WordSize))
		}
		for op := 0; op < 5000; op++ {
			tid := clock.TID(rng.Intn(threads))
			switch rng.Intn(8) {
			case 0:
				s := syncIDs[rng.Intn(int64(len(syncIDs)))]
				cur.Acquire(tid, s)
				ref.acquire(tid, s)
			case 1:
				s := syncIDs[rng.Intn(int64(len(syncIDs)))]
				cur.Release(tid, s)
				ref.release(tid, s)
			default:
				a := addrs[rng.Intn(int64(len(addrs)))]
				site := shadow.SiteID(1 + rng.Intn(64))
				if rng.Bool(0.3) {
					cur.Write(tid, a, site)
					ref.write(tid, a, site)
				} else {
					cur.Read(tid, a, site)
					ref.read(tid, a, site)
				}
			}
		}
		keys := cur.RaceKeys()
		if len(keys) != len(ref.races) {
			t.Fatalf("seed %d: %d races vs reference %d", seed, len(keys), len(ref.races))
		}
		for _, k := range keys {
			if _, ok := ref.races[k]; !ok {
				t.Fatalf("seed %d: race %v not in reference", seed, k)
			}
		}
		if cur.mem.Len() != ref.mem.Len() {
			t.Fatalf("seed %d: shadow Len %d vs reference %d", seed, cur.mem.Len(), ref.mem.Len())
		}
		for _, a := range addrs {
			cw, rw := cur.mem.Peek(a), ref.mem.Peek(a)
			if (cw == nil) != (rw == nil) {
				t.Fatalf("seed %d: Peek presence mismatch at %#x", seed, uint64(a))
			}
			if cw == nil {
				continue
			}
			if cw.W != rw.W || cw.R != rw.R || cw.WSite != rw.WSite || cw.ReadShared() != rw.ReadShared() {
				t.Fatalf("seed %d: word state mismatch at %#x: %+v vs %+v", seed, uint64(a), cw, rw)
			}
			if cw.ReadShared() {
				for tid := clock.TID(0); tid < threads; tid++ {
					if cur.mem.ReadVC(cw).Get(tid) != ref.mem.ReadVC(rw).Get(tid) || cur.mem.RSiteOf(cw, tid) != ref.mem.RSiteOf(rw, tid) {
						t.Fatalf("seed %d: read vector mismatch at %#x tid %d", seed, uint64(a), tid)
					}
				}
			}
		}
	}
}

// TestBoundedCellsMatchUnpagedStore checks the bounded detector end to end:
// a detector with Config.Cells and a by-hand replica over MapCellStore (same
// seed) must agree on every race for identical traces.
func TestBoundedCellsMatchUnpagedStore(t *testing.T) {
	const threads = 4
	for seed := uint64(1); seed <= 4; seed++ {
		rng := prng.New(seed * 0x5eed)
		cur := NewWith(Config{Cells: 4, CellSeed: int64(seed)})
		hb := New()
		store := shadow.NewMapCellStore(4, int64(seed))
		refRaces := map[PairKey]struct{}{}
		for tid := clock.TID(1); tid < threads; tid++ {
			cur.Fork(0, tid)
			hb.Fork(0, tid)
		}
		var addrs []memmodel.Addr
		for i := 0; i < 12; i++ {
			addrs = append(addrs, memmodel.Addr(0x8000+uint64(i)*memmodel.WordSize))
		}
		for op := 0; op < 4000; op++ {
			tid := clock.TID(rng.Intn(threads))
			switch rng.Intn(8) {
			case 0:
				s := SyncID(1 + rng.Intn(3))
				cur.Acquire(tid, s)
				hb.Acquire(tid, s)
			case 1:
				s := SyncID(1 + rng.Intn(3))
				cur.Release(tid, s)
				hb.Release(tid, s)
			default:
				a := addrs[rng.Intn(int64(len(addrs)))]
				site := shadow.SiteID(1 + rng.Intn(64))
				isWrite := rng.Bool(0.4)
				cur.Access(tid, a, isWrite, site)
				// Reference: same cell-check logic over the map store.
				c := hb.thread(tid)
				for _, cell := range store.Cells(a) {
					if cell.E.TID() == tid || (!cell.Write && !isWrite) {
						continue
					}
					if !c.LeqEpoch(cell.E) {
						r := Race{Addr: a, PrevSite: cell.Site, CurSite: site,
							PrevWrite: cell.Write, CurWrite: isWrite, PrevTID: cell.E.TID(), CurTID: tid}
						refRaces[r.Key()] = struct{}{}
					}
				}
				store.Add(a, shadow.Cell{E: c.Epoch(tid), Site: site, Write: isWrite})
			}
		}
		keys := cur.RaceKeys()
		if len(keys) != len(refRaces) {
			t.Fatalf("seed %d: %d races vs reference %d", seed, len(keys), len(refRaces))
		}
		for _, k := range keys {
			if _, ok := refRaces[k]; !ok {
				t.Fatalf("seed %d: race %v not in reference", seed, k)
			}
		}
	}
}
