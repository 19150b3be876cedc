package detect

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/memmodel"
	"repro/internal/prng"
	"repro/internal/shadow"
)

// TestSparseMatchesRefDense256Threads drives the default sparse/delta
// detector and the retained dense reference (Config.RefDense) through the
// same randomized 256-thread trace with realistic idle-thread skew — most
// ops come from a small live subset, a long idle tail only occasionally
// syncs — and requires identical races, checks, shadow-word state and
// per-thread clock values. An aggressive CollapseEvery forces many
// epoch-collapse rounds through the middle of the trace.
func TestSparseMatchesRefDense256Threads(t *testing.T) {
	const threads = 256
	const live = 12
	syncIDs := []SyncID{1, 2, 3, 4, SyncID(5) | 1<<30, SyncID(6) | 1<<31}
	for seed := uint64(1); seed <= 4; seed++ {
		rng := prng.New(seed * 0xfeed)
		cur := NewWith(Config{CollapseEvery: 16})
		ref := NewWith(Config{RefDense: true})
		for tid := clock.TID(1); tid < threads; tid++ {
			cur.Fork(0, tid)
			ref.Fork(0, tid)
		}
		var addrs []memmodel.Addr
		for i := 0; i < 24; i++ {
			addrs = append(addrs, memmodel.Addr(0x9000+uint64(i)*memmodel.WordSize))
		}
		pick := func() clock.TID {
			if rng.Bool(0.9) {
				return clock.TID(rng.Intn(live))
			}
			return clock.TID(rng.Intn(threads))
		}
		for op := 0; op < 8000; op++ {
			tid := pick()
			switch rng.Intn(10) {
			case 0:
				s := syncIDs[rng.Intn(int64(len(syncIDs)))]
				cur.Acquire(tid, s)
				ref.Acquire(tid, s)
			case 1:
				s := syncIDs[rng.Intn(int64(len(syncIDs)))]
				cur.Release(tid, s)
				ref.Release(tid, s)
			case 2:
				// Simulated barrier arrival+departure across a random cohort:
				// the full-barrier pattern that densifies clocks.
				s := syncIDs[rng.Intn(int64(len(syncIDs)))]
				n := 4 + rng.Intn(12)
				for i := int64(0); i < n; i++ {
					bt := clock.TID(rng.Intn(threads))
					cur.Release(bt, s)
					ref.Release(bt, s)
				}
				for i := int64(0); i < n; i++ {
					bt := clock.TID(rng.Intn(threads))
					cur.Acquire(bt, s)
					ref.Acquire(bt, s)
				}
			default:
				a := addrs[rng.Intn(int64(len(addrs)))]
				site := shadow.SiteID(1 + rng.Intn(64))
				if rng.Bool(0.3) {
					cur.Write(tid, a, site)
					ref.Write(tid, a, site)
				} else {
					cur.Read(tid, a, site)
					ref.Read(tid, a, site)
				}
			}
		}
		if cur.ClockStats().Collapses == 0 {
			t.Fatalf("seed %d: trace never collapsed; test is vacuous", seed)
		}
		if cur.Checks != ref.Checks {
			t.Fatalf("seed %d: checks %d vs %d", seed, cur.Checks, ref.Checks)
		}
		ck, rk := cur.RaceKeys(), ref.RaceKeys()
		if len(ck) != len(rk) {
			t.Fatalf("seed %d: %d races vs dense reference %d", seed, len(ck), len(rk))
		}
		for i := range ck {
			if ck[i] != rk[i] {
				t.Fatalf("seed %d: race %d differs: %v vs %v", seed, i, ck[i], rk[i])
			}
		}
		// First-detection order must match too: the drivers render races in
		// that order, and byte-identical output depends on it.
		cr, rr := cur.Races(), ref.Races()
		for i := range cr {
			if cr[i] != rr[i] {
				t.Fatalf("seed %d: race order %d differs: %v vs %v", seed, i, cr[i], rr[i])
			}
		}
		for tid := clock.TID(0); tid < threads; tid++ {
			cv, rv := cur.ThreadVC(tid), ref.ThreadVC(tid)
			for x := clock.TID(0); x < threads; x++ {
				if cv.Get(x) != rv.Get(x) {
					t.Fatalf("seed %d: thread %d clock differs at %d: %d vs %d",
						seed, tid, x, cv.Get(x), rv.Get(x))
				}
			}
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
				t.Fatalf("seed %d: word state mismatch at %#x", seed, uint64(a))
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

// TestJoinAllChildrenMatchesSequential pins the batched join-all against
// per-child Join on both representations.
func TestJoinAllChildrenMatchesSequential(t *testing.T) {
	for _, cfg := range []Config{{}, {RefDense: true}} {
		const threads = 64
		batch := NewWith(cfg)
		seq := NewWith(cfg)
		var children []clock.TID
		for tid := clock.TID(1); tid < threads; tid++ {
			batch.Fork(0, tid)
			seq.Fork(0, tid)
			children = append(children, tid)
		}
		for _, c := range children {
			batch.Release(c, SyncID(uint32(c)%5+1))
			seq.Release(c, SyncID(uint32(c)%5+1))
		}
		batch.JoinAllChildren(0, children)
		for _, c := range children {
			seq.Join(0, c)
		}
		for tid := clock.TID(0); tid < threads; tid++ {
			bv, sv := batch.ThreadVC(tid), seq.ThreadVC(tid)
			for x := clock.TID(0); x < threads; x++ {
				if bv.Get(x) != sv.Get(x) {
					t.Fatalf("cfg %+v: thread %d differs at %d: %d vs %d",
						cfg, tid, x, bv.Get(x), sv.Get(x))
				}
			}
		}
	}
}

// TestVCDetectorSparseMatchesRefDense runs the Djit⁺ detector both ways
// over a randomized trace: per-variable sparse clocks must not change
// detection or report order.
func TestVCDetectorSparseMatchesRefDense(t *testing.T) {
	const threads = 96
	for seed := uint64(1); seed <= 4; seed++ {
		rng := prng.New(seed * 0xd11e)
		cur, ref := NewVCWith(Config{}), NewVCWith(Config{RefDense: true})
		for tid := clock.TID(1); tid < threads; tid++ {
			cur.Fork(0, tid)
			ref.Fork(0, tid)
		}
		var addrs []memmodel.Addr
		for i := 0; i < 16; i++ {
			addrs = append(addrs, memmodel.Addr(0x7000+uint64(i)*memmodel.WordSize))
		}
		for op := 0; op < 4000; op++ {
			tid := clock.TID(rng.Intn(threads))
			switch rng.Intn(8) {
			case 0:
				s := SyncID(1 + rng.Intn(4))
				cur.Acquire(tid, s)
				ref.Acquire(tid, s)
			case 1:
				s := SyncID(1 + rng.Intn(4))
				cur.Release(tid, s)
				ref.Release(tid, s)
			default:
				a := addrs[rng.Intn(int64(len(addrs)))]
				site := shadow.SiteID(1 + rng.Intn(32))
				w := rng.Bool(0.4)
				cur.Access(tid, a, w, site)
				ref.Access(tid, a, w, site)
			}
		}
		ck, rk := cur.RaceKeys(), ref.RaceKeys()
		if len(ck) != len(rk) {
			t.Fatalf("seed %d: %d races vs %d", seed, len(ck), len(rk))
		}
		for i := range ck {
			if ck[i] != rk[i] {
				t.Fatalf("seed %d: race %d differs", seed, i)
			}
		}
	}
}
