package htm

import (
	"fmt"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/prng"
)

// The line-ownership directory (accessDir) must be observationally identical
// to the reference O(active-transactions) scan (accessRef, Config.RefScan).
// These tests drive a directory machine and a reference machine with the same
// randomized operation sequences and compare every observable after every
// step: pending statuses, delivered statuses, commit outcomes, footprint
// sizes, exposed conflict lines, diagnostics, and the stats counters.

// diffAddrs mixes word-level false sharing within a few lines, distinct lines
// spread across cache sets, page-crossing lines, and lines beyond the
// directory's flat bound (the far-map fallback in shadow.PageTable).
func diffAddrs() []memmodel.Addr {
	var out []memmodel.Addr
	for i := 0; i < 32; i++ { // 8 lines, word-granular offsets (false sharing)
		out = append(out, memmodel.Addr(0x1000+uint64(i)*8))
	}
	for i := 0; i < 24; i++ { // distinct lines across sets
		out = append(out, memmodel.Addr(uint64(i)<<memmodel.LineShift))
	}
	for i := 0; i < 8; i++ { // cross page-table pages
		out = append(out, memmodel.Addr(uint64(i+1)<<20))
	}
	for i := 0; i < 8; i++ { // line index beyond MaxDirPages*PageSize: far map
		out = append(out, memmodel.Addr(1<<40+uint64(i)<<memmodel.LineShift))
	}
	return out
}

func diffConfigs() []Config {
	small := Config{
		WriteSets: 4, WriteWays: 2,
		ReadSets: 8, ReadWays: 2,
		MaxConcurrent: 4,
	}
	responder := small
	responder.ResponderWins = true
	exposed := small
	exposed.ExposeConflictAddress = true
	word := small
	word.GranularityShift = 3
	word.ExposeConflictAddress = true
	return []Config{small, responder, exposed, word, DefaultConfig()}
}

// compareObservables fails if the two machines disagree on anything a caller
// could see for any thread.
func compareObservables(t *testing.T, ctx string, dir, ref *HTM, nthreads int) {
	t.Helper()
	for tid := 0; tid < nthreads; tid++ {
		if di, ri := dir.InTxn(tid), ref.InTxn(tid); di != ri {
			t.Fatalf("%s: InTxn(%d) dir=%v ref=%v", ctx, tid, di, ri)
		}
		ds, dok := dir.Pending(tid)
		rs, rok := ref.Pending(tid)
		if ds != rs || dok != rok {
			t.Fatalf("%s: Pending(%d) dir=(%v,%v) ref=(%v,%v)", ctx, tid, ds, dok, rs, rok)
		}
		if dir.InTxn(tid) {
			if dn, rn := dir.ReadSetSize(tid), ref.ReadSetSize(tid); dn != rn {
				t.Fatalf("%s: ReadSetSize(%d) dir=%d ref=%d", ctx, tid, dn, rn)
			}
			if dn, rn := dir.WriteSetSize(tid), ref.WriteSetSize(tid); dn != rn {
				t.Fatalf("%s: WriteSetSize(%d) dir=%d ref=%d", ctx, tid, dn, rn)
			}
		}
		dl, dok2 := dir.ConflictLine(tid)
		rl, rok2 := ref.ConflictLine(tid)
		if dl != rl || dok2 != rok2 {
			t.Fatalf("%s: ConflictLine(%d) dir=(%v,%v) ref=(%v,%v)", ctx, tid, dl, dok2, rl, rok2)
		}
	}
	if dir.Diag() != ref.Diag() {
		t.Fatalf("%s: Diag dir=%+v ref=%+v", ctx, dir.Diag(), ref.Diag())
	}
	if dir.Stats() != ref.Stats() {
		t.Fatalf("%s: Stats dir=%+v ref=%+v", ctx, dir.Stats(), ref.Stats())
	}
}

func TestDirectoryMatchesReferenceScan(t *testing.T) {
	const nthreads = 6
	addrs := diffAddrs()
	for ci, cfg := range diffConfigs() {
		for seed := uint64(1); seed <= 5; seed++ {
			rng := prng.New(seed*1315423911 + uint64(ci))
			refCfg := cfg
			refCfg.RefScan = true
			dir, ref := New(cfg), New(refCfg)
			for op := 0; op < 4000; op++ {
				tid := int(rng.Intn(nthreads))
				ctx := fmt.Sprintf("cfg %d seed %d op %d tid %d", ci, seed, op, tid)
				switch rng.Intn(10) {
				case 0: // begin (nested begin aborts+delivers inline)
					ds, derr := dir.Begin(tid)
					rs, rerr := ref.Begin(tid)
					if ds != rs || (derr == nil) != (rerr == nil) {
						t.Fatalf("%s: Begin dir=(%v,%v) ref=(%v,%v)", ctx, ds, derr, rs, rerr)
					}
				case 1: // commit or deliver a pending abort
					if _, ok := dir.Pending(tid); ok {
						if ds, rs := dir.Resolve(tid), ref.Resolve(tid); ds != rs {
							t.Fatalf("%s: Resolve dir=%v ref=%v", ctx, ds, rs)
						}
					} else if dir.InTxn(tid) {
						ds, dok := dir.Commit(tid)
						rs, rok := ref.Commit(tid)
						if ds != rs || dok != rok {
							t.Fatalf("%s: Commit dir=(%v,%v) ref=(%v,%v)", ctx, ds, dok, rs, rok)
						}
					}
				case 2: // asynchronous machine aborts
					switch rng.Intn(3) {
					case 0:
						dir.InjectInterrupt(tid)
						ref.InjectInterrupt(tid)
					case 1:
						dir.InjectAbort(tid, StatusRetry)
						ref.InjectAbort(tid, StatusRetry)
					case 2:
						code := uint8(rng.Intn(200))
						dir.AbortExplicit(tid, code)
						ref.AbortExplicit(tid, code)
					}
				default: // memory access (the hot path under test)
					a := addrs[rng.Intn(int64(len(addrs)))]
					w := rng.Bool(0.5)
					dir.Access(tid, a, w)
					ref.Access(tid, a, w)
				}
				compareObservables(t, ctx, dir, ref, nthreads)
			}
		}
	}
}

// TestDirectoryInvariant cross-checks the directory against ground truth
// after a randomized run: every live transaction's resident lines are claimed
// under its slot on the right side, and conflictors() answers exactly what
// the reference scan would compute, for every address in the pool.
func TestDirectoryInvariant(t *testing.T) {
	cfg := Config{WriteSets: 4, WriteWays: 2, ReadSets: 8, ReadWays: 2, MaxConcurrent: 8}
	addrs := diffAddrs()
	rng := prng.New(99)
	h := New(cfg)
	const nthreads = 8
	for op := 0; op < 8000; op++ {
		tid := int(rng.Intn(nthreads))
		switch rng.Intn(12) {
		case 0:
			h.Begin(tid)
		case 1:
			if _, ok := h.Pending(tid); ok {
				h.Resolve(tid)
			} else if h.InTxn(tid) {
				h.Commit(tid)
			}
		default:
			h.Access(tid, addrs[rng.Intn(int64(len(addrs)))], rng.Bool(0.5))
		}
		if op%64 != 0 {
			continue
		}
		for _, a := range addrs {
			line := h.lineOf(a)
			var wantR, wantW uint64
			for tid, tx := range h.txns {
				if tx == nil || !tx.active || tx.doomed {
					continue
				}
				st := h.dirbe.states[tid]
				if st.reads.Contains(line) {
					wantR |= 1 << uint(tx.slot)
				}
				if st.writes.Contains(line) {
					wantW |= 1 << uint(tx.slot)
				}
			}
			var gotR, gotW uint64
			if e := h.dirbe.dir.pt.Peek(uint64(line)); e != nil {
				gotR, gotW = e.readers, e.writers
			}
			if gotR != wantR || gotW != wantW {
				t.Fatalf("op %d line %#x: directory (r=%b w=%b) != caches (r=%b w=%b)",
					op, uint64(line), gotR, gotW, wantR, wantW)
			}
		}
	}
}

// TestMaxConcurrentOver64Panics pins the directory's 64-context bound.
func TestMaxConcurrentOver64Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with MaxConcurrent=65 must panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.MaxConcurrent = 65
	New(cfg)
}
