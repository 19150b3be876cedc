package core_test

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/htm"
	"repro/internal/instrument"
	"repro/internal/memmodel"
	"repro/internal/sim"
)

// runTxRace instruments and executes p under a fresh TxRace runtime.
func runTxRace(t *testing.T, p *sim.Program, opts core.Options, cfg sim.Config) (*core.TxRace, *sim.Result) {
	t.Helper()
	rt := core.NewTxRace(opts)
	ip := instrument.ForTxRace(p, instrument.DefaultOptions())
	res, err := sim.NewEngine(cfg).Run(ip, rt)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return rt, res
}

func hasRace(rt *core.TxRace, a, b sim.SiteID) bool {
	if a > b {
		a, b = b, a
	}
	for _, k := range rt.Detector().RaceKeys() {
		if k == (detect.PairKey{A: a, B: b}) {
			return true
		}
	}
	return false
}

// padWork returns n hooked accesses over a private array so the enclosing
// region clears the K threshold and takes measurable time.
func padWork(al *memmodel.Allocator, n int, baseSite sim.SiteID) []sim.Instr {
	arr := al.AllocWords(n)
	out := make([]sim.Instr, n)
	for i := 0; i < n; i++ {
		out[i] = &sim.MemAccess{
			Write: i%2 == 0,
			Addr:  sim.Fixed(arr + memmodel.Addr(i*memmodel.WordSize)),
			Site:  baseSite + sim.SiteID(i),
		}
	}
	return out
}

// TestFig3ConflictProtocol reproduces Figure 3: three threads, a genuine
// conflict between two of them, and the TxFail write artificially aborting
// the third (in-flight, non-conflicting) transaction, after which the slow
// path pinpoints the racy pair.
func TestFig3ConflictProtocol(t *testing.T) {
	al := memmodel.NewAllocator(1 << 20)
	x := al.AllocLine()
	const siteA, siteB = 1000, 1001

	worker := func(accessX sim.Instr, padSite sim.SiteID) []sim.Instr {
		body := []sim.Instr{accessX}
		body = append(body, padWork(al, 30, padSite)...)
		return body
	}
	p := &sim.Program{
		Name: "fig3",
		Workers: [][]sim.Instr{
			// T1: no conflicting access, just a long transaction.
			padWork(al, 40, 4000),
			// T2 and T3: the racy pair, at region start so they overlap.
			worker(&sim.MemAccess{Write: true, Addr: sim.Fixed(x), Site: siteA}, 2000),
			worker(&sim.MemAccess{Write: true, Addr: sim.Fixed(x), Site: siteB}, 3000),
		},
	}
	rt, _ := runTxRace(t, p, core.Options{}, quietConfig())
	st := rt.Stats()
	if st.ConflictAborts < 2 {
		t.Fatalf("want the loser plus TxFail-induced aborts, got %+v", st)
	}
	if st.ArtificialAborts < 1 {
		t.Fatalf("TxFail must artificially abort in-flight transactions: %+v", st)
	}
	if !hasRace(rt, siteA, siteB) {
		t.Fatalf("slow path failed to pinpoint the racy pair: %v", rt.Detector().Races())
	}
}

// TestFig4OverlapSensitivity reproduces Figure 4: the same race is caught
// when both accesses sit in long, overlapping transactions, and missed when
// the two accesses run far apart in time.
func TestFig4OverlapSensitivity(t *testing.T) {
	build := func(separated bool) (*sim.Program, sim.SiteID, sim.SiteID) {
		al := memmodel.NewAllocator(1 << 20)
		x := al.AllocLine()
		const siteA, siteB = 1000, 1001
		w1 := []sim.Instr{&sim.MemAccess{Write: true, Addr: sim.Fixed(x), Site: siteA}}
		w1 = append(w1, padWork(al, 30, 2000)...)
		var w2 []sim.Instr
		if separated {
			// A long region, a syscall boundary, then the racy write in a
			// later region: no temporal overlap with w1's write.
			w2 = append(w2, padWork(al, 30, 5000)...)
			w2 = append(w2, &sim.Compute{Cycles: 5000}, &sim.Syscall{Name: "gap", Cycles: 50})
		}
		w2 = append(w2, &sim.MemAccess{Write: true, Addr: sim.Fixed(x), Site: siteB})
		w2 = append(w2, padWork(al, 30, 3000)...)
		return &sim.Program{Name: "fig4", Workers: [][]sim.Instr{w1, w2}}, siteA, siteB
	}

	p, a, b := build(false)
	rt, _ := runTxRace(t, p, core.Options{}, quietConfig())
	if !hasRace(rt, a, b) {
		t.Fatal("overlapping transactions must catch the race (Fig. 4a)")
	}

	p, a, b = build(true)
	rt, _ = runTxRace(t, p, core.Options{}, quietConfig())
	if hasRace(rt, a, b) {
		t.Fatal("non-overlapping transactions catching the race means the overlap model is broken (Fig. 4b)")
	}
	if rt.Stats().SlowRegions[core.CauseConflict] != 0 {
		t.Fatalf("no conflict episodes expected: %+v", rt.Stats())
	}
}

// TestFig5MixedPathDetection reproduces Figure 5: a thread pushed to the
// slow path by a capacity abort makes a conflicting access to a variable a
// fast-path transaction has already accessed; strong isolation aborts the
// fast transaction and the race is identified.
func TestFig5MixedPathDetection(t *testing.T) {
	al := memmodel.NewAllocator(1 << 20)
	x := al.AllocLine()
	big := al.AllocWords(1024 * 8)
	const siteFast, siteSlow = 1000, 1001

	fast := []sim.Instr{
		&sim.MemAccess{Write: true, Addr: sim.Fixed(x), Site: siteFast},
		// Long compute keeps the transaction in flight while the slow
		// thread (re-)executes its overflowing region under the detector.
		&sim.Compute{Cycles: 30_000},
	}
	fast = append(fast, padWork(al, 100, 2000)...)

	// The slow worker overflows the write set first (capacity abort →
	// slow path), then touches x while the fast transaction is open.
	b := &sim.Program{Name: "fig5"}
	slow := []sim.Instr{
		&sim.Loop{ID: 1, Count: 600, Body: []sim.Instr{
			&sim.MemAccess{Write: true, Addr: sim.AddrExpr{Base: big, Mode: sim.AddrLoop, Stride: 8}, Site: 1},
		}},
		&sim.MemAccess{Write: true, Addr: sim.Fixed(x), Site: siteSlow},
	}
	b.Workers = [][]sim.Instr{fast, slow}

	opts := core.Options{}
	opts.HTM = htm.DefaultConfig()
	opts.HTM.WriteSets, opts.HTM.WriteWays = 16, 8 // 128-line write set: overflow at 600 lines
	rt, _ := runTxRace(t, b, opts, quietConfig())
	st := rt.Stats()
	if st.CapacityAborts == 0 {
		t.Fatalf("expected a capacity abort to create the slow thread: %+v", st)
	}
	if !hasRace(rt, siteFast, siteSlow) {
		t.Fatalf("fast/slow mixed detection failed: %+v races %v", st, rt.Detector().Races())
	}
}

// TestFig5OneDirectionMiss: the converse order — the slow thread writes x
// *before* the fast transaction reads it — is invisible to strong isolation
// (§6 reason 3), so the race is missed.
func TestFig5OneDirectionMiss(t *testing.T) {
	al := memmodel.NewAllocator(1 << 20)
	x := al.AllocLine()
	big := al.AllocWords(1024 * 8)
	const siteFast, siteSlow = 1000, 1001

	// The slow worker's racy write happens early in its slow region; the
	// fast worker reads x much later, in a transaction the slow thread
	// never touches again.
	slow := []sim.Instr{
		&sim.Loop{ID: 1, Count: 600, Body: []sim.Instr{
			&sim.MemAccess{Write: true, Addr: sim.AddrExpr{Base: big, Mode: sim.AddrLoop, Stride: 8}, Site: 1},
		}},
		&sim.MemAccess{Write: true, Addr: sim.Fixed(x), Site: siteSlow},
		&sim.Compute{Cycles: 5},
	}
	fast := []sim.Instr{
		&sim.Compute{Cycles: 30_000}, // start well after the slow write
		&sim.Syscall{Name: "cut", Cycles: 30},
		&sim.MemAccess{Write: false, Addr: sim.Fixed(x), Site: siteFast},
	}
	fast = append(fast, padWork(al, 30, 2000)...)

	p := &sim.Program{Name: "fig5b", Workers: [][]sim.Instr{fast, slow}}
	opts := core.Options{}
	opts.HTM = htm.DefaultConfig()
	opts.HTM.WriteSets, opts.HTM.WriteWays = 16, 8
	rt, _ := runTxRace(t, p, opts, quietConfig())
	if hasRace(rt, siteFast, siteSlow) {
		t.Fatal("slow-before-fast order must be missed (one-direction limitation)")
	}
}

// TestFig6NoStaleFalsePositive reproduces Figure 6: a happens-before edge
// established during a fast-path interval must order accesses analyzed in
// later slow-path intervals, or the slow path would report a false race.
func TestFig6NoStaleFalsePositive(t *testing.T) {
	al := memmodel.NewAllocator(1 << 20)
	x := al.AllocLine()
	big := al.AllocWords(1024 * 8)
	const siteW, siteR = 1000, 1001
	sem := sim.SyncID(40)

	overflow := func(id sim.LoopID) sim.Instr {
		return &sim.Loop{ID: id, Count: 600, Body: []sim.Instr{
			&sim.MemAccess{Write: true, Addr: sim.AddrExpr{Base: big, Mode: sim.AddrLoop, Stride: 8}, Site: 9},
		}}
	}
	// T1: slow episode (capacity) containing the write; then signal.
	w1 := []sim.Instr{
		overflow(1),
		&sim.MemAccess{Write: true, Addr: sim.Fixed(x), Site: siteW},
		&sim.Signal{C: sem},
	}
	// T2: waits (HB edge crosses the fast path), then a slow episode
	// (its own capacity abort) containing the read.
	big2 := al.AllocWords(1024 * 8)
	w2 := []sim.Instr{
		&sim.Wait{C: sem},
		&sim.Loop{ID: 2, Count: 600, Body: []sim.Instr{
			&sim.MemAccess{Write: true, Addr: sim.AddrExpr{Base: big2, Mode: sim.AddrLoop, Stride: 8}, Site: 10},
		}},
		&sim.MemAccess{Write: false, Addr: sim.Fixed(x), Site: siteR},
	}
	p := &sim.Program{Name: "fig6", Workers: [][]sim.Instr{w1, w2}}
	opts := core.Options{}
	opts.HTM = htm.DefaultConfig()
	opts.HTM.WriteSets, opts.HTM.WriteWays = 16, 8
	rt, _ := runTxRace(t, p, opts, quietConfig())
	if rt.Stats().CapacityAborts == 0 {
		t.Fatalf("test needs slow episodes on both sides: %+v", rt.Stats())
	}
	if hasRace(rt, siteW, siteR) {
		t.Fatal("false positive: signal→wait edge from the fast path was lost (Fig. 6)")
	}
}

// TestFalseSharingFiltered: two threads write different words of one cache
// line. The HTM flags a conflict; the word-granular slow path must reject it.
func TestFalseSharingFiltered(t *testing.T) {
	al := memmodel.NewAllocator(1 << 20)
	line := al.AllocLine()
	const siteA, siteB = 1000, 1001
	mk := func(off memmodel.Addr, site sim.SiteID, pad sim.SiteID) []sim.Instr {
		body := []sim.Instr{&sim.MemAccess{Write: true, Addr: sim.Fixed(line + off), Site: site}}
		return append(body, padWork(al, 30, pad)...)
	}
	p := &sim.Program{Name: "falseshare", Workers: [][]sim.Instr{
		mk(0, siteA, 2000), mk(8, siteB, 3000),
	}}
	rt, _ := runTxRace(t, p, core.Options{}, quietConfig())
	st := rt.Stats()
	if st.ConflictAborts == 0 {
		t.Fatalf("false sharing must conflict in the HTM: %+v", st)
	}
	if rt.Detector().RaceCount() != 0 {
		t.Fatalf("false sharing reported as a race: %v", rt.Detector().Races())
	}
}

// TestWordGranularityAblation: with the idealized word-granular HTM the same
// program produces no conflicts at all. The HTM config may spell out the
// default geometry or leave it zero; either way the granularity holds.
func TestWordGranularityAblation(t *testing.T) {
	full := htm.DefaultConfig()
	full.GranularityShift = 3 // word granularity
	for _, tc := range []struct {
		name string
		cfg  htm.Config
	}{
		{"default geometry", full},
		{"zero geometry", htm.Config{GranularityShift: 3}},
	} {
		al := memmodel.NewAllocator(1 << 20)
		line := al.AllocLine()
		mk := func(off memmodel.Addr, site sim.SiteID, pad sim.SiteID) []sim.Instr {
			body := []sim.Instr{&sim.MemAccess{Write: true, Addr: sim.Fixed(line + off), Site: site}}
			return append(body, padWork(al, 30, pad)...)
		}
		p := &sim.Program{Name: "wordgran", Workers: [][]sim.Instr{
			mk(0, 1000, 2000), mk(8, 1001, 3000),
		}}
		rt, _ := runTxRace(t, p, core.Options{HTM: tc.cfg}, quietConfig())
		if rt.Stats().ConflictAborts != 0 {
			t.Fatalf("%s: word-granular HTM still conflicts on false sharing: %+v", tc.name, rt.Stats())
		}
	}
}

// TestTxFailAblation: with the global-abort protocol disabled, the
// conflicting partner commits untouched and the race is missed.
func TestTxFailAblation(t *testing.T) {
	build := func() *sim.Program {
		al := memmodel.NewAllocator(1 << 20)
		x := al.AllocLine()
		mk := func(site sim.SiteID, pad sim.SiteID) []sim.Instr {
			body := []sim.Instr{&sim.MemAccess{Write: true, Addr: sim.Fixed(x), Site: site}}
			return append(body, padWork(al, 30, pad)...)
		}
		return &sim.Program{Name: "ablation", Workers: [][]sim.Instr{
			mk(1000, 2000), mk(1001, 3000),
		}}
	}
	rt, _ := runTxRace(t, build(), core.Options{DisableTxFail: true}, quietConfig())
	if hasRace(rt, 1000, 1001) {
		t.Fatal("without TxFail the partner's accesses are never re-examined")
	}
	rt, _ = runTxRace(t, build(), core.Options{}, quietConfig())
	if !hasRace(rt, 1000, 1001) {
		t.Fatal("with TxFail the race must be found")
	}
}

// TestSingleThreadedElision: a single worker is never monitored.
func TestSingleThreadedElision(t *testing.T) {
	al := memmodel.NewAllocator(1 << 20)
	p := &sim.Program{Name: "single", Workers: [][]sim.Instr{padWork(al, 50, 1000)}}
	rt, _ := runTxRace(t, p, core.Options{}, quietConfig())
	st := rt.Stats()
	if st.CommittedTxns != 0 || len(st.SlowRegions) != 0 {
		t.Fatalf("single-threaded program was monitored: %+v", st)
	}
}

// TestSmallRegionsGoSlow: sub-K regions run under the software detector and
// can catch races with zero HTM involvement.
func TestSmallRegionsGoSlow(t *testing.T) {
	al := memmodel.NewAllocator(1 << 20)
	x := al.AllocLine()
	mk := func(site sim.SiteID) []sim.Instr {
		return []sim.Instr{
			&sim.MemAccess{Write: true, Addr: sim.Fixed(x), Site: site},
			&sim.Compute{Cycles: 5},
			&sim.Syscall{Name: "s", Cycles: 30},
			&sim.Compute{Cycles: 50},
		}
	}
	p := &sim.Program{Name: "small", Workers: [][]sim.Instr{mk(1000), mk(1001)}}
	rt, _ := runTxRace(t, p, core.Options{}, quietConfig())
	st := rt.Stats()
	if st.SlowRegions[core.CauseSmall] == 0 {
		t.Fatalf("small regions not routed to slow path: %+v", st)
	}
	if st.CommittedTxns != 0 {
		t.Fatalf("small regions opened transactions: %+v", st)
	}
	if !hasRace(rt, 1000, 1001) {
		t.Fatal("small-region race missed by always-on software detection")
	}
}

// TestCapacityFallbackIsLocal: a capacity abort must not abort other
// threads' transactions (no TxFail write, §4.2).
func TestCapacityFallbackIsLocal(t *testing.T) {
	al := memmodel.NewAllocator(1 << 20)
	big := al.AllocWords(1024 * 8)
	overflow := []sim.Instr{
		&sim.Loop{ID: 1, Count: 600, Body: []sim.Instr{
			&sim.MemAccess{Write: true, Addr: sim.AddrExpr{Base: big, Mode: sim.AddrLoop, Stride: 8}, Site: 1},
		}},
	}
	peer := padWork(al, 100, 2000)
	p := &sim.Program{Name: "capacity", Workers: [][]sim.Instr{overflow, peer}}
	opts := core.Options{}
	opts.HTM = htm.DefaultConfig()
	opts.HTM.WriteSets, opts.HTM.WriteWays = 16, 8
	rt, _ := runTxRace(t, p, opts, quietConfig())
	st := rt.Stats()
	if st.CapacityAborts == 0 {
		t.Fatalf("no capacity abort: %+v", st)
	}
	if st.ConflictAborts != 0 || st.ArtificialAborts != 0 {
		t.Fatalf("capacity abort leaked into other transactions: %+v", st)
	}
	if st.CommittedTxns == 0 {
		t.Fatalf("peer transaction should commit: %+v", st)
	}
}

// TestHiddenSyscallUnknownAbort: an unprofiled syscall inside a transaction
// aborts with unknown status and the region re-runs on the slow path (§7).
func TestHiddenSyscallUnknownAbort(t *testing.T) {
	al := memmodel.NewAllocator(1 << 20)
	body := padWork(al, 10, 1000)
	body = append(body, &sim.Syscall{Name: "lib", Cycles: 20, Hidden: true})
	body = append(body, padWork(al, 10, 1100)...)
	p := &sim.Program{Name: "hidden", Workers: [][]sim.Instr{body, padWork(al, 30, 2000)}}
	rt, _ := runTxRace(t, p, core.Options{}, quietConfig())
	st := rt.Stats()
	if st.UnknownAborts != 1 {
		t.Fatalf("unknown aborts = %d, want 1 (%+v)", st.UnknownAborts, st)
	}
	if st.SlowRegions[core.CauseUnknown] != 1 {
		t.Fatalf("unknown abort did not fall back to slow path: %+v", st)
	}
}

// TestRetryOnlyAbortsRetryOnFastPath: pure-retry aborts are retried within
// budget rather than falling back (§4.2 "Retry").
func TestRetryOnlyAbortsRetryOnFastPath(t *testing.T) {
	al := memmodel.NewAllocator(1 << 20)
	mk := func(pad sim.SiteID) []sim.Instr {
		var out []sim.Instr
		for i := 0; i < 8; i++ {
			out = append(out, padWork(al, 10, pad+sim.SiteID(i*100))...)
			out = append(out, &sim.Syscall{Name: "cut", Cycles: 30})
		}
		return out
	}
	p := &sim.Program{Name: "retry", Workers: [][]sim.Instr{mk(1000), mk(5000)}}
	cfg := quietConfig()
	cfg.InterruptEvery = 300 // hammer the transactions with interrupts
	rt, _ := runTxRace(t, p, core.Options{RetryOnlyFraction: 1.0}, cfg)
	st := rt.Stats()
	if st.Retries == 0 {
		t.Fatalf("no fast-path retries recorded: %+v", st)
	}
}

// TestDeferredPublicationMissed: initialize-then-publish races never overlap
// and must be missed by TxRace while TSan (full monitoring) finds them —
// the paper's §8.3 false-negative analysis.
func TestDeferredPublicationMissed(t *testing.T) {
	build := func() *sim.Program {
		al := memmodel.NewAllocator(1 << 20)
		x := al.AllocLine()
		pub := []sim.Instr{&sim.MemAccess{Write: true, Addr: sim.Fixed(x), Site: 1000}}
		pub = append(pub, padWork(al, 20, 2000)...)
		reader := padWork(al, 20, 3000)
		reader = append(reader, &sim.Compute{Cycles: 50_000})
		reader = append(reader, &sim.Syscall{Name: "cut", Cycles: 30})
		reader = append(reader, &sim.MemAccess{Write: false, Addr: sim.Fixed(x), Site: 1001})
		reader = append(reader, padWork(al, 20, 4000)...)
		return &sim.Program{Name: "deferred", Workers: [][]sim.Instr{pub, reader}}
	}
	rt, _ := runTxRace(t, build(), core.Options{}, quietConfig())
	if hasRace(rt, 1000, 1001) {
		t.Fatal("deferred-publication race should be missed by overlap-based detection")
	}

	ts := core.NewTSan()
	if _, err := sim.NewEngine(quietConfig()).Run(instrument.ForTSan(build()), ts); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, k := range ts.Detector().RaceKeys() {
		if k == (detect.PairKey{A: 1000, B: 1001}) {
			found = true
		}
	}
	if !found {
		t.Fatal("TSan must find the deferred-publication race")
	}
}

// TestLoopCutReducesCapacityAborts: DynLoopcut must cut the overflowing loop
// and commit more transactions with fewer capacity aborts than NoCut.
func TestLoopCutReducesCapacityAborts(t *testing.T) {
	build := func() *sim.Program {
		al := memmodel.NewAllocator(1 << 20)
		big1 := al.AllocWords(1024 * 8)
		big2 := al.AllocWords(1024 * 8)
		mk := func(arr memmodel.Addr, id sim.LoopID) []sim.Instr {
			return []sim.Instr{
				&sim.Loop{ID: id, Count: 5, Body: []sim.Instr{
					&sim.Loop{ID: id + 1, Count: 800, Body: []sim.Instr{
						&sim.MemAccess{Write: true, Addr: sim.AddrExpr{Base: arr, Mode: sim.AddrLoop, Stride: 8}, Site: 1},
					}},
					&sim.Syscall{Name: "s", Cycles: 30},
				}},
			}
		}
		return &sim.Program{Name: "loopcut", Workers: [][]sim.Instr{mk(big1, 1), mk(big2, 10)}}
	}
	noOpt := core.Options{LoopCut: core.NoCut}
	noOpt.HTM = htm.DefaultConfig()
	noOpt.HTM.WriteSets, noOpt.HTM.WriteWays = 32, 8 // 256-line write set
	rtNo, _ := runTxRace(t, build(), noOpt, quietConfig())

	dyn := noOpt
	dyn.LoopCut = core.DynCut
	rtDyn, _ := runTxRace(t, build(), dyn, quietConfig())

	if rtNo.Stats().CapacityAborts == 0 {
		t.Fatalf("NoCut must suffer capacity aborts: %+v", rtNo.Stats())
	}
	if rtDyn.Stats().CapacityAborts >= rtNo.Stats().CapacityAborts {
		t.Fatalf("DynCut did not reduce capacity aborts: %d vs %d",
			rtDyn.Stats().CapacityAborts, rtNo.Stats().CapacityAborts)
	}
	if rtDyn.Stats().LoopCuts == 0 {
		t.Fatalf("DynCut performed no cuts: %+v", rtDyn.Stats())
	}
}

// TestProfLoopcutAvoidsFirstAbort: with accurate profiled thresholds the
// very first execution avoids capacity aborts entirely (§4.3).
func TestProfLoopcutAvoidsFirstAbort(t *testing.T) {
	build := func() *sim.Program {
		al := memmodel.NewAllocator(1 << 20)
		big := al.AllocWords(1024 * 8)
		return &sim.Program{Name: "prof", Workers: [][]sim.Instr{
			{
				&sim.Loop{ID: 1, Count: 3, Body: []sim.Instr{
					&sim.Loop{ID: 2, Count: 800, Body: []sim.Instr{
						&sim.MemAccess{Write: true, Addr: sim.AddrExpr{Base: big, Mode: sim.AddrLoop, Stride: 8}, Site: 1},
					}},
					&sim.Syscall{Name: "s", Cycles: 30},
				}},
			},
			padWork(memmodel.NewAllocator(1<<24), 50, 2000),
		}}
	}
	htmCfg := htm.DefaultConfig()
	htmCfg.WriteSets, htmCfg.WriteWays = 32, 8

	prof, err := instrument.Profile(build(), quietConfig(), core.Options{HTM: htmCfg})
	if err != nil {
		t.Fatal(err)
	}
	if len(prof) == 0 {
		t.Fatal("profile learned nothing")
	}
	opts := core.Options{LoopCut: core.ProfCut, Thresholds: prof, HTM: htmCfg}
	rt, _ := runTxRace(t, build(), opts, quietConfig())
	if got := rt.Stats().CapacityAborts; got != 0 {
		t.Fatalf("ProfLoopcut with exact profile still aborted %d times", got)
	}
	if rt.Stats().LoopCuts == 0 {
		t.Fatal("ProfLoopcut never cut")
	}
}

// TestProfCutIgnoresForeignThresholdKeys: a profile key no LoopCheck in the
// program uses — here 1<<31 — can never trigger a cut, so it must neither
// change the run nor size any per-loop table by its value. A program whose
// own loop carries such an id must cut exactly as with a small id.
func TestProfCutIgnoresForeignThresholdKeys(t *testing.T) {
	inner := sim.LoopID(2)
	build := func() *sim.Program {
		al := memmodel.NewAllocator(1 << 20)
		big := al.AllocWords(1024 * 8)
		return &sim.Program{Name: "farkey", Workers: [][]sim.Instr{
			{&sim.Loop{ID: 1, Count: 2, Body: []sim.Instr{
				&sim.Loop{ID: inner, Count: 800, Body: []sim.Instr{
					&sim.MemAccess{Write: true, Addr: sim.AddrExpr{Base: big, Mode: sim.AddrLoop, Stride: 8}, Site: 1},
				}},
				&sim.Syscall{Name: "s", Cycles: 30},
			}}},
			padWork(memmodel.NewAllocator(1<<24), 50, 2000),
		}}
	}
	htmCfg := htm.DefaultConfig()
	htmCfg.WriteSets, htmCfg.WriteWays = 32, 8
	prof := core.LoopThresholds{2: 200}
	run := func(th core.LoopThresholds) (core.Stats, *sim.Result, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rt, res := runTxRace(t, build(), core.Options{LoopCut: core.ProfCut, Thresholds: th, HTM: htmCfg}, quietConfig())
		runtime.ReadMemStats(&after)
		return rt.Stats(), res, after.TotalAlloc - before.TotalAlloc
	}
	wantStats, wantRes, baseBytes := run(prof)
	if wantStats.LoopCuts == 0 {
		t.Fatal("profiled loop never cut: the test exercises nothing")
	}
	far := prof.Clone()
	far[1<<31] = 5
	gotStats, gotRes, farBytes := run(far)
	if !reflect.DeepEqual(gotStats, wantStats) || !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatalf("foreign threshold key changed the run:\n got  %+v\n want %+v", gotStats, wantStats)
	}
	if farBytes > baseBytes+1<<20 {
		t.Fatalf("foreign threshold key allocated %d bytes, baseline %d", farBytes, baseBytes)
	}

	inner = 1 << 31
	gotStats, gotRes, farBytes = run(core.LoopThresholds{inner: 200})
	if !reflect.DeepEqual(gotStats, wantStats) || !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatalf("loop id 1<<31 cut differently from loop id 2:\n got  %+v\n want %+v", gotStats, wantStats)
	}
	if farBytes > baseBytes+1<<20 {
		t.Fatalf("loop id 1<<31 allocated %d bytes, baseline %d", farBytes, baseBytes)
	}
}

// TestLockedRegionsNeverConflict: critical sections under one lock cannot
// overlap, so the HTM never sees their accesses collide (Fig. 1's regions
// ① vs ④).
func TestLockedRegionsNeverConflict(t *testing.T) {
	al := memmodel.NewAllocator(1 << 20)
	shared := al.AllocWords(8)
	mk := func(base sim.SiteID) []sim.Instr {
		var out []sim.Instr
		for i := 0; i < 5; i++ {
			out = append(out, &sim.Lock{M: 1})
			for j := 0; j < 6; j++ {
				out = append(out, &sim.MemAccess{Write: true,
					Addr: sim.Fixed(shared + memmodel.Addr(j*8)), Site: base + sim.SiteID(j)})
			}
			out = append(out, &sim.Unlock{M: 1})
			out = append(out, &sim.Compute{Cycles: 10})
		}
		return out
	}
	p := &sim.Program{Name: "locked", Workers: [][]sim.Instr{mk(1000), mk(2000)}}
	rt, _ := runTxRace(t, p, core.Options{}, quietConfig())
	st := rt.Stats()
	if st.ConflictAborts != 0 {
		t.Fatalf("lock-serialized critical sections conflicted: %+v", st)
	}
	if rt.Detector().RaceCount() != 0 {
		t.Fatalf("lock-protected accesses reported racy: %v", rt.Detector().Races())
	}
}

// TestStatsCycleAttributionConsistent: the Fig. 7 cycle buckets are only
// populated for causes that occurred.
func TestStatsCycleAttributionConsistent(t *testing.T) {
	al := memmodel.NewAllocator(1 << 20)
	x := al.AllocLine()
	mk := func(site sim.SiteID, pad sim.SiteID) []sim.Instr {
		body := []sim.Instr{&sim.MemAccess{Write: true, Addr: sim.Fixed(x), Site: site}}
		return append(body, padWork(al, 30, pad)...)
	}
	p := &sim.Program{Name: "attr", Workers: [][]sim.Instr{mk(1000, 2000), mk(1001, 3000)}}
	rt, _ := runTxRace(t, p, core.Options{}, quietConfig())
	st := rt.Stats()
	if st.CyclesConflict <= 0 {
		t.Fatalf("conflict episode left no attributed cycles: %+v", st)
	}
	if st.CyclesCapacity != 0 || st.CyclesUnknown != 0 {
		t.Fatalf("cycles attributed to absent causes: %+v", st)
	}
	if st.CyclesFastPath <= 0 {
		t.Fatalf("no fast-path cycles recorded: %+v", st)
	}
}
