package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/instrument"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/sim"
)

// buildRacyProgram returns a two-worker program with one unprotected shared
// store each (a write-write race on X) plus enough surrounding work that the
// regions overlap, and a properly locked counter that must never be
// reported.
func buildRacyProgram() *sim.Program {
	al := memmodel.NewAllocator(1 << 20)
	x := al.AllocLine()       // racy shared variable
	counter := al.AllocLine() // lock-protected variable
	priv0 := al.AllocWords(64)
	priv1 := al.AllocWords(64)

	const (
		mu      sim.SyncID = 1
		siteX0  sim.SiteID = 100
		siteX1  sim.SiteID = 101
		siteCnt sim.SiteID = 102
	)

	worker := func(priv memmodel.Addr, site sim.SiteID) []sim.Instr {
		return []sim.Instr{
			&sim.Loop{ID: 1, Count: 20, Body: []sim.Instr{
				&sim.MemAccess{Write: true, Addr: sim.Indexed(priv, 1), Site: 1},
				&sim.Compute{Cycles: 5},
			}},
			&sim.MemAccess{Write: true, Addr: sim.Fixed(x), Site: site}, // racy
			&sim.Loop{ID: 2, Count: 20, Body: []sim.Instr{
				&sim.MemAccess{Write: false, Addr: sim.Indexed(priv, 1), Site: 2},
				&sim.Compute{Cycles: 5},
			}},
			&sim.Lock{M: mu},
			&sim.MemAccess{Write: true, Addr: sim.Fixed(counter), Site: siteCnt},
			&sim.MemAccess{Write: false, Addr: sim.Fixed(counter), Site: siteCnt + 1},
			&sim.MemAccess{Write: true, Addr: sim.Fixed(counter), Site: siteCnt + 2},
			&sim.MemAccess{Write: false, Addr: sim.Fixed(counter), Site: siteCnt + 3},
			&sim.MemAccess{Write: true, Addr: sim.Fixed(counter), Site: siteCnt + 4},
			&sim.Unlock{M: mu},
		}
	}

	return &sim.Program{
		Name:    "smoke",
		Workers: [][]sim.Instr{worker(priv0, siteX0), worker(priv1, siteX1)},
	}
}

func quietConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.InterruptEvery = 0
	cfg.SpawnJitter = 0
	cfg.MaxSteps = 1 << 22
	return cfg
}

func TestSmokeTSanFindsRace(t *testing.T) {
	p := buildRacyProgram()
	rt := core.NewTSan()
	res, err := sim.NewEngine(quietConfig()).Run(instrument.ForTSan(p), rt)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Makespan <= 0 {
		t.Fatalf("makespan = %d, want positive", res.Makespan)
	}
	if got := rt.Detector().RaceCount(); got != 1 {
		t.Fatalf("TSan races = %d, want 1 (%v)", got, rt.Detector().Races())
	}
	r := rt.Detector().Races()[0]
	if k := r.Key(); k.A != 100 || k.B != 101 {
		t.Fatalf("race pair = %+v, want {100 101}", k)
	}
}

func TestSmokeTxRaceFindsOverlappingRace(t *testing.T) {
	p := buildRacyProgram()
	rt := core.NewTxRace(core.Options{})
	ip := instrument.ForTxRace(p, instrument.DefaultOptions())
	if _, err := sim.NewEngine(quietConfig()).Run(ip, rt); err != nil {
		t.Fatalf("run: %v", err)
	}
	st := rt.Stats()
	if st.ConflictAborts == 0 {
		t.Fatalf("expected at least one conflict abort, stats %+v", st)
	}
	if got := rt.Detector().RaceCount(); got != 1 {
		t.Fatalf("TxRace races = %d, want 1 (%v); stats %+v", got, rt.Detector().Races(), st)
	}
	if st.CommittedTxns == 0 {
		t.Fatalf("expected committed transactions, stats %+v", st)
	}
}

func TestSmokeBaselineIsCheapest(t *testing.T) {
	p := buildRacyProgram()
	base, err := sim.NewEngine(quietConfig()).Run(p, &core.Baseline{})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	tsan, err := sim.NewEngine(quietConfig()).Run(instrument.ForTSan(p), core.NewTSan())
	if err != nil {
		t.Fatalf("tsan: %v", err)
	}
	txr, err := sim.NewEngine(quietConfig()).Run(
		instrument.ForTxRace(p, instrument.DefaultOptions()), core.NewTxRace(core.Options{}))
	if err != nil {
		t.Fatalf("txrace: %v", err)
	}
	if !(base.Makespan < txr.Makespan) || !(base.Makespan < tsan.Makespan) {
		t.Fatalf("baseline %d should be under txrace %d and tsan %d",
			base.Makespan, txr.Makespan, tsan.Makespan)
	}
}

// TestFinishFoldsShadowCellStats: under bounded shadow cells, TxRace's slow
// path and TSan both fold the detector's cell pages into the metrics at
// Finish.
func TestFinishFoldsShadowCellStats(t *testing.T) {
	cells := detect.Config{Cells: 4, CellSeed: 1}
	for _, tc := range []struct {
		name string
		rt   interface {
			sim.Runtime
			Detector() *detect.Detector
		}
		prog *sim.Program
	}{
		{"txrace", core.NewTxRace(core.Options{Detect: cells}),
			instrument.ForTxRace(buildRacyProgram(), instrument.DefaultOptions())},
		{"tsan", core.NewTSanWith(cells), instrument.ForTSan(buildRacyProgram())},
	} {
		m := obs.NewMetrics()
		cfg := quietConfig()
		cfg.Obs = obs.New(nil, m)
		if _, err := sim.NewEngine(cfg).Run(tc.prog, tc.rt); err != nil {
			t.Fatalf("%s: run: %v", tc.name, err)
		}
		want := tc.rt.Detector().CellStats().Pages
		if got := m.Snapshot().Counters["shadow.cellpages"]; want == 0 || got != want {
			t.Errorf("%s: shadow.cellpages = %d, want the detector's %d (> 0)", tc.name, got, want)
		}
	}
}
