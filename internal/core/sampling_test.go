package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/instrument"
	"repro/internal/memmodel"
	"repro/internal/sim"
)

// buildLockOrderedProgram returns two workers that each write x inside the
// same lock; the second computes for a long time first, so it acquires the
// lock after the first has released it. With locked false the lock is left
// out and the two writes race.
func buildLockOrderedProgram(locked bool) *sim.Program {
	al := memmodel.NewAllocator(1 << 20)
	x := al.AllocLine()
	const mu sim.SyncID = 1
	worker := func(delay int64, site sim.SiteID) []sim.Instr {
		body := []sim.Instr{&sim.Compute{Cycles: delay}}
		write := &sim.MemAccess{Write: true, Addr: sim.Fixed(x), Site: site}
		if locked {
			return append(body, &sim.Lock{M: mu}, write, &sim.Unlock{M: mu})
		}
		return append(body, write)
	}
	return &sim.Program{Name: "lockorder", Workers: [][]sim.Instr{worker(1, 300), worker(100000, 301)}}
}

// runTSan runs p under rt and returns the makespan.
func runTSan(t *testing.T, p *sim.Program, rt *core.TSan) int64 {
	t.Helper()
	res, err := sim.NewEngine(quietConfig()).Run(instrument.ForTSan(p), rt)
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	return res.Makespan
}

// TestSamplingAtFullRateIsTSan: at rate 1 the sampling runtime draws
// nothing and is TSan — the same races, checks and makespan, under either
// clock configuration.
func TestSamplingAtFullRateIsTSan(t *testing.T) {
	for _, cfg := range []detect.Config{{}, {RefDense: true}} {
		for _, tc := range []struct {
			p     *sim.Program
			races int
		}{
			{buildRacyProgram(), 1},
			{buildLockOrderedProgram(true), 0},
			{buildLockOrderedProgram(false), 1},
		} {
			ts, s := core.NewTSanWith(cfg), core.NewSampling(1, 42, cfg)
			tm, sm := runTSan(t, tc.p, ts), runTSan(t, tc.p, s)
			name := tc.p.Name
			if tm != sm {
				t.Errorf("%s %+v: makespan tsan %d, sampling(1) %d", name, cfg, tm, sm)
			}
			if tk, sk := ts.Detector().Checks, s.Detector().Checks; tk != sk || tk == 0 {
				t.Errorf("%s %+v: checks tsan %d, sampling(1) %d", name, cfg, tk, sk)
			}
			tr, sr := ts.Detector().Races(), s.Detector().Races()
			if len(tr) != tc.races {
				t.Errorf("%s %+v: tsan found %d races, want %d", name, cfg, len(tr), tc.races)
			}
			if !reflect.DeepEqual(tr, sr) {
				t.Errorf("%s %+v: races tsan %v, sampling(1) %v", name, cfg, tr, sr)
			}
		}
	}
}

// TestSamplingAtZeroRateSeesNothing: at rate 0 no access is analyzed, so
// nothing is checked and no race is found.
func TestSamplingAtZeroRateSeesNothing(t *testing.T) {
	for _, p := range []*sim.Program{buildRacyProgram(), buildLockOrderedProgram(false)} {
		rt := core.NewSampling(0, 1, detect.Config{})
		runTSan(t, p, rt)
		if d := rt.Detector(); d.Checks != 0 || d.RaceCount() != 0 {
			t.Errorf("%s: rate 0 made %d checks and found %d races, want none", p.Name, d.Checks, d.RaceCount())
		}
	}
}

// TestSamplingTracksSyncAtAnyRate: synchronization is tracked whatever the
// rate — the lock carries the first worker's clock to the second even when
// no access is analyzed.
func TestSamplingTracksSyncAtAnyRate(t *testing.T) {
	const first, second = 1, 2
	for _, rate := range []float64{0, 0.5, 1} {
		rt := core.NewSampling(rate, 1, detect.Config{})
		runTSan(t, buildLockOrderedProgram(true), rt)
		if got := rt.Detector().ThreadVC(second).Get(first); got == 0 {
			t.Errorf("rate %v: the lock's release never reached the acquirer's clock", rate)
		}
		// Without the lock nothing orders the workers, so the entry above
		// can only have come from the lock.
		rt = core.NewSampling(rate, 1, detect.Config{})
		runTSan(t, buildLockOrderedProgram(false), rt)
		if got := rt.Detector().ThreadVC(second).Get(first); got != 0 {
			t.Errorf("rate %v, unlocked twin: second worker's clock holds %d for the first, want 0", rate, got)
		}
	}
}

// TestSamplingPartialRate: a rate strictly between 0 and 1 analyzes some
// accesses but not all, and the same seed draws the same ones.
func TestSamplingPartialRate(t *testing.T) {
	full := core.NewTSan()
	runTSan(t, buildRacyProgram(), full)
	var checks [2]uint64
	for i := range checks {
		rt := core.NewSampling(0.5, 7, detect.Config{})
		runTSan(t, buildRacyProgram(), rt)
		checks[i] = rt.Detector().Checks
	}
	if checks[0] != checks[1] {
		t.Fatalf("same seed, different checks: %d and %d", checks[0], checks[1])
	}
	if checks[0] == 0 || checks[0] >= full.Detector().Checks {
		t.Fatalf("rate 0.5 made %d checks, want between 0 and %d", checks[0], full.Detector().Checks)
	}
}

func TestSamplingBadRatePanics(t *testing.T) {
	for _, rate := range []float64{1.5, -0.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rate %v did not panic", rate)
				}
			}()
			core.NewSampling(rate, 1, detect.Config{})
		}()
	}
}
