package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/workload"
)

// The backend differential suite: the dir backend must be bit-for-bit the
// pre-seam machine (pinned to digests of the reference resolver's output,
// at every -jobs value), and the cheaper backends may trade throughput but
// never the race set — on the schedule-robust suite they must catch every
// ground-truth race the directory catches.

// renderTable1 runs Table 1 over the chaos suite under one (backend, jobs)
// setting and returns its text and JSON renderings.
func renderTable1(t *testing.T, backend string, jobs int) (string, string) {
	t.Helper()
	cfg := testCfg()
	cfg.Backend = backend
	cfg.Jobs = jobs
	tab, err := RunTable1(cfg, ChaosSuite())
	if err != nil {
		t.Fatalf("backend=%q jobs=%d: %v", backend, jobs, err)
	}
	var text bytes.Buffer
	tab.WriteTable1(&text)
	tab.WriteTable2(&text)
	js, err := json.Marshal(tab.JSON())
	if err != nil {
		t.Fatalf("backend=%q jobs=%d: %v", backend, jobs, err)
	}
	return text.String(), string(js)
}

// Table 1/2 over the chaos suite at testCfg, captured under the directory
// backend's reference resolver (htm.Config.RefScan, the pre-directory
// machine) on one worker: the sha256 of the text and JSON renderings.
const (
	table1TextPin = "4b87d3624704d1a872901b3afd6a2030d2abaa2e6c856061ccfa09b32031c74d"
	table1JSONPin = "9f17e648d8fce93b30d2520528c3f366b3a48186104c485418c4d37655f0f9ed"
)

// TestBackendDirMatchesPinnedTable1AtAnyJobs pins the extraction contract:
// the directory backend behind the ConflictBackend seam renders Table 1/2
// byte-identically to the pre-directory reference resolver, on one worker
// and on eight.
func TestBackendDirMatchesPinnedTable1AtAnyJobs(t *testing.T) {
	for _, backend := range []string{"", "dir"} {
		for _, jobs := range []int{1, 8} {
			text, js := renderTable1(t, backend, jobs)
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(text))); got != table1TextPin {
				t.Errorf("backend=%q jobs=%d: text sha256 %s, pinned %s", backend, jobs, got, table1TextPin)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(js))); got != table1JSONPin {
				t.Errorf("backend=%q jobs=%d: JSON sha256 %s, pinned %s", backend, jobs, got, table1JSONPin)
			}
		}
	}
}

func raceSet(keys []detect.PairKey) map[detect.PairKey]struct{} {
	s := make(map[detect.PairKey]struct{}, len(keys))
	for _, k := range keys {
		s[k] = struct{}{}
	}
	return s
}

// TestBackendsNeverMissDirRaces is the suite's soundness bar: on the
// schedule-robust workloads, any ground-truth race the directory backend
// detects must also be detected by the tag and bounded backends. They may
// only add conflict aborts and slow-path falls, never lose a race.
func TestBackendsNeverMissDirRaces(t *testing.T) {
	suite := ChaosSuite()
	for _, name := range []string{"fluidanimate", "raytrace", "dedup"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		suite = append(suite, w)
	}
	for _, w := range suite {
		cfg := testCfg()
		truth := raceSet(w.Build(cfg.Threads, cfg.Scale).AllRaceKeys())
		runs := map[string]map[detect.PairKey]struct{}{}
		for _, backend := range MatrixBackends() {
			bcfg := cfg
			bcfg.Backend = backend
			r, err := RunTxRace(w, bcfg, bcfg.Seed)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, backend, err)
			}
			runs[backend] = raceSet(r.Races)
		}
		for k := range runs["dir"] {
			if _, ok := truth[k]; !ok {
				continue // only ground-truth races bind the cheaper backends
			}
			for _, backend := range []string{"tag", "bounded"} {
				if _, ok := runs[backend][k]; !ok {
					t.Errorf("%s: backend %q missed ground-truth race %v that dir detects",
						w.Name, backend, k)
				}
			}
		}
	}
}

// TestChaosDiffBackendMatrix runs the fault-injection differential suite
// under every backend: whatever the conflict-detection scheme, injected
// faults must not change the race set, and the reference run must still
// match ground truth.
func TestChaosDiffBackendMatrix(t *testing.T) {
	for _, backend := range MatrixBackends() {
		cfg := testCfg()
		cfg.Backend = backend
		d, err := RunChaosDiff(cfg)
		if err != nil {
			t.Fatalf("backend=%q: %v", backend, err)
		}
		for _, r := range d.Rows {
			name := fmt.Sprintf("%s/%s/%s", backend, r.App.Name, r.Plan)
			if !r.Sound {
				t.Errorf("%s: race set diverged from the fault-free reference (%d vs %d)",
					name, r.Races, r.RefRaces)
			}
			if !r.Truth {
				t.Errorf("%s: reference race set does not match ground truth", name)
			}
			if r.Injected == 0 {
				t.Errorf("%s: no faults injected — the differential is vacuous", name)
			}
		}
	}
}

// snapshotFor runs one workload under a backend (with an optional fault
// plan) and returns the folded metrics snapshot.
func snapshotFor(t *testing.T, name, backend string, plan fault.Plan) obs.Snapshot {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg()
	cfg.Backend = backend
	metrics := obs.NewMetrics()
	cfg.Obs = obs.New(nil, metrics)
	gov := core.GovernorConfig{}
	if len(plan.Rules) > 0 {
		gov = ChaosGovernor()
	}
	if _, err := RunTxRaceFault(w, cfg, cfg.Seed, plan, gov); err != nil {
		t.Fatalf("%s/%s: %v", name, backend, err)
	}
	return metrics.Snapshot()
}

// TestBoundedOverflowDistinctFromInjectedCapacity pins that a bounded
// backend's real set-cap overflows and the chaos engine's injected capacity
// bursts land on different obs counters, so a dashboard can tell a machine
// limitation from an injected fault.
func TestBoundedOverflowDistinctFromInjectedCapacity(t *testing.T) {
	// Real overflows, no injection: canneal's footprint blows the tiny caps.
	snap := snapshotFor(t, "canneal", "bounded", fault.Plan{})
	if snap.Counters["htm.bounded.overflow"] == 0 {
		t.Error("bounded canneal: htm.bounded.overflow stayed 0, want real overflows")
	}
	if got := snap.Counters["fault.injected.capacity"]; got != 0 {
		t.Errorf("fault-free run: fault.injected.capacity = %d, want 0", got)
	}
	if snap.Counters["htm.backend.bounded"] != 1 {
		t.Errorf("htm.backend.bounded = %d, want 1", snap.Counters["htm.backend.bounded"])
	}

	// Injected capacity bursts under the dir backend: no bounded sets exist,
	// so the injected counter moves and the overflow counter cannot.
	burst := fault.Plan{Seed: 7, Rules: []fault.Rule{{Kind: fault.CapacityBurst, Prob: 0.05, Burst: 2}}}
	snap = snapshotFor(t, "canneal", "dir", burst)
	if snap.Counters["fault.injected.capacity"] == 0 {
		t.Error("capacity-burst run: fault.injected.capacity stayed 0")
	}
	if got := snap.Counters["htm.bounded.overflow"]; got != 0 {
		t.Errorf("dir backend: htm.bounded.overflow = %d, want 0", got)
	}
	if snap.Counters["htm.backend.dir"] != 1 {
		t.Errorf("htm.backend.dir = %d, want 1", snap.Counters["htm.backend.dir"])
	}

	// Both at once under the bounded backend: the two counters move
	// independently — injection never masquerades as a machine limit.
	snap = snapshotFor(t, "canneal", "bounded", burst)
	if snap.Counters["htm.bounded.overflow"] == 0 || snap.Counters["fault.injected.capacity"] == 0 {
		t.Errorf("bounded+burst: overflow=%d injected=%d, want both nonzero",
			snap.Counters["htm.bounded.overflow"], snap.Counters["fault.injected.capacity"])
	}
}

// TestBackendsMatrixDeterminism extends the -jobs contract to the matrix
// driver: text and JSON render byte-identically on one worker and eight.
func TestBackendsMatrixDeterminism(t *testing.T) {
	render := func(jobs int) (string, string) {
		cfg := testCfg()
		cfg.Jobs = jobs
		b, err := RunBackends(cfg, ChaosSuite())
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		var text bytes.Buffer
		b.WriteBackends(&text)
		js, err := json.Marshal(b.JSON())
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return text.String(), string(js)
	}
	t1, j1 := render(1)
	t8, j8 := render(8)
	if t1 != t8 || j1 != j8 {
		t.Error("backend matrix output differs between -jobs 1 and -jobs 8")
	}
}

// TestBackendsMatrixShape pins the matrix driver's row layout and that the
// backends behave characteristically on the suite: the tag backend never
// capacity-aborts, and recall stays perfect for every backend on the
// schedule-robust workloads.
func TestBackendsMatrixShape(t *testing.T) {
	b, err := RunBackends(testCfg(), ChaosSuite())
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(MatrixBackends()) * len(ChaosSuite())
	if len(b.Rows) != wantRows {
		t.Fatalf("matrix has %d rows, want %d", len(b.Rows), wantRows)
	}
	if len(b.Summaries) != len(MatrixBackends()) {
		t.Fatalf("matrix has %d summaries, want %d", len(b.Summaries), len(MatrixBackends()))
	}
	for _, r := range b.Rows {
		if r.Backend == "tag" && r.Capacity != 0 {
			t.Errorf("%s/tag: %d capacity aborts, want 0 (no sets to overflow)", r.App.Name, r.Capacity)
		}
		if r.Recall != 1 {
			t.Errorf("%s/%s: recall %.2f on a schedule-robust workload, want 1", r.App.Name, r.Backend, r.Recall)
		}
	}
}
