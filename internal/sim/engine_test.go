package sim

import (
	"testing"

	"repro/internal/memmodel"
)

func quiet() Config {
	cfg := DefaultConfig()
	cfg.InterruptEvery = 0
	cfg.SpawnJitter = 0
	cfg.WakeJitter = 0
	cfg.MaxSteps = 1 << 22
	return cfg
}

// recorder collects runtime events for assertions.
type recorder struct {
	NopRuntime
	accesses  []memmodel.Addr
	writes    []bool
	acquires  []SyncID
	releases  []SyncID
	syscalls  []string
	starts    int
	exits     int
	forks     int
	joins     int
	txBegins  int
	txEnds    int
	loopMarks []LoopID
}

func (r *recorder) ThreadStart(*Thread)                         { r.starts++ }
func (r *recorder) ThreadExit(*Thread)                          { r.exits++ }
func (r *recorder) Fork(_, _ *Thread)                           { r.forks++ }
func (r *recorder) Joined(_, _ *Thread)                         { r.joins++ }
func (r *recorder) SyncAcquire(_ *Thread, s SyncID, _ SyncKind) { r.acquires = append(r.acquires, s) }
func (r *recorder) SyncRelease(_ *Thread, s SyncID, _ SyncKind) { r.releases = append(r.releases, s) }
func (r *recorder) TxBeginMark(*Thread, *TxBegin)               { r.txBegins++ }
func (r *recorder) TxEndMark(*Thread, *TxEnd)                   { r.txEnds++ }
func (r *recorder) SyscallEvent(_ *Thread, sc *Syscall) {
	r.syscalls = append(r.syscalls, sc.Name)
}
func (r *recorder) LoopCheckMark(_ *Thread, lc *LoopCheck) {
	r.loopMarks = append(r.loopMarks, lc.ID)
}
func (r *recorder) Access(_ *Thread, m *MemAccess, a memmodel.Addr) {
	r.accesses = append(r.accesses, a)
	r.writes = append(r.writes, m.Write)
}

func run(t *testing.T, p *Program, rt Runtime, cfg Config) *Result {
	t.Helper()
	res, err := NewEngine(cfg).Run(p, rt)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestLoopExecutesExactCount(t *testing.T) {
	rec := &recorder{}
	p := &Program{Workers: [][]Instr{{
		&Loop{ID: 1, Count: 7, Body: []Instr{
			&MemAccess{Write: true, Addr: Fixed(64), Site: 1},
		}},
	}}}
	run(t, p, rec, quiet())
	if len(rec.accesses) != 7 {
		t.Fatalf("loop body executed %d times, want 7", len(rec.accesses))
	}
}

func TestNestedLoops(t *testing.T) {
	rec := &recorder{}
	p := &Program{Workers: [][]Instr{{
		&Loop{ID: 1, Count: 3, Body: []Instr{
			&Loop{ID: 2, Count: 4, Body: []Instr{
				&MemAccess{Addr: Fixed(64), Site: 1},
			}},
			&MemAccess{Write: true, Addr: Fixed(128), Site: 2},
		}},
	}}}
	run(t, p, rec, quiet())
	if len(rec.accesses) != 3*4+3 {
		t.Fatalf("accesses = %d, want 15", len(rec.accesses))
	}
}

func TestZeroCountLoopSkipped(t *testing.T) {
	rec := &recorder{}
	p := &Program{Workers: [][]Instr{{
		&Loop{ID: 1, Count: 0, Body: []Instr{&MemAccess{Addr: Fixed(64), Site: 1}}},
		&MemAccess{Write: true, Addr: Fixed(128), Site: 2},
	}}}
	run(t, p, rec, quiet())
	if len(rec.accesses) != 1 || rec.accesses[0] != 128 {
		t.Fatalf("zero-count loop executed: %v", rec.accesses)
	}
}

func TestIndexedAddressing(t *testing.T) {
	rec := &recorder{}
	p := &Program{Workers: [][]Instr{{
		&Loop{ID: 1, Count: 4, Body: []Instr{
			&MemAccess{Addr: Indexed(0, 2), Site: 1}, // base 0, stride 2 words
		}},
	}}}
	run(t, p, rec, quiet())
	want := []memmodel.Addr{0, 16, 32, 48}
	for i, a := range rec.accesses {
		if a != want[i] {
			t.Fatalf("iteration %d address %d, want %d", i, a, want[i])
		}
	}
}

func TestIndexedWrapAndDepth(t *testing.T) {
	rec := &recorder{}
	inner := &Loop{ID: 2, Count: 2, Body: []Instr{
		// Depth 1 = the outer loop's induction variable.
		&MemAccess{Addr: AddrExpr{Base: 0, Mode: AddrLoop, Stride: 1, Depth: 1, Wrap: 3}, Site: 1},
	}}
	p := &Program{Workers: [][]Instr{{
		&Loop{ID: 1, Count: 4, Body: []Instr{inner}},
	}}}
	run(t, p, rec, quiet())
	// Outer iterations 0..3 wrap at 3 → words 0,1,2,0; two accesses each.
	want := []memmodel.Addr{0, 0, 8, 8, 16, 16, 0, 0}
	if len(rec.accesses) != len(want) {
		t.Fatalf("accesses = %d, want %d", len(rec.accesses), len(want))
	}
	for i, a := range rec.accesses {
		if a != want[i] {
			t.Fatalf("access %d = %d, want %d", i, a, want[i])
		}
	}
}

func TestRandomAddressingStaysInRange(t *testing.T) {
	rec := &recorder{}
	p := &Program{Workers: [][]Instr{{
		&Loop{ID: 1, Count: 100, Body: []Instr{
			&MemAccess{Addr: Random(1024, 16), Site: 1},
		}},
	}}}
	run(t, p, rec, quiet())
	for _, a := range rec.accesses {
		if a < 1024 || a >= 1024+16*8 {
			t.Fatalf("random address %d out of range", a)
		}
	}
}

func TestMutexMutualExclusionAndHB(t *testing.T) {
	rec := &recorder{}
	body := []Instr{
		&Lock{M: 1},
		&Compute{Cycles: 10},
		&Unlock{M: 1},
	}
	p := &Program{Workers: [][]Instr{body, body, body}}
	run(t, p, rec, quiet())
	if len(rec.acquires) != 3 || len(rec.releases) != 3 {
		t.Fatalf("acquires=%d releases=%d, want 3 each", len(rec.acquires), len(rec.releases))
	}
}

func TestUnlockingUnownedMutexIsProgramError(t *testing.T) {
	p := &Program{Workers: [][]Instr{{&Unlock{M: 1}}}}
	_, err := NewEngine(quiet()).Run(p, &NopRuntime{})
	wantProgramError(t, err, "unlock", 1)
}

func TestSemaphoreCountingSemantics(t *testing.T) {
	// Producer posts 3 times; consumer waits 3 times. Must terminate.
	p := &Program{Workers: [][]Instr{
		{&Signal{C: 1}, &Signal{C: 1}, &Signal{C: 1}},
		{&Wait{C: 1}, &Wait{C: 1}, &Wait{C: 1}},
	}}
	res := run(t, p, &NopRuntime{}, quiet())
	if res.SyncOps != 6 {
		t.Fatalf("sync ops = %d, want 6", res.SyncOps)
	}
}

func TestWaitBlocksUntilSignal(t *testing.T) {
	// The consumer's post-wait compute must be clocked after the
	// producer's long compute + signal.
	rec := &recorder{}
	p := &Program{Workers: [][]Instr{
		{&Compute{Cycles: 10_000}, &Signal{C: 1}},
		{&Wait{C: 1}, &Compute{Cycles: 1}},
	}}
	res := run(t, p, rec, quiet())
	if res.ThreadClocks[2] < 10_000 {
		t.Fatalf("consumer finished at %d, before producer's signal", res.ThreadClocks[2])
	}
}

func TestDeadlockDetected(t *testing.T) {
	p := &Program{Workers: [][]Instr{
		{&Wait{C: 1}}, // no one ever signals
	}}
	if _, err := NewEngine(quiet()).Run(p, &NopRuntime{}); err == nil {
		t.Fatal("deadlock not reported")
	}
}

func TestBarrierReleasesTogether(t *testing.T) {
	// Fast thread must wait for the slow one; after the barrier, clocks are
	// within wake latency of each other.
	p := &Program{Workers: [][]Instr{
		{&Compute{Cycles: 10}, &Barrier{B: 1, N: 2}, &Compute{Cycles: 1}},
		{&Compute{Cycles: 5_000}, &Barrier{B: 1, N: 2}, &Compute{Cycles: 1}},
	}}
	res := run(t, p, &NopRuntime{}, quiet())
	if res.ThreadClocks[1] < 5_000 {
		t.Fatalf("fast thread left the barrier early: %d", res.ThreadClocks[1])
	}
}

func TestBarrierReusableAcrossPhases(t *testing.T) {
	body := []Instr{&Loop{ID: 1, Count: 5, Body: []Instr{
		&Compute{Cycles: 3},
		&Barrier{B: 1, N: 3},
	}}}
	p := &Program{Workers: [][]Instr{body, body, body}}
	res := run(t, p, &NopRuntime{}, quiet())
	// 5 phases × 3 threads × (arrival + departure).
	if res.SyncOps != 30 {
		t.Fatalf("sync ops = %d, want 30", res.SyncOps)
	}
}

func TestSetupRunsBeforeWorkersAndTeardownAfter(t *testing.T) {
	rec := &recorder{}
	p := &Program{
		Setup:    []Instr{&MemAccess{Addr: Fixed(8), Site: 1}},
		Workers:  [][]Instr{{&MemAccess{Addr: Fixed(16), Site: 2}}},
		Teardown: []Instr{&MemAccess{Addr: Fixed(24), Site: 3}},
	}
	run(t, p, rec, quiet())
	if len(rec.accesses) != 3 ||
		rec.accesses[0] != 8 || rec.accesses[1] != 16 || rec.accesses[2] != 24 {
		t.Fatalf("phase order wrong: %v", rec.accesses)
	}
	if rec.forks != 1 || rec.joins != 1 || rec.starts != 2 || rec.exits != 2 {
		t.Fatalf("lifecycle events: forks=%d joins=%d starts=%d exits=%d",
			rec.forks, rec.joins, rec.starts, rec.exits)
	}
}

func TestJoinPropagatesWorkerClock(t *testing.T) {
	p := &Program{
		Workers:  [][]Instr{{&Compute{Cycles: 50_000}}},
		Teardown: []Instr{&Compute{Cycles: 1}},
	}
	res := run(t, p, &NopRuntime{}, quiet())
	if res.ThreadClocks[0] < 50_000 {
		t.Fatalf("main clock %d did not absorb worker's 50000", res.ThreadClocks[0])
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	build := func() *Program {
		return &Program{Workers: [][]Instr{
			{&Loop{ID: 1, Count: 50, Body: []Instr{
				&MemAccess{Write: true, Addr: Random(0, 64), Site: 1},
				&Delay{Max: 20},
			}}},
			{&Loop{ID: 2, Count: 50, Body: []Instr{
				&MemAccess{Addr: Random(4096, 64), Site: 2},
				&Compute{Cycles: 3},
			}}},
		}}
	}
	cfg := quiet()
	cfg.SpawnJitter = 100
	cfg.Seed = 42
	r1, r2 := &recorder{}, &recorder{}
	a := run(t, build(), r1, cfg)
	b := run(t, build(), r2, cfg)
	if a.Makespan != b.Makespan || a.Instructions != b.Instructions {
		t.Fatalf("same seed diverged: %d/%d vs %d/%d",
			a.Makespan, a.Instructions, b.Makespan, b.Instructions)
	}
	for i := range r1.accesses {
		if r1.accesses[i] != r2.accesses[i] {
			t.Fatalf("access stream diverged at %d", i)
		}
	}
}

// TestDifferentSeedsDiverge: the seed reaches the threads' PRNGs, so two
// seeds give the same program different timings. Each Delay may draw far
// more cycles than the run's fixed costs; with Delay{Max: 1000} the draws
// of seeds 1 and 2 both hid under those costs and the makespans matched.
// The simulator is deterministic, so these two seeds' makespans (80601
// and 94450) differ on every run.
func TestDifferentSeedsDiverge(t *testing.T) {
	build := func() *Program {
		return &Program{Workers: [][]Instr{
			{&Delay{Max: 100000}, &Compute{Cycles: 5}},
			{&Delay{Max: 100000}, &Compute{Cycles: 5}},
		}}
	}
	cfg1, cfg2 := quiet(), quiet()
	cfg1.Seed, cfg2.Seed = 1, 2
	a := run(t, build(), &NopRuntime{}, cfg1)
	b := run(t, build(), &NopRuntime{}, cfg2)
	if a.Makespan == b.Makespan {
		t.Fatalf("seeds 1 and 2 both give makespan %d: the seed does not reach the threads' delays", a.Makespan)
	}
}

// replayRT checkpoints at TxBegin and restores once at TxEnd, recording the
// access streams of both attempts.
type replayRT struct {
	NopRuntime
	eng      *Engine
	snap     Snapshot
	restored bool
	first    []memmodel.Addr
	second   []memmodel.Addr
}

func (w *replayRT) Init(e *Engine) { w.eng = e }
func (w *replayRT) TxBeginMark(t *Thread, m *TxBegin) {
	if !w.restored {
		w.eng.Checkpoint(t, &w.snap)
	}
}
func (w *replayRT) Access(t *Thread, m *MemAccess, a memmodel.Addr) {
	if w.restored {
		w.second = append(w.second, a)
	} else {
		w.first = append(w.first, a)
	}
}
func (w *replayRT) TxEndMark(t *Thread, m *TxEnd) {
	if !w.restored {
		w.restored = true
		w.eng.Restore(t, &w.snap)
	}
}

func TestCheckpointRestoreReplaysSameAddresses(t *testing.T) {
	rt := &replayRT{}
	p := &Program{Workers: [][]Instr{{
		&TxBegin{},
		&Loop{ID: 1, Count: 10, Body: []Instr{
			&MemAccess{Write: true, Addr: Random(0, 1024), Site: 1},
		}},
		&TxEnd{},
	}}}
	if _, err := NewEngine(quiet()).Run(p, rt); err != nil {
		t.Fatal(err)
	}
	if len(rt.first) != 10 || len(rt.second) != 10 {
		t.Fatalf("attempts: %d and %d accesses, want 10 each", len(rt.first), len(rt.second))
	}
	for i := range rt.first {
		if rt.first[i] != rt.second[i] {
			t.Fatalf("replay diverged at access %d: %d vs %d", i, rt.first[i], rt.second[i])
		}
	}
}

func TestMaxStepsGuards(t *testing.T) {
	cfg := quiet()
	cfg.MaxSteps = 100
	p := &Program{Workers: [][]Instr{{
		&Loop{ID: 1, Count: 1 << 20, Body: []Instr{&Compute{Cycles: 1}}},
	}}}
	if _, err := NewEngine(cfg).Run(p, &NopRuntime{}); err == nil {
		t.Fatal("MaxSteps exceeded without error")
	}
}

func TestInterruptsDelivered(t *testing.T) {
	cfg := quiet()
	cfg.InterruptEvery = 1000
	p := &Program{Workers: [][]Instr{{&Compute{Cycles: 100_000}}, {&Loop{ID: 1, Count: 1000, Body: []Instr{&Compute{Cycles: 100}}}}}}
	res := run(t, p, &NopRuntime{}, cfg)
	if res.Interrupts == 0 {
		t.Fatal("no interrupts delivered")
	}
}

func TestInterruptScaleRisesWithOversubscription(t *testing.T) {
	cfg := quiet()
	cfg.Cores = 2
	cfg.InterruptEvery = 2000
	mk := func(n int) *Program {
		ws := make([][]Instr, n)
		for i := range ws {
			ws[i] = []Instr{&Loop{ID: LoopID(i + 1), Count: 200, Body: []Instr{&Compute{Cycles: 50}}}}
		}
		return &Program{Workers: ws}
	}
	small := run(t, mk(2), &NopRuntime{}, cfg)
	big := run(t, mk(6), &NopRuntime{}, cfg)
	perThreadSmall := float64(small.Interrupts) / 2
	perThreadBig := float64(big.Interrupts) / 6
	if perThreadBig <= perThreadSmall {
		t.Fatalf("oversubscription did not raise interrupt rate: %.1f vs %.1f",
			perThreadBig, perThreadSmall)
	}
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	bad := []*Program{
		{Workers: [][]Instr{{&Loop{ID: 1, Count: -1}}}},
		{Workers: [][]Instr{{&Compute{Cycles: -5}}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("program %d validated", i)
		}
	}
	l := &Loop{ID: 1, Count: 2}
	l.Body = []Instr{l} // self-nested loop id
	if err := (&Program{Workers: [][]Instr{{l}}}).Validate(); err == nil {
		t.Error("self-nested loop validated")
	}
}

func TestCountAccesses(t *testing.T) {
	body := []Instr{
		&MemAccess{Addr: Fixed(0), Site: 1},
		&Loop{ID: 1, Count: 5, Body: []Instr{
			&MemAccess{Addr: Fixed(8), Site: 2},
			&MemAccess{Addr: Fixed(16), Site: 3},
		}},
	}
	if got := CountAccesses(body); got != 11 {
		t.Fatalf("CountAccesses = %d, want 11", got)
	}
}

func TestForEachInstrVisitsNested(t *testing.T) {
	body := []Instr{
		&Loop{ID: 1, Count: 2, Body: []Instr{
			&Compute{Cycles: 1},
			&Loop{ID: 2, Count: 2, Body: []Instr{&Compute{Cycles: 1}}},
		}},
	}
	n := 0
	ForEachInstr(body, func(Instr) { n++ })
	if n != 4 {
		t.Fatalf("visited %d instrs, want 4", n)
	}
}

func TestDelayChargesBoundedCycles(t *testing.T) {
	p := &Program{Workers: [][]Instr{{&Delay{Max: 100}}}}
	res := run(t, p, &NopRuntime{}, quiet())
	// Makespan = spawn-point + delay + exit costs; the delay is < 100.
	if res.Makespan > 2_000 {
		t.Fatalf("delay charged too much: %d", res.Makespan)
	}
}

func TestHiddenSyscallStillExecutes(t *testing.T) {
	rec := &recorder{}
	p := &Program{Workers: [][]Instr{{
		&Syscall{Name: "open", Cycles: 100},
		&Syscall{Name: "libhidden", Cycles: 50, Hidden: true},
	}}}
	res := run(t, p, rec, quiet())
	if len(rec.syscalls) != 2 || res.Syscalls != 2 {
		t.Fatalf("syscalls = %v", rec.syscalls)
	}
}

func TestThreadLocalPRNGIndependence(t *testing.T) {
	// Two workers drawing random addresses must not share a stream.
	rec := &recorder{}
	body := func() []Instr {
		return []Instr{&Loop{ID: 1, Count: 20, Body: []Instr{
			&MemAccess{Addr: Random(0, 1<<20), Site: 1},
		}}}
	}
	p := &Program{Workers: [][]Instr{body(), body()}}
	run(t, p, rec, quiet())
	same := 0
	for i := 0; i < 20; i++ {
		if rec.accesses[i] == rec.accesses[20+i] {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("worker PRNG streams look shared: %d identical draws", same)
	}
}
