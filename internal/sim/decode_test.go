package sim

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/memmodel"
	"repro/internal/prng"
)

// The decoded-stream interpreter (the default) must be observationally
// identical to the reference tree walk (Config.RefWalk): same Runtime event
// sequence with the same thread clocks, same Result, same Checkpoint/Restore
// behaviour. These tests run randomized programs through both interpreters
// and compare complete traces.

// diffRT records every runtime event as a formatted line including the
// executing thread's virtual clock, so any divergence in ordering, operands,
// or cycle charging shows up as a trace mismatch. When restore is set it
// checkpoints each thread at its first TxBegin and rewinds once at the
// following TxEnd, exercising Restore against decoded frames.
type diffRT struct {
	NopRuntime
	eng     *Engine
	log     []string
	restore bool
	snaps   map[int]*Snapshot
	rewound map[int]bool
}

func (r *diffRT) add(format string, args ...any) {
	r.log = append(r.log, fmt.Sprintf(format, args...))
}

func (r *diffRT) Init(e *Engine) {
	r.eng = e
	r.snaps = map[int]*Snapshot{}
	r.rewound = map[int]bool{}
}
func (r *diffRT) ThreadStart(t *Thread) { r.add("start t%d c%d", t.ID, t.Clock) }
func (r *diffRT) ThreadExit(t *Thread)  { r.add("exit t%d c%d", t.ID, t.Clock) }
func (r *diffRT) Fork(p, c *Thread)     { r.add("fork t%d->t%d c%d", p.ID, c.ID, c.Clock) }
func (r *diffRT) Joined(p, c *Thread)   { r.add("join t%d<-t%d c%d", p.ID, c.ID, p.Clock) }
func (r *diffRT) Interrupt(t *Thread)   { r.add("intr t%d c%d", t.ID, t.Clock) }
func (r *diffRT) Access(t *Thread, m *MemAccess, a memmodel.Addr) {
	r.add("acc t%d c%d a%#x w%v h%v s%d", t.ID, t.Clock, uint64(a), m.Write, m.Hooked, m.Site)
}
func (r *diffRT) Atomic(t *Thread, m *AtomicRMW, a memmodel.Addr) {
	r.add("rmw t%d c%d a%#x s%d", t.ID, t.Clock, uint64(a), m.Site)
}
func (r *diffRT) SyncAcquire(t *Thread, s SyncID, k SyncKind) {
	r.add("acq t%d c%d s%d k%d", t.ID, t.Clock, s, k)
}
func (r *diffRT) SyncRelease(t *Thread, s SyncID, k SyncKind) {
	r.add("rel t%d c%d s%d k%d", t.ID, t.Clock, s, k)
}
func (r *diffRT) SyscallEvent(t *Thread, sc *Syscall) {
	r.add("sys t%d c%d %s hid%v", t.ID, t.Clock, sc.Name, sc.Hidden)
}
func (r *diffRT) LoopCheckMark(t *Thread, lc *LoopCheck) {
	r.add("lchk t%d c%d l%d i%d", t.ID, t.Clock, lc.ID, t.LoopIter(0))
}
func (r *diffRT) TxBeginMark(t *Thread, m *TxBegin) {
	r.add("txb t%d c%d small%v", t.ID, t.Clock, m.Small)
	if r.restore {
		if _, ok := r.snaps[t.ID]; !ok {
			s := new(Snapshot)
			r.eng.Checkpoint(t, s)
			r.snaps[t.ID] = s
		}
	}
}
func (r *diffRT) TxEndMark(t *Thread, m *TxEnd) {
	r.add("txe t%d c%d", t.ID, t.Clock)
	if r.restore && !r.rewound[t.ID] {
		if s, ok := r.snaps[t.ID]; ok {
			r.rewound[t.ID] = true
			r.eng.Restore(t, s)
		}
	}
}

// progGen builds random but deadlock-free programs: mutex and rwlock holds
// are balanced straight-line sections, every worker shares one body (so
// barrier arrival counts always match), and semaphores/condvars are covered
// by the fixed-shape test below instead.
type progGen struct {
	rng      prng.PRNG
	nextLoop LoopID
	nextSite SiteID
}

func (g *progGen) addrExpr() AddrExpr {
	switch g.rng.Intn(3) {
	case 0:
		return Fixed(memmodel.Addr(0x1000 + g.rng.Uint64n(64)*8))
	case 1:
		a := Indexed(memmodel.Addr(0x8000), 1+g.rng.Uint64n(3))
		a.Off = g.rng.Uint64n(4)
		a.Wrap = 32
		a.Depth = int(g.rng.Intn(2))
		return a
	default:
		return Random(memmodel.Addr(0x20000), 1+g.rng.Uint64n(128))
	}
}

// straight emits 1..n non-blocking instructions (safe inside lock holds).
func (g *progGen) straight(n int) []Instr {
	out := []Instr{}
	for i := int64(0); i < 1+g.rng.Intn(int64(n)); i++ {
		g.nextSite++
		switch g.rng.Intn(7) {
		case 0, 1, 2:
			out = append(out, &MemAccess{
				Write:  g.rng.Bool(0.5),
				Addr:   g.addrExpr(),
				Site:   g.nextSite,
				Hooked: g.rng.Bool(0.5),
			})
		case 3:
			out = append(out, &Compute{Cycles: g.rng.Intn(40)})
		case 4:
			out = append(out, &Delay{Max: g.rng.Intn(25)})
		case 5:
			out = append(out, &AtomicRMW{Addr: g.addrExpr(), Site: g.nextSite})
		default:
			out = append(out, &Syscall{
				Name:   fmt.Sprintf("sc%d", g.nextSite),
				Cycles: g.rng.Intn(400),
				Hidden: g.rng.Bool(0.3),
			})
		}
	}
	return out
}

func (g *progGen) body(depth int) []Instr {
	var out []Instr
	for i := int64(0); i < 2+g.rng.Intn(5); i++ {
		switch g.rng.Intn(10) {
		case 0, 1, 2:
			out = append(out, g.straight(3)...)
		case 3, 4: // counted loop, possibly zero-trip, possibly nested
			if depth < 2 {
				g.nextLoop++
				id := g.nextLoop
				body := g.body(depth + 1)
				body = append(body, &LoopCheck{ID: id})
				out = append(out, &Loop{ID: id, Count: int(g.rng.Intn(4)), Body: body})
			}
		case 5, 6: // balanced mutex section
			m := SyncID(1 + g.rng.Intn(3))
			out = append(out, &Lock{M: m})
			out = append(out, g.straight(3)...)
			out = append(out, &Unlock{M: m})
		case 7: // balanced rwlock section
			m := SyncID(10 + g.rng.Intn(2))
			if g.rng.Bool(0.5) {
				out = append(out, &RLock{M: m})
				out = append(out, g.straight(2)...)
				out = append(out, &RUnlock{M: m})
			} else {
				out = append(out, &WLock{M: m})
				out = append(out, g.straight(2)...)
				out = append(out, &WUnlock{M: m})
			}
		case 8: // transactional region marks
			out = append(out, &TxBegin{Small: g.rng.Bool(0.3)})
			out = append(out, g.straight(3)...)
			out = append(out, &TxEnd{})
		default:
			out = append(out, g.straight(2)...)
		}
	}
	return out
}

func (g *progGen) program(nworkers int) *Program {
	shared := g.body(0)
	// A barrier all workers pass through, spliced mid-body.
	shared = append(shared, &Barrier{B: 40, N: nworkers})
	shared = append(shared, g.body(0)...)
	workers := make([][]Instr, nworkers)
	for i := range workers {
		workers[i] = shared // one body: decode must memoize, barrier counts match
	}
	return &Program{
		Name:     "diff",
		Setup:    g.straight(4),
		Workers:  workers,
		Teardown: g.straight(4),
	}
}

func runBoth(t *testing.T, p *Program, cfg Config, restore bool) {
	t.Helper()
	cfg.MaxSteps = 1 << 22
	refCfg := cfg
	refCfg.RefWalk = true
	dec, ref := &diffRT{restore: restore}, &diffRT{restore: restore}
	decRes, decErr := NewEngine(cfg).Run(p, dec)
	refRes, refErr := NewEngine(refCfg).Run(p, ref)
	if (decErr == nil) != (refErr == nil) {
		t.Fatalf("error mismatch: decoded=%v ref=%v", decErr, refErr)
	}
	for i := 0; i < len(dec.log) && i < len(ref.log); i++ {
		if dec.log[i] != ref.log[i] {
			t.Fatalf("trace diverges at event %d:\n  decoded: %s\n  ref:     %s", i, dec.log[i], ref.log[i])
		}
	}
	if len(dec.log) != len(ref.log) {
		t.Fatalf("trace length %d != %d", len(dec.log), len(ref.log))
	}
	if decErr != nil {
		return
	}
	if decRes.Makespan != refRes.Makespan || decRes.TotalCycles != refRes.TotalCycles ||
		decRes.Instructions != refRes.Instructions || decRes.Accesses != refRes.Accesses ||
		decRes.HookedAccesses != refRes.HookedAccesses || decRes.SyncOps != refRes.SyncOps ||
		decRes.Syscalls != refRes.Syscalls || decRes.Interrupts != refRes.Interrupts {
		t.Fatalf("Result mismatch:\n  decoded: %+v\n  ref:     %+v", decRes, refRes)
	}
	if len(decRes.ThreadClocks) != len(refRes.ThreadClocks) {
		t.Fatalf("ThreadClocks length %d != %d", len(decRes.ThreadClocks), len(refRes.ThreadClocks))
	}
	for i := range decRes.ThreadClocks {
		if decRes.ThreadClocks[i] != refRes.ThreadClocks[i] {
			t.Fatalf("ThreadClocks[%d] %d != %d", i, decRes.ThreadClocks[i], refRes.ThreadClocks[i])
		}
	}
}

func TestDecodedMatchesTreeWalk(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		g := &progGen{rng: prng.New(seed * 2654435761)}
		nworkers := 2 + int(g.rng.Intn(3))
		p := g.program(nworkers)
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: generated invalid program: %v", seed, err)
		}
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Cores = 2 // oversubscribed: exercises interrupt scaling
		cfg.InterruptEvery = 3_000
		cfg.SpawnJitter = 500
		cfg.WakeJitter = 50
		runBoth(t, p, cfg, false)
	}
}

func TestDecodedMatchesTreeWalkWithRestore(t *testing.T) {
	for seed := uint64(20); seed <= 24; seed++ {
		g := &progGen{rng: prng.New(seed)}
		p := g.program(3)
		cfg := quiet()
		cfg.Seed = seed
		runBoth(t, p, cfg, true)
	}
}

// TestDecodedMatchesTreeWalkBlocking covers the sync shapes the random
// generator avoids for deadlock-freedom: semaphore producer/consumer and a
// mutex-paired condition variable ping-pong, both under interrupts.
func TestDecodedMatchesTreeWalkBlocking(t *testing.T) {
	const sem, cv, mu SyncID = 50, 51, 52
	producer := []Instr{&Loop{ID: 1, Count: 6, Body: []Instr{
		&Compute{Cycles: 30},
		&Signal{C: sem},
	}}}
	consumer := []Instr{&Loop{ID: 2, Count: 6, Body: []Instr{
		&Wait{C: sem},
		&MemAccess{Write: true, Addr: Fixed(0x100), Site: 1},
	}}}
	waiter := []Instr{
		&Lock{M: mu},
		&CondWait{C: cv, M: mu},
		&MemAccess{Addr: Fixed(0x200), Site: 2},
		&Unlock{M: mu},
	}
	signaller := []Instr{
		&Compute{Cycles: 5_000}, // let the waiter park first
		&Lock{M: mu},
		&CondSignal{C: cv},
		&Unlock{M: mu},
		&CondBroadcast{C: cv}, // no waiters: must be a no-op in both modes
	}
	p := &Program{
		Name:    "blocking",
		Workers: [][]Instr{producer, consumer, waiter, signaller},
	}
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.InterruptEvery = 2_000
	runBoth(t, p, cfg, false)
}

// TestDecodeMemoizesSharedBodies pins that workers sharing one []Instr are
// compiled once: the decoded-instruction counter sees a single copy plus the
// main wrapper.
func TestDecodeMemoizesSharedBodies(t *testing.T) {
	body := []Instr{&Compute{Cycles: 1}, &MemAccess{Addr: Fixed(0x10), Site: 1}}
	p := &Program{Workers: [][]Instr{body, body, body, body}}
	e := NewEngine(quiet())
	if _, err := e.Run(p, &NopRuntime{}); err != nil {
		t.Fatal(err)
	}
	// Shared worker body (2) decoded once + main's spawn/join wrapper (2).
	if e.decodedInstrs != 4 {
		t.Fatalf("decodedInstrs = %d, want 4 (shared bodies must decode once)", e.decodedInstrs)
	}
}

// TestDinstrLayout pins the decoded instruction at 120 bytes or less. Every
// thread body decodes to a []dinstr per run, so each field costs the whole
// stream; sync objects are looked up by id and a loop's *Loop is its ref.
func TestDinstrLayout(t *testing.T) {
	if got := unsafe.Sizeof(dinstr{}); got > 120 {
		t.Fatalf("sizeof(dinstr) = %d, want <= 120", got)
	}
}
