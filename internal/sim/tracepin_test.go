package sim

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/prng"
)

// The trace pins fix the interpreter's complete observable behaviour on a
// corpus of generated and hand-built programs: every Runtime event in order
// with the executing thread's clock, every Result field, and the error text,
// folded into one digest per run. The constants were recorded from two
// independent interpreters that agreed on every digest; any change to
// dispatch, cycle charging, scheduling or Checkpoint/Restore moves them.

// diffRT records every runtime event as a formatted line including the
// executing thread's virtual clock, so any divergence in ordering, operands,
// or cycle charging shows up as a trace mismatch. When restore is set it
// checkpoints each thread at its first TxBegin and rewinds once at the
// following TxEnd, exercising Restore mid-body.
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
		workers[i] = shared // one body, so barrier arrival counts match
	}
	return &Program{
		Name:     "diff",
		Setup:    g.straight(4),
		Workers:  workers,
		Teardown: g.straight(4),
	}
}

// traceDigest runs p once under a diffRT and hashes the full event log,
// the Result (every field, ThreadClocks included) and the error text.
func traceDigest(p *Program, cfg Config, restore bool) uint64 {
	cfg.MaxSteps = 1 << 22
	rt := &diffRT{restore: restore}
	res, err := NewEngine(cfg).Run(p, rt)
	h := fnv.New64a()
	for _, l := range rt.log {
		fmt.Fprintln(h, l)
	}
	if res != nil {
		fmt.Fprintf(h, "%+v\n", *res)
	}
	fmt.Fprintf(h, "err=%v\n", err)
	return h.Sum64()
}

func checkDigest(t *testing.T, name string, got, want uint64) {
	t.Helper()
	if got != want {
		t.Errorf("%s: trace digest %#x, want %#x", name, got, want)
	}
}

func TestTracePinned(t *testing.T) {
	want := []uint64{
		0x070923ff5aba68c2, 0x38122ebd43b52277, 0xa973453b026c3a67, 0xbe8373fd53e27d5d,
		0xa0c6198c7c3a6dcd, 0xf54794e729ae39ee, 0xaacaa2ff2aaa4e9a, 0x43cb8169d626ddc0,
	}
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
		checkDigest(t, fmt.Sprintf("seed %d", seed), traceDigest(p, cfg, false), want[seed-1])
	}
}

func TestTracePinnedWithRestore(t *testing.T) {
	want := []uint64{
		0x19c9ed1a7595a44c, 0x98a95f84f8fe2577, 0xe5e8e11ac71f6d2c, 0x795da46567c5412d,
		0x5b2c98ea335940d7,
	}
	for seed := uint64(20); seed <= 24; seed++ {
		g := &progGen{rng: prng.New(seed)}
		p := g.program(3)
		cfg := quiet()
		cfg.Seed = seed
		checkDigest(t, fmt.Sprintf("seed %d", seed), traceDigest(p, cfg, true), want[seed-20])
	}
}

// TestTracePinnedBlocking covers the sync shapes the random generator
// avoids for deadlock-freedom: semaphore producer/consumer and a
// mutex-paired condition variable ping-pong, both under interrupts.
func TestTracePinnedBlocking(t *testing.T) {
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
		&CondBroadcast{C: cv}, // no waiters: must be a no-op
	}
	p := &Program{
		Name:    "blocking",
		Workers: [][]Instr{producer, consumer, waiter, signaller},
	}
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.InterruptEvery = 2_000
	checkDigest(t, "blocking", traceDigest(p, cfg, false), 0x653301c8e0d4ec39)
}
