package sim

import (
	"testing"

	"repro/internal/prng"
)

// schedRT folds the scheduler's decision sequence — the (thread, clock) pair
// at every PreStep — into one FNV-1a hash. It embeds diffRT so the restore
// variant also exercises Checkpoint/Restore.
type schedRT struct {
	diffRT
	h     uint64
	steps int
}

func (r *schedRT) PreStep(t *Thread) {
	r.steps++
	for _, v := range [2]uint64{uint64(t.ID), uint64(t.Clock)} {
		for i := 0; i < 8; i++ {
			r.h ^= v & 0xff
			r.h *= 1099511628211
			v >>= 8
		}
	}
}

// tieProgram gives seven workers one body and no jitter, so most picks end
// in a clock tie across up to seven threads (the reservoir's general path)
// and the barrier and mutex re-synchronise them repeatedly.
func tieProgram() *Program {
	body := []Instr{&Loop{ID: 1, Count: 12, Body: []Instr{
		&Compute{Cycles: 10},
		&Lock{M: 1},
		&MemAccess{Write: true, Addr: Fixed(0x40), Site: 1},
		&Unlock{M: 1},
		&Barrier{B: 2, N: 7},
	}}}
	workers := make([][]Instr, 7)
	for i := range workers {
		workers[i] = body
	}
	return &Program{Name: "ties", Workers: workers}
}

// TestScheduleSequencePinned pins the exact pick order and RNG draw count of
// the scheduler on programs covering mutex, rwlock, semaphore, condition
// variable, barrier, spawn/join and timer interrupts.
// The hashes were recorded before the run-queue scheduler replaced the full
// thread scan; any change to tie-breaking or to the number of scheduler draws
// moves them.
func TestScheduleSequencePinned(t *testing.T) {
	interrupting := func(seed uint64) Config {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Cores = 2
		cfg.InterruptEvery = 3_000
		cfg.SpawnJitter = 500
		cfg.WakeJitter = 50
		return cfg
	}
	blocking := func() *Program {
		const sem, cv, mu SyncID = 50, 51, 52
		return &Program{Name: "blocking", Workers: [][]Instr{
			{&Loop{ID: 1, Count: 6, Body: []Instr{&Compute{Cycles: 30}, &Signal{C: sem}}}},
			{&Loop{ID: 2, Count: 6, Body: []Instr{&Wait{C: sem}, &MemAccess{Write: true, Addr: Fixed(0x100), Site: 1}}}},
			{&Lock{M: mu}, &CondWait{C: cv, M: mu}, &MemAccess{Addr: Fixed(0x200), Site: 2}, &Unlock{M: mu}},
			{&Lock{M: mu}, &CondWait{C: cv, M: mu}, &Unlock{M: mu}},
			{&Compute{Cycles: 5_000}, &Lock{M: mu}, &CondSignal{C: cv}, &Unlock{M: mu},
				&Compute{Cycles: 5_000}, &Lock{M: mu}, &CondBroadcast{C: cv}, &Unlock{M: mu}},
		}}
	}
	gen := func(seed uint64, nworkers int) *Program {
		g := &progGen{rng: prng.New(seed * 2654435761)}
		return g.program(nworkers)
	}
	cases := []struct {
		name    string
		prog    *Program
		cfg     Config
		restore bool
		want    uint64
	}{
		{"random-1", gen(1, 3), interrupting(1), false, 0xf03fa5de0f322bba},
		{"random-2", gen(2, 4), interrupting(2), false, 0x8e72bba9f08b245b},
		{"random-3", gen(3, 6), interrupting(3), false, 0xc00c6e342a2060ad},
		{"random-restore", gen(20, 3), interrupting(20), true, 0x3ff56905767b7c0c},
		{"blocking", blocking(), interrupting(7), false, 0x22527824cd397cc5},
		{"ties", tieProgram(), quiet(), false, 0x36807a14fdddd131},
		{"ties-interrupts", tieProgram(), interrupting(11), false, 0x1f01ceab76f26066},
	}
	for _, c := range cases {
		cfg := c.cfg
		cfg.MaxSteps = 1 << 22
		rt := &schedRT{diffRT: diffRT{restore: c.restore}, h: 14695981039346656037}
		if _, err := NewEngine(cfg).Run(c.prog, rt); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if rt.h != c.want {
			t.Errorf("%s: schedule hash %#x over %d steps, want %#x",
				c.name, rt.h, rt.steps, c.want)
		}
	}
}
