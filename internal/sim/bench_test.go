package sim

import "testing"

// BenchmarkEngineThroughput measures raw interpreter speed (instructions
// per second) on a compute/access mix with no runtime hooks.
func BenchmarkEngineThroughput(b *testing.B) {
	body := []Instr{&Loop{ID: 1, Count: 1000, Body: []Instr{
		&MemAccess{Write: true, Addr: Indexed(0, 1), Site: 1},
		&MemAccess{Addr: Random(1<<20, 4096), Site: 2},
		&Compute{Cycles: 3},
	}}}
	p := &Program{Workers: [][]Instr{body, body, body, body}}
	cfg := quiet()
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		res, err := NewEngine(cfg).Run(p, &NopRuntime{})
		if err != nil {
			b.Fatal(err)
		}
		instrs = res.Instructions
	}
	b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

func BenchmarkCheckpointRestore(b *testing.B) {
	rt := &checkpointBench{}
	p := &Program{Workers: [][]Instr{{
		&TxBegin{},
		&Loop{ID: 1, Count: 5, Body: []Instr{
			&Loop{ID: 2, Count: 5, Body: []Instr{&Compute{Cycles: 1}}},
		}},
		&TxEnd{},
	}}}
	cfg := quiet()
	eng := NewEngine(cfg)
	if _, err := eng.Run(p, rt); err != nil {
		b.Fatal(err)
	}
	t := rt.t
	var s Snapshot
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Checkpoint(t, &s)
		eng.Restore(t, &s)
	}
}

type checkpointBench struct {
	NopRuntime
	t *Thread
}

func (c *checkpointBench) TxBeginMark(t *Thread, _ *TxBegin) { c.t = t }
