package core_test

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/instrument"
	"repro/internal/memmodel"
	"repro/internal/sim"
)

// TestAtomicCounterNoFalsePositive: a lock-free counter implemented with
// atomic RMWs is race-free end to end under every detector; the same
// counter bumped with plain stores is a race. So is message passing through
// an atomic: thread 0 writes y, then bumps x; thread 1 bumps x, then reads
// y. The two RMWs of x order the accesses of y.
func TestAtomicCounterNoFalsePositive(t *testing.T) {
	build := func(atomic bool) *sim.Program {
		al := memmodel.NewAllocator(1 << 20)
		ctr := al.AllocLine()
		mk := func(site sim.SiteID, pad sim.SiteID) []sim.Instr {
			var bump sim.Instr
			if atomic {
				bump = &sim.AtomicRMW{Addr: sim.Fixed(ctr), Site: site}
			} else {
				bump = &sim.MemAccess{Write: true, Addr: sim.Fixed(ctr), Site: site}
			}
			body := []sim.Instr{bump}
			return append(body, padWork(al, 30, pad)...)
		}
		return &sim.Program{Name: "counter", Workers: [][]sim.Instr{mk(1000, 2000), mk(1001, 5000)}}
	}
	messagePassing := func() *sim.Program {
		al := memmodel.NewAllocator(1 << 20)
		x, y := al.AllocLine(), al.AllocLine()
		sender := []sim.Instr{
			&sim.MemAccess{Write: true, Addr: sim.Fixed(y), Site: 10},
			&sim.AtomicRMW{Addr: sim.Fixed(x), Site: 11},
		}
		receiver := append(padWork(al, 30, 5000),
			&sim.AtomicRMW{Addr: sim.Fixed(x), Site: 20},
			&sim.MemAccess{Addr: sim.Fixed(y), Site: 21})
		return &sim.Program{Name: "msgpass", Workers: [][]sim.Instr{sender, receiver}}
	}
	programs := []struct {
		name  string
		build func() *sim.Program
		want  []detect.PairKey
	}{
		{"atomic counter", func() *sim.Program { return build(true) }, nil},
		{"plain-store counter", func() *sim.Program { return build(false) }, []detect.PairKey{{A: 1000, B: 1001}}},
		{"atomic message passing", messagePassing, nil},
	}

	// Each entry runs a program under one detector and returns the detector.
	for _, d := range []struct {
		name string
		run  func(p *sim.Program) (*detect.Detector, error)
	}{
		{"txrace", func(p *sim.Program) (*detect.Detector, error) {
			rt := core.NewTxRace(core.Options{})
			_, err := sim.NewEngine(quietConfig()).Run(instrument.ForTxRace(p, instrument.DefaultOptions()), rt)
			return rt.Detector(), err
		}},
		{"txrace bounded(N=4)", func(p *sim.Program) (*detect.Detector, error) {
			rt := core.NewTxRace(core.Options{Detect: detect.Config{Cells: 4, CellSeed: 1}})
			_, err := sim.NewEngine(quietConfig()).Run(instrument.ForTxRace(p, instrument.DefaultOptions()), rt)
			return rt.Detector(), err
		}},
		{"tsan", func(p *sim.Program) (*detect.Detector, error) {
			rt := core.NewTSan()
			_, err := sim.NewEngine(quietConfig()).Run(instrument.ForTSan(p), rt)
			return rt.Detector(), err
		}},
		{"sampling(1)", func(p *sim.Program) (*detect.Detector, error) {
			rt := core.NewSampling(1, 1, detect.Config{})
			_, err := sim.NewEngine(quietConfig()).Run(instrument.ForTSan(p), rt)
			return rt.Detector(), err
		}},
		{"bounded(N=4)", func(p *sim.Program) (*detect.Detector, error) {
			rt := core.NewTSanWith(detect.Config{Cells: 4, CellSeed: 1})
			_, err := sim.NewEngine(quietConfig()).Run(instrument.ForTSan(p), rt)
			return rt.Detector(), err
		}},
	} {
		for _, p := range programs {
			det, err := d.run(p.build())
			if err != nil {
				t.Fatalf("%s, %s: %v", d.name, p.name, err)
			}
			if keys := det.RaceKeys(); !slices.Equal(keys, p.want) {
				t.Errorf("%s, %s: %d races %v, want %v", d.name, p.name, len(keys), det.Races(), p.want)
			}
		}
	}
}

// TestAtomicIsRegionBoundary: instrumentation must cut transactions around
// atomics like around any synchronization operation.
func TestAtomicIsRegionBoundary(t *testing.T) {
	al := memmodel.NewAllocator(1 << 20)
	ctr := al.AllocLine()
	body := padWork(al, 10, 100)
	body = append(body, &sim.AtomicRMW{Addr: sim.Fixed(ctr), Site: 50})
	body = append(body, padWork(al, 10, 200)...)
	p := &sim.Program{Name: "cutcheck", Workers: [][]sim.Instr{body, padWork(al, 5, 300)}}
	ip := instrument.ForTxRace(p, instrument.DefaultOptions())
	begins := 0
	sim.ForEachInstr(ip.Workers[0], func(in sim.Instr) {
		if _, ok := in.(*sim.TxBegin); ok {
			begins++
		}
	})
	if begins != 2 {
		t.Fatalf("atomic did not split the region: %d begins", begins)
	}
}
