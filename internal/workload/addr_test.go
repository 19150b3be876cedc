package workload

import (
	"testing"

	"repro/internal/memmodel"
	"repro/internal/shadow"
	"repro/internal/sim"
)

// maxAddr returns the largest address any execution of body can access,
// given the trip counts of the loops enclosing it (innermost last). It
// bounds every address mode: a fixed base, the last word of a random
// range, and a loop expression at its last iteration or below its wrap.
func maxAddr(body []sim.Instr, trips []int) memmodel.Addr {
	var hi memmodel.Addr
	note := func(a sim.AddrExpr) {
		var words uint64
		switch a.Mode {
		case sim.AddrRandom:
			if a.Range > 0 {
				words = a.Range - 1
			}
		case sim.AddrLoop:
			iter := 0
			if a.Depth < len(trips) {
				iter = max(trips[len(trips)-1-a.Depth]-1, 0)
			}
			words = uint64(iter)*a.Stride + a.Off
			if a.Wrap != 0 && words >= a.Wrap {
				words = a.Wrap - 1
			}
		}
		hi = max(hi, a.Base+memmodel.Addr(words*memmodel.WordSize))
	}
	for _, in := range body {
		switch in := in.(type) {
		case *sim.MemAccess:
			note(in.Addr)
		case *sim.AtomicRMW:
			note(in.Addr)
		case *sim.Loop:
			hi = max(hi, maxAddr(in.Body, append(trips, in.Count)))
		}
	}
	return hi
}

func progMaxAddr(p *sim.Program) memmodel.Addr {
	hi := max(maxAddr(p.Setup, nil), maxAddr(p.Teardown, nil))
	for _, w := range p.Workers {
		hi = max(hi, maxAddr(w, nil))
	}
	return hi
}

// TestPageTableBoundedCoversWorkloads checks that every workload, at the
// thread counts and scales the commands run, addresses only granules inside
// the shadow page table's directly indexed window, so no detector or HTM
// lookup on a real workload falls back to the far-page map.
func TestPageTableBoundedCoversWorkloads(t *testing.T) {
	limit := memmodel.Addr(uint64(shadow.MaxDirPages) * shadow.PageSize * memmodel.WordSize)
	check := func(name string, threads, scale int, bl *Built) {
		t.Helper()
		hi := progMaxAddr(bl.Prog)
		if hi < 1<<20 {
			t.Errorf("%s threads %d scale %d: highest address %#x is below the 1 MiB allocation base; the walk missed its accesses", name, threads, scale, uint64(hi))
		}
		if hi >= limit {
			t.Errorf("%s threads %d scale %d: address %#x is outside the dense window [0, %#x)", name, threads, scale, uint64(hi), uint64(limit))
		}
	}
	scales := []int{1, 8}
	if testing.Short() {
		scales = scales[:1]
	}
	for _, w := range All() {
		for _, threads := range []int{4, 8, w.MaxThreads} {
			for _, scale := range scales {
				check(w.Name, threads, scale, w.Build(threads, scale))
			}
		}
	}
	for _, w := range Scaling() {
		for _, threads := range []int{4, 1024} {
			for _, scale := range scales {
				check(w.Name, threads, scale, w.Build(threads, scale))
			}
		}
	}
	for _, name := range GoNames() {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		check(name, 4, 1, w.Build(4, 1))
	}
}
