package bench

import (
	"strings"
	"testing"
)

func synthetic(name string, ns, allocs float64) Result {
	return Result{Name: name, NsPerOp: ns, AllocsPerOp: allocs}
}

func healthySuite() []Result {
	return []Result{
		synthetic("shadow/touch/map", 100, 1.0),
		synthetic("shadow/touch/paged", 40, 0.01),
		synthetic("shadow/revisit/paged", 10, 0),
		synthetic("detect/sweep", 50, 0.001),
		synthetic("htm/access/idle", 2, 0),
		synthetic("htm/access/scan", 30, 0),
		synthetic("htm/access/dir", 14, 0),
		synthetic("htm/access/tag", 11, 0),
		synthetic("htm/access/bounded", 16, 0),
		synthetic("sim/dispatch/tree", 250000, 40),
		synthetic("sim/dispatch/decoded", 220000, 45),
		synthetic("detect/join/dense/8", 40, 0),
		synthetic("detect/join/sparse/8", 36, 0.02),
		synthetic("detect/join/dense/1024", 1400, 0),
		synthetic("detect/join/sparse/1024", 250, 0.02),
		synthetic("clock/collapse", 37000, 5),
		synthetic("detect/shard/1", 1000000, 100),
		synthetic("detect/shard/4", 400000, 100),
		synthetic("detect/shard/8", 300000, 100),
	}
}

func TestGatePassesOnHealthySuite(t *testing.T) {
	if err := Gate(healthySuite()); err != nil {
		t.Fatalf("Gate rejected healthy suite: %v", err)
	}
}

func TestGateRejectsHotPathRegressions(t *testing.T) {
	rs := healthySuite()
	rs[6] = synthetic("htm/access/dir", 28, 0) // lead over scan collapsed
	if err := Gate(rs); err == nil || !strings.Contains(err.Error(), "directory access") {
		t.Fatalf("Gate accepted directory regression: %v", err)
	}
	rs[6] = synthetic("htm/access/dir", 14, 0)
	rs[7] = synthetic("htm/access/tag", 15, 0) // tag lost its lead over dir
	if err := Gate(rs); err == nil || !strings.Contains(err.Error(), "tag access") {
		t.Fatalf("Gate accepted tag regression: %v", err)
	}
	rs[7] = synthetic("htm/access/tag", 11, 0)
	rs[10] = synthetic("sim/dispatch/decoded", 260000, 45) // lost to tree walk
	if err := Gate(rs); err == nil || !strings.Contains(err.Error(), "decoded dispatch") {
		t.Fatalf("Gate accepted dispatch regression: %v", err)
	}
	rs[10] = synthetic("sim/dispatch/decoded", 220000, 45)
	rs[4] = synthetic("htm/access/idle", 2, 0.5) // fast path allocating
	if err := Gate(rs); err == nil || !strings.Contains(err.Error(), "htm/access/idle") {
		t.Fatalf("Gate accepted idle-path allocations: %v", err)
	}
	rs[4] = synthetic("htm/access/idle", 2, 0)
	rs[14] = synthetic("detect/join/sparse/1024", 800, 0.02) // lost the 2x scaling win
	if err := Gate(rs); err == nil || !strings.Contains(err.Error(), "sparse join") {
		t.Fatalf("Gate accepted sparse join scaling regression: %v", err)
	}
	rs[14] = synthetic("detect/join/sparse/1024", 250, 0.02)
	rs[12] = synthetic("detect/join/sparse/8", 60, 0.02) // small-fleet regression
	if err := Gate(rs); err == nil || !strings.Contains(err.Error(), "join at 8") {
		t.Fatalf("Gate accepted small-fleet sparse join regression: %v", err)
	}
	rs[12] = synthetic("detect/join/sparse/8", 36, 0.02)
	// 8-shard replay slower than 2x the sequential one fails the shard gate
	// on every core-count branch.
	rs[18] = synthetic("detect/shard/8", 2100000, 100)
	if err := Gate(rs); err == nil || !strings.Contains(err.Error(), "8-shard replay") {
		t.Fatalf("Gate accepted sharded-detection regression: %v", err)
	}
}

func TestGateRejectsAllocRegression(t *testing.T) {
	rs := []Result{
		synthetic("shadow/touch/map", 100, 1.0),
		synthetic("shadow/touch/paged", 40, 0.9), // less than 2x better
		synthetic("shadow/revisit/paged", 10, 0),
		synthetic("detect/sweep", 50, 0),
	}
	if err := Gate(rs); err == nil || !strings.Contains(err.Error(), "first-touch") {
		t.Fatalf("Gate accepted alloc regression: %v", err)
	}
	rs[1] = synthetic("shadow/touch/paged", 40, 0.01)
	rs[3] = synthetic("detect/sweep", 50, 0.5) // steady state allocating
	if err := Gate(rs); err == nil || !strings.Contains(err.Error(), "detect/sweep") {
		t.Fatalf("Gate accepted steady-state allocations: %v", err)
	}
}

func TestGateRejectsMissingResults(t *testing.T) {
	if err := Gate(nil); err == nil {
		t.Fatal("Gate accepted empty suite")
	}
}

// TestMicroSuiteSmoke runs the real suite components for a handful of
// iterations each — enough to catch panics and wiring mistakes without the
// full measurement cost. The full suite runs as BenchmarkMicro, gated by
// microgate in CI.
func TestMicroSuiteSmoke(t *testing.T) {
	for _, f := range microFuncs() {
		n := 2048
		if strings.HasPrefix(f.name, "detect/shard/") {
			n = 1 // one op is a full 120k-event sharded replay
		}
		f.fn(&testing.B{N: n})
	}
}
