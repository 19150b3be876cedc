package bench

import (
	"strings"
	"testing"
)

// runs repeats the healthy suite n times with ±5% run-to-run jitter, the
// spread this suite shows between runs on a shared 2-vCPU host. slow scales
// the named rows' ns/op on every run.
func runs(n int, slow map[string]float64) []Result {
	var out []Result
	for i := 0; i < n; i++ {
		jitter := 1 + 0.05*float64(i%5-2)/2
		for _, r := range healthySuite() {
			r.NsPerOp *= jitter
			if f, ok := slow[r.Name]; ok {
				r.NsPerOp *= f
			}
			out = append(out, r)
		}
	}
	return out
}

func TestPaired(t *testing.T) {
	parent := runs(10, nil)
	if err := Paired(parent, runs(10, nil)); err != nil {
		t.Fatalf("Paired rejected unchanged pairs: %v", err)
	}
	err := Paired(parent, runs(10, map[string]float64{"htm/access/dir": 1.2}))
	if err == nil || !strings.Contains(err.Error(), "htm/access/dir") || !strings.Contains(err.Error(), "10 of 10") {
		t.Fatalf("Paired accepted a row 20%% slower in every pair: %v", err)
	}
	err = Paired(parent, runs(10, map[string]float64{"htm/access/dir": 1.2, "detect/sweep": 1.3}))
	if err == nil || !strings.Contains(err.Error(), "htm/access/dir") || !strings.Contains(err.Error(), "detect/sweep") {
		t.Fatalf("Paired did not name both regressed rows: %v", err)
	}
	if err := Paired(parent, runs(10, map[string]float64{"detect/sweep": 1.04})); err != nil {
		t.Fatalf("Paired rejected a row 4%% slower, inside the parent's IQR: %v", err)
	}
	fresh := runs(10, nil)
	for i := 0; i < 10; i++ {
		fresh = append(fresh, synthetic("detect/new", 1e9, 0))
	}
	if err := Paired(parent, fresh); err != nil {
		t.Fatalf("Paired rejected a row the parent does not have: %v", err)
	}
	var missing []Result
	for _, r := range runs(10, nil) {
		if r.Name != "detect/sweep" {
			missing = append(missing, r)
		}
	}
	if err := Paired(parent, missing); err == nil || !strings.Contains(err.Error(), "suite missing detect/sweep") {
		t.Fatalf("Paired accepted runs missing a row Gate needs: %v", err)
	}
	if err := Paired(parent, runs(10, map[string]float64{"htm/access/dir": 2})); err == nil || !strings.Contains(err.Error(), "directory access") {
		t.Fatalf("Paired did not apply Gate to the change's medians: %v", err)
	}
	if err := Paired(runs(9, nil), runs(9, nil)); err == nil || !strings.Contains(err.Error(), "9 pairs") {
		t.Fatalf("Paired accepted fewer than %d pairs: %v", minPairs, err)
	}
}

func TestParseAndMedians(t *testing.T) {
	out := `goos: linux
BenchmarkMicro/shadow/touch/paged-2   	31201196	        34.36 ns/op	         0.001972 mallocs/op	      64 B/op	       0 allocs/op
BenchmarkMicro/detect/shard/8-2       	      73	  17783744 ns/op	     73961 mallocs/op	 6722696 B/op	   73961 allocs/op
PASS
BenchmarkMicro/shadow/touch/paged     	31201196	        30.00 ns/op	         0.002100 mallocs/op
BenchmarkMicro/shadow/touch/paged-2   	31201196	        40.00 ns/op	         0.001000 mallocs/op
`
	rs, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := []Result{
		{"shadow/touch/paged", 34.36, 0.001972},
		{"detect/shard/8", 17783744, 73961},
		{"shadow/touch/paged", 30, 0.0021},
		{"shadow/touch/paged", 40, 0.001},
	}
	if len(rs) != len(want) {
		t.Fatalf("Parse = %+v, want %+v", rs, want)
	}
	for i := range want {
		if rs[i] != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, rs[i], want[i])
		}
	}
	med := medians(rs)
	if len(med) != 2 || med[0] != (Result{"shadow/touch/paged", 34.36, 0.001972}) || med[1].Name != "detect/shard/8" {
		t.Fatalf("medians = %+v", med)
	}
	if _, err := Parse(strings.NewReader("BenchmarkMicro/detect/sweep-2 100 31.4 ns/op 0 B/op 0 allocs/op\n")); err == nil {
		t.Fatal("Parse accepted a row without mallocs/op")
	}
}
