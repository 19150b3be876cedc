package bench

import (
	"runtime"
	"testing"
)

// BenchmarkMicro runs the micro suite under go test, one sub-benchmark per
// row:
//
//	go test -run '^$' -bench Micro ./internal/bench
//
// The file depends only on microFuncs, whose shape is unchanged since the
// suite was added, so it can be copied into an older checkout to measure a
// parent commit or bisect with the same rows.
//
// go test prints allocs/op truncated to an integer, which hides the
// sub-integer rates Gate checks (shadow/touch/paged sits near 0.002). Each
// row therefore also reports mallocs/op: the exact malloc count of the
// invocation over b.N. It includes the row's set-up, which is a few hundred
// mallocs at most and is spread over b.N iterations.
func BenchmarkMicro(b *testing.B) {
	for _, mb := range microFuncs() {
		fn := mb.fn
		b.Run(mb.name, func(b *testing.B) {
			var ms runtime.MemStats
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			b.StartTimer()
			fn(b)
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(ms.Mallocs-before)/float64(b.N), "mallocs/op")
		})
	}
}
