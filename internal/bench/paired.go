package bench

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Paired's rule, the one perfbench's end-to-end comparison applies: a row
// regresses when the change is slower in at least nine tenths of the pairs
// and its median is slower than the parent's by more than seamBudget and by
// more than the parent's interquartile range.
const (
	minPairs   = 10
	seamBudget = 0.05
)

// Paired checks a change's micro-suite runs against its parent's, taken as
// pairs on one host. Each side holds one Result per row per run, in run
// order; the i-th runs of a row on the two sides form a pair. Run at least
// minPairs pairs and alternate which side runs first, so host drift falls
// on both sides alike. Rows only one side has are skipped: a new row has no
// parent to regress from. The change's per-row medians must also pass Gate,
// so a row Gate needs cannot pass by being left out. The error names every
// failure.
func Paired(parent, change []Result) error {
	var failed []string
	if err := Gate(medians(change)); err != nil {
		failed = append(failed, err.Error())
	}
	ps, cs := byRow(parent), byRow(change)
	for _, name := range rowOrder(parent) {
		p, c := ps[name], cs[name]
		switch {
		case len(c) == 0:
		case len(p) != len(c):
			failed = append(failed, fmt.Sprintf("bench: %s has %d parent runs but %d change runs", name, len(p), len(c)))
		case len(p) < minPairs:
			failed = append(failed, fmt.Sprintf("bench: %s has %d pairs, want at least %d", name, len(p), minPairs))
		default:
			slower := 0
			for i := range p {
				if c[i] > p[i] {
					slower++
				}
			}
			pm, cm := quantile(p, 0.5), quantile(c, 0.5)
			iqr := quantile(p, 0.75) - quantile(p, 0.25)
			if 10*slower >= 9*len(p) && cm-pm > pm*seamBudget && cm-pm > iqr {
				failed = append(failed, fmt.Sprintf("bench: %s %.2f ns/op, slower than the parent's %.2f ns/op (IQR %.2f) in %d of %d pairs",
					name, cm, pm, iqr, slower, len(p)))
			}
		}
	}
	if len(failed) > 0 {
		return errors.New(strings.Join(failed, "; "))
	}
	return nil
}

// medians reduces repeated runs to one Result per row, in first-run order:
// the median ns/op and the median allocations per op.
func medians(rs []Result) []Result {
	ns := byRow(rs)
	allocs := map[string][]float64{}
	for _, r := range rs {
		allocs[r.Name] = append(allocs[r.Name], r.AllocsPerOp)
	}
	var out []Result
	for _, name := range rowOrder(rs) {
		out = append(out, Result{Name: name, NsPerOp: quantile(ns[name], 0.5), AllocsPerOp: quantile(allocs[name], 0.5)})
	}
	return out
}

// byRow collects each row's ns/op samples in run order.
func byRow(rs []Result) map[string][]float64 {
	m := map[string][]float64{}
	for _, r := range rs {
		m[r.Name] = append(m[r.Name], r.NsPerOp)
	}
	return m
}

// rowOrder lists the distinct row names in order of first appearance.
func rowOrder(rs []Result) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range rs {
		if !seen[r.Name] {
			seen[r.Name] = true
			out = append(out, r.Name)
		}
	}
	return out
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// microLine matches one BenchmarkMicro row of go test -bench output; the
// -N suffix is the GOMAXPROCS go test appends when it is above 1.
var microLine = regexp.MustCompile(`^BenchmarkMicro/(\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// Parse reads the output of one or more go test -bench Micro runs and
// returns one Result per row line, in order. Each row must report ns/op and
// BenchmarkMicro's exact mallocs/op.
func Parse(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := microLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		res := Result{Name: m[1], NsPerOp: -1, AllocsPerOp: -1}
		f := strings.Fields(m[2])
		for i := 0; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bench: row %s: bad value %q", res.Name, f[i])
			}
			switch f[i+1] {
			case "ns/op":
				res.NsPerOp = v
			case "mallocs/op":
				res.AllocsPerOp = v
			}
		}
		if res.NsPerOp < 0 || res.AllocsPerOp < 0 {
			return nil, fmt.Errorf("bench: row %s lacks ns/op or mallocs/op", res.Name)
		}
		out = append(out, res)
	}
	return out, sc.Err()
}
