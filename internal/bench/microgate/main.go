// Command microgate gates a change's micro-suite runs against its parent's:
//
//	microgate parent.txt change.txt
//
// Each file holds one side's go test -bench output for at least ten runs of
// every BenchmarkMicro row, in run order, the i-th runs of a row on the two
// sides forming a pair, as pairs.sh writes them. microgate applies
// bench.Paired, which checks the change's per-row medians with bench.Gate
// and each row against its parent, and exits 1 with one line naming every
// failure.
package main

import (
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: microgate parent.txt change.txt")
		os.Exit(2)
	}
	parent, err := read(os.Args[1])
	if err != nil {
		fatal(err)
	}
	change, err := read(os.Args[2])
	if err != nil {
		fatal(err)
	}
	if err := bench.Paired(parent, change); err != nil {
		fatal(err)
	}
	fmt.Printf("microgate: ok (%d parent and %d change samples)\n", len(parent), len(change))
}

func read(path string) ([]bench.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs, err := bench.Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "microgate:", err)
	os.Exit(1)
}
