package frontend

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

// FuzzCompile holds Compile to the Go source boundary's contract: any input
// compiles to a program or fails with a one-line error, never a panic, and
// compiling the same bytes twice lowers to the same program. The corpus
// snippets seed it.
func FuzzCompile(f *testing.F) {
	entries, err := corpusFS.ReadDir("testdata/corpus")
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		src, err := corpusFS.ReadFile("testdata/corpus/" + e.Name())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		p, err := Compile("fuzz", src)
		if err != nil {
			if msg := err.Error(); strings.ContainsAny(msg, "\r\n") {
				t.Fatalf("error spans lines: %q", msg)
			}
			return
		}
		q, err := Compile("fuzz", src)
		if err != nil {
			t.Fatalf("second compile failed: %v", err)
		}
		var a, b bytes.Buffer
		sim.Dump(&a, p.Prog)
		sim.Dump(&b, q.Prog)
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("same source lowered twice differs:\n%s\n---\n%s", a.Bytes(), b.Bytes())
		}
	})
}
