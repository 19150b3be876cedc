package frontend

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

func compile(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Compile("test", []byte(src))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return p
}

// TestCompileErrors pins the frontend's refusal messages: unsupported Go must
// fail loudly at compile time, never lower to a silently wrong program.
func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"no-main", `package main
var x int`, "no func main"},
		{"bodyless-func", `package main
func ext()
func main() { ext() }`, "function ext has no body"},
		{"method", `package main
type T struct{}
func (T) M() {}
func main() {}`, "methods are unsupported"},
		{"pointer-deref", `package main
var p *int
func main() { _ = *p }`, "pointer dereference is unsupported"},
		{"unknown-func", `package main
var f func()
func main() { f() }`, "unknown function"},
		{"recursion", `package main
func loop() { loop() }
func main() { loop() }`, "recursive call"},
		{"non-const-bound", `package main
var n int
func main() {
	for i := 0; i < n; i++ {
	}
}`, "loop bound must be a constant"},
		{"wait-without-done", `package main
import "sync"
var wg sync.WaitGroup
func main() { wg.Wait() }`, "no wg.Done() anywhere"},
		{"assign-to-iv", `package main
func main() {
	for i := 0; i < 4; i++ {
		i = 2
	}
}`, "cannot assign to loop induction variable"},
		{"slice-without-make", `package main
var s []int
func main() { s[0] = 1 }`, "before make"},
		{"nested-spawn", `package main
func spawn() { go work() }
func work()  {}
func main()  { spawn() }`, "go statements are supported only in main"},
		{"non-sync-import", `package main
import "fmt"
func main() { fmt.Println("hi") }`, `import "fmt" not supported`},
		{"two-ivs", `package main
var a [16]int
func main() {
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			a[i+j] = 1
		}
	}
}`, "two induction variables"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile("test", []byte(tc.src))
			if err == nil {
				t.Fatalf("compiled, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %q, want substring %q", err, tc.want)
			}
		})
	}
}

// TestSetupContinuationSplit pins the phase structure: statements before the
// first spawn are single-threaded Setup, main's remainder is one more worker.
func TestSetupContinuationSplit(t *testing.T) {
	p := compile(t, `package main
var a, b int
var done chan bool
func main() {
	done = make(chan bool)
	a = 1
	go func() {
		b = a
		done <- true
	}()
	b = 2
	<-done
}`)
	// Setup: chan make is sync-only, then the write of a.
	if len(p.Prog.Workers) != 2 {
		t.Fatalf("workers = %d, want 2 (goroutine + continuation)", len(p.Prog.Workers))
	}
	setupWrites := countAccesses(p.Prog.Setup)
	if setupWrites != 1 {
		t.Fatalf("setup has %d accesses, want 1 (a = 1)", setupWrites)
	}
	// The continuation holds b = 2 and the recv.
	cont := p.Prog.Workers[1]
	if countAccesses(cont) != 1 {
		t.Fatalf("continuation has %d accesses, want 1 (b = 2)", countAccesses(cont))
	}
	hasWait := false
	for _, in := range cont {
		if _, ok := in.(*sim.Wait); ok {
			hasWait = true
		}
	}
	if !hasWait {
		t.Fatal("continuation lost the <-done wait")
	}
}

func countAccesses(body []sim.Instr) int {
	n := 0
	for _, in := range body {
		switch in := in.(type) {
		case *sim.MemAccess:
			n++
		case *sim.Loop:
			n += countAccesses(in.Body)
		}
	}
	return n
}

func collectAccesses(body []sim.Instr) []*sim.MemAccess {
	var out []*sim.MemAccess
	for _, in := range body {
		switch in := in.(type) {
		case *sim.MemAccess:
			out = append(out, in)
		case *sim.Loop:
			out = append(out, collectAccesses(in.Body)...)
		}
	}
	return out
}

// TestSiteIdentityAcrossInstances pins static site identity: a spawn loop
// unrolls one body into N workers, but every re-emission of a statement
// shares the site keyed by its source position.
func TestSiteIdentityAcrossInstances(t *testing.T) {
	p := compile(t, `package main
var x int
var done chan bool
func main() {
	done = make(chan bool)
	for i := 0; i < 3; i++ {
		go func() {
			x = 1
			done <- true
		}()
	}
	<-done
	<-done
	<-done
}`)
	if len(p.Prog.Workers) != 4 {
		t.Fatalf("workers = %d, want 4", len(p.Prog.Workers))
	}
	var writeSites []sim.SiteID
	for _, w := range p.Prog.Workers[:3] {
		for _, m := range collectAccesses(w) {
			if m.Write {
				writeSites = append(writeSites, m.Site)
			}
		}
	}
	if len(writeSites) != 3 {
		t.Fatalf("x = 1 emitted %d writes across instances, want 3", len(writeSites))
	}
	if writeSites[0] != writeSites[1] || writeSites[1] != writeSites[2] {
		t.Fatalf("unrolled instances got distinct sites %v, want one shared site", writeSites)
	}
	s, ok := p.Site(writeSites[0])
	if !ok || s.Line != 8 || !s.Write {
		t.Fatalf("site maps to %+v, want write on line 8", s)
	}
}

// TestPerInstanceLocals pins object identity: a local declared inside a
// goroutine body is a fresh object per unrolled instance (never falsely
// shared), while a captured outer variable is one shared object.
func TestPerInstanceLocals(t *testing.T) {
	p := compile(t, `package main
var shared int
var done chan bool
func main() {
	done = make(chan bool)
	for i := 0; i < 3; i++ {
		go func() {
			mine := shared
			_ = mine
			done <- true
		}()
	}
	<-done
	<-done
	<-done
}`)
	var mine []Object
	for _, o := range p.Objects {
		if o.Name == "mine" {
			mine = append(mine, o)
		}
	}
	if len(mine) != 3 {
		t.Fatalf("got %d 'mine' objects, want 3 (one per goroutine instance)", len(mine))
	}
	bases := map[any]bool{}
	for _, o := range mine {
		if o.Shared {
			t.Fatalf("instance-local %+v marked shared", o)
		}
		bases[o.Base] = true
	}
	if len(bases) != 3 {
		t.Fatalf("instance locals share addresses: %+v", mine)
	}
	for _, o := range p.Objects {
		if o.Name == "shared" && !o.Shared {
			t.Fatalf("captured global %+v not marked shared", o)
		}
	}
}

// TestAddrLoopFolding pins element addressing: buf[coeff*i + c] inside a
// counted loop lowers to an AddrLoop expression with the loop's start and
// step folded into stride and offset.
func TestAddrLoopFolding(t *testing.T) {
	p := compile(t, `package main
var buf [64]int
var done chan bool
func main() {
	done = make(chan bool)
	go func() {
		for i := 2; i < 10; i += 2 {
			buf[3*i+1] = 0
		}
		done <- true
	}()
	<-done
}`)
	acc := collectAccesses(p.Prog.Workers[0])
	if len(acc) != 1 {
		t.Fatalf("worker has %d accesses, want 1", len(acc))
	}
	a := acc[0].Addr
	if a.Mode != sim.AddrLoop {
		t.Fatalf("mode = %v, want AddrLoop", a.Mode)
	}
	// Source index 3*i+1 with i = 2 + 2*iter: word = 6*iter + 7.
	if a.Stride != 6 || a.Off != 7 || a.Depth != 0 {
		t.Fatalf("addr = stride %d off %d depth %d, want stride 6 off 7 depth 0", a.Stride, a.Off, a.Depth)
	}
}

// TestStructFieldOffsets pins field-granular addressing: distinct fields of
// one struct get distinct word offsets, and a mutex field occupies no words.
func TestStructFieldOffsets(t *testing.T) {
	p := compile(t, `package main
import "sync"
type rec struct {
	mu sync.Mutex
	a  int
	b  int
}
var r rec
var done chan bool
func main() {
	done = make(chan bool)
	go func() {
		r.mu.Lock()
		r.a = 1
		r.mu.Unlock()
		done <- true
	}()
	r.mu.Lock()
	r.b = 2
	r.mu.Unlock()
	<-done
}`)
	var rObj Object
	for _, o := range p.Objects {
		if o.Name == "r" {
			rObj = o
		}
	}
	if rObj.Words != 2 {
		t.Fatalf("r spans %d words, want 2 (mutex field is word-free)", rObj.Words)
	}
	addrs := map[any]bool{}
	for _, w := range p.Prog.Workers {
		for _, m := range collectAccesses(w) {
			addrs[m.Addr.Base] = true
		}
	}
	if len(addrs) != 2 {
		t.Fatalf("field accesses hit %d distinct words, want 2", len(addrs))
	}
}

// TestCompileDeterministic pins that compiling the same source twice yields
// identical site tables and IR — the corpus cache hands one Program to every
// caller, so lowering must be a pure function of the source.
func TestCompileDeterministic(t *testing.T) {
	src, err := corpusFS.ReadFile("testdata/corpus/doublecheck.go")
	if err != nil {
		t.Fatal(err)
	}
	p1, err := Compile("doublecheck", src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile("doublecheck", src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1.Sites, p2.Sites) {
		t.Fatal("site tables differ between identical compiles")
	}
	if !reflect.DeepEqual(p1.Prog, p2.Prog) {
		t.Fatal("lowered IR differs between identical compiles")
	}
}

// TestSiteOnAmbiguity pins the ground-truth resolver's refusal to guess.
func TestSiteOnAmbiguity(t *testing.T) {
	p := compile(t, `package main
var a, b int
var done chan bool
func main() {
	done = make(chan bool)
	go func() {
		a = 1
		done <- true
	}()
	b = a
	<-done
}`)
	// Line 10 reads a; exactly one read site.
	if _, err := p.SiteOn(10, false); err != nil {
		t.Fatalf("unique site rejected: %v", err)
	}
	if _, err := p.SiteOn(99, true); err == nil {
		t.Fatal("missing site resolved")
	}
}
