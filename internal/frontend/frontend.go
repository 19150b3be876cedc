// Package frontend compiles a small but useful subset of real Go source
// into the sim IR, so TxRace runs on actual Go programs rather than only on
// the calibrated synthetic PARSEC stand-ins. It is the reproduction's
// analogue of the paper's LLVM instrumentation front half: a go/ast +
// go/types pass that
//
//   - lowers each `go` statement into a sim worker thread (spawn loops with
//     constant bounds are unrolled, one worker per iteration);
//   - maps sync.Mutex / sync.RWMutex methods to Lock/Unlock and
//     RLock/RUnlock/WLock/WUnlock, channel send/recv to Signal/Wait
//     semaphore pairs, and sync.WaitGroup to a join semaphore (Done posts
//     once, Wait pends once per statically counted Done);
//   - lowers variable, struct-field, and array/slice-element accesses to
//     typed address descriptors — one address range per object, one word
//     per scalar or field, element-granular for arrays and slices
//     (loop-indexed elements become AddrLoop expressions), and a single
//     whole-object word for maps, matching the granularity the Go race
//     detector itself uses for map headers;
//   - splits main into the paper's phase structure: everything before the
//     first spawned goroutine is the single-threaded Setup, and main's own
//     continuation (spawn-loop bookkeeping, WaitGroup waits, the epilogue)
//     becomes one more worker thread, so unsynchronized reads in main stay
//     concurrent with the goroutines they race with.
//
// Source positions survive lowering: every emitted access carries a SiteID
// keyed by (file position, read/write), so a race report maps back to the
// exact source line, and re-emissions of the same statement (unrolled spawn
// iterations, inlined helper calls) share one site — static identity, as in
// the paper's PC-keyed race deduplication.
//
// DESIGN.md §13 documents the supported subset and every lowering rule,
// including the two deliberate approximations (both arms of an `if` are
// emitted, and statements between two spawns in main are concurrent with
// every goroutine rather than only the later ones).
package frontend

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/memmodel"
	"repro/internal/sim"
)

// Site maps one emitted access site back to source.
type Site struct {
	ID     sim.SiteID
	File   string
	Line   int
	Col    int
	Write  bool
	Object string // display path of the accessed object, e.g. "counter", "buf[.]", "cfg.value"
}

// Object is one lowered data object with its address range.
type Object struct {
	Name   string
	Base   memmodel.Addr
	Words  int
	Shared bool // referenced by more than one thread context
}

// Program is a compiled Go source file: the lowered sim program plus the
// side tables that map sites and objects back to source.
type Program struct {
	Name    string
	Prog    *sim.Program
	Sites   []Site   // sorted by ID
	Objects []Object // in allocation order

	byID map[sim.SiteID]Site
}

// Site returns the source record for an emitted site id.
func (p *Program) Site(id sim.SiteID) (Site, bool) {
	s, ok := p.byID[id]
	return s, ok
}

// SiteOn returns the single site on the given source line with the given
// write-ness. It errors if the line has no such site or more than one —
// ground-truth race specs must be unambiguous.
func (p *Program) SiteOn(line int, write bool) (sim.SiteID, error) {
	var found []Site
	for _, s := range p.Sites {
		if s.Line == line && s.Write == write {
			found = append(found, s)
		}
	}
	kind := "read"
	if write {
		kind = "write"
	}
	switch len(found) {
	case 0:
		return 0, fmt.Errorf("frontend: no %s site on line %d of %s", kind, line, p.Name)
	case 1:
		return found[0].ID, nil
	default:
		return 0, fmt.Errorf("frontend: %d %s sites on line %d of %s (spec is ambiguous)", len(found), kind, line, p.Name)
	}
}

// Compile parses, type-checks, and lowers one Go source file. The file must
// be package main with a func main; the only permitted import is "sync".
// Errors are one line.
func Compile(name string, src []byte) (*Program, error) {
	p, err := compileFile(name, src)
	if err != nil {
		// Parse errors can quote source text, and go/types puts some detail
		// on indented lines ("\n\thave ()\n\twant (int)"): fold them.
		return nil, errors.New(strings.Join(strings.Fields(err.Error()), " "))
	}
	return p, nil
}

func compileFile(name string, src []byte) (*Program, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, name+".go", src, parser.SkipObjectResolution)
	if err != nil {
		return nil, fmt.Errorf("frontend: parse %s: %w", name, err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: syntheticImporter{}}
	if _, err := conf.Check(name, fset, []*ast.File{file}, info); err != nil {
		return nil, fmt.Errorf("frontend: typecheck %s: %w", name, err)
	}

	lo := newLowerer(name, fset, file, info)
	if err := lo.collectDecls(); err != nil {
		return nil, err
	}
	// Pass 1: same traversal as lowering with every object assumed shared,
	// recording which thread contexts touch each object and how many
	// semaphore posts each WaitGroup accumulates.
	lo.analyze = true
	if err := lo.run(); err != nil {
		return nil, err
	}
	shared := lo.computeShared()
	waits := lo.sigCount
	// Pass 2: the real lowering, with Local marked on single-context
	// objects and wg.Wait expanded to the pass-1 post count.
	lo.reset()
	lo.analyze = false
	lo.shared = shared
	lo.waitN = waits
	if err := lo.run(); err != nil {
		return nil, err
	}
	return lo.finish()
}

// finish assembles the public Program from the lowerer's state.
func (lo *lowerer) finish() (*Program, error) {
	workers := lo.workers
	if lo.spawned {
		// Main's own continuation — spawn-loop bookkeeping, waits, the
		// epilogue — is one more concurrent thread.
		workers = append(workers, lo.cont)
	}
	p := &Program{
		Name: lo.name,
		Prog: &sim.Program{
			Name:    "go:" + lo.name,
			Setup:   lo.setup,
			Workers: workers,
		},
		byID: map[sim.SiteID]Site{},
	}
	for _, s := range lo.siteList {
		p.Sites = append(p.Sites, s)
		p.byID[s.ID] = s
	}
	sort.Slice(p.Sites, func(i, j int) bool { return p.Sites[i].ID < p.Sites[j].ID })
	for _, o := range lo.objList {
		p.Objects = append(p.Objects, Object{
			Name:   o.name,
			Base:   o.base,
			Words:  o.words,
			Shared: lo.shared[o.key],
		})
	}
	if err := p.Prog.Validate(); err != nil {
		return nil, fmt.Errorf("frontend: lowered program invalid: %w", err)
	}
	return p, nil
}
