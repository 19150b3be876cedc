package frontend

import (
	"embed"
	"fmt"
	"slices"
	"sync"

	"repro/internal/detect"
	"repro/internal/sim"
)

//go:embed testdata/corpus/*.go
var corpusFS embed.FS

// SiteSpec names one access site by source position. Col disambiguates when
// a line holds more than one same-writeness site (e.g. `sum += i` reads both
// sum and i); 0 means the line+writeness pair is already unique.
type SiteSpec struct {
	Line  int
	Col   int
	Write bool
}

// RaceSpec pins one ground-truth race as an unordered pair of source sites.
// Deferred marks races the paper's fast path structurally misses (§8.3): the
// racing halves never overlap inside live transactions — here, a slow-path
// read landing before the transactional write enters any write set — so only
// full happens-before detection flags them, like bodytrack/facesim's
// initialize-then-publish races.
type RaceSpec struct {
	A, B     SiteSpec
	Deferred bool
}

// Snippet is one corpus program: a real racy Go idiom (or its race-free
// twin) with the ground-truth race set pinned by source position.
type Snippet struct {
	Name  string
	Doc   string
	Races []RaceSpec // empty = race-free twin
}

// corpusSnippets lists the embedded corpus in presentation order: each racy
// classic followed by its race-free twin where one exists.
var corpusSnippets = []Snippet{
	{
		Name: "doublecheck",
		Doc:  "broken double-checked lazy init: unlocked fast-path read vs locked store",
		Races: []RaceSpec{
			{A: SiteSpec{Line: 18}, B: SiteSpec{Line: 21, Write: true}},
			{A: SiteSpec{Line: 25}, B: SiteSpec{Line: 21, Write: true}},
		},
	},
	{
		Name: "doublecheck_locked",
		Doc:  "race-free twin: every instance access under the mutex",
	},
	{
		Name: "counter",
		Doc:  "four-way unprotected counter++ storm",
		Races: []RaceSpec{
			{A: SiteSpec{Line: 19}, B: SiteSpec{Line: 19, Write: true}},
			{A: SiteSpec{Line: 19, Write: true}, B: SiteSpec{Line: 19, Write: true}},
		},
	},
	{
		Name: "counter_mutex",
		Doc:  "race-free twin: the same storm under a mutex",
	},
	{
		Name: "mapwrite",
		Doc:  "two goroutines write one map unsynchronized (concurrent map writes)",
		Races: []RaceSpec{
			{A: SiteSpec{Line: 16, Write: true}, B: SiteSpec{Line: 22, Write: true}},
		},
	},
	{
		Name: "mapwrite_locked",
		Doc:  "race-free twin: RWMutex-guarded writer vs len() reader",
	},
	{
		Name: "loopcapture",
		Doc:  "pre-Go-1.22 loop-variable capture plus an unprotected sum",
		Races: []RaceSpec{
			// The capture race itself: the goroutines' reads of i mostly land
			// before main's post-increment transaction writes i, which strong
			// isolation cannot see — TSan-only, like the paper's deferred races.
			{A: SiteSpec{Line: 18, Col: 11}, B: SiteSpec{Line: 15, Col: 21, Write: true}, Deferred: true},
			{A: SiteSpec{Line: 18, Col: 4}, B: SiteSpec{Line: 18, Col: 4, Write: true}},
			{A: SiteSpec{Line: 18, Col: 4, Write: true}, B: SiteSpec{Line: 18, Col: 4, Write: true}},
		},
	},
	{
		Name: "slicepart",
		Doc:  "race-free partitioned slice fill (adjacent stripes false-share lines)",
	},
	{
		Name: "stripes",
		Doc:  "two sweeps over overlapping array halves: write-write on the overlap",
		Races: []RaceSpec{
			{A: SiteSpec{Line: 14, Write: true}, B: SiteSpec{Line: 20, Write: true}},
		},
	},
	{
		Name: "stripes_split",
		Doc:  "race-free twin: disjoint halves that still share the boundary cache line",
	},
}

// CorpusNames returns the snippet names in presentation order.
func CorpusNames() []string {
	out := make([]string, len(corpusSnippets))
	for i, s := range corpusSnippets {
		out[i] = s.Name
	}
	return out
}

// CorpusSnippet returns the named snippet's registry entry.
func CorpusSnippet(name string) (Snippet, bool) {
	for _, s := range corpusSnippets {
		if s.Name == name {
			return s, true
		}
	}
	return Snippet{}, false
}

var (
	corpusMu    sync.Mutex
	corpusCache = map[string]*Program{}
)

// CompileCorpus compiles one embedded corpus snippet, caching the result:
// the compiled program is immutable (the instrumenter clones before it
// rewrites), so all callers share one lowering.
func CompileCorpus(name string) (*Program, error) {
	if _, ok := CorpusSnippet(name); !ok {
		return nil, fmt.Errorf("frontend: unknown corpus snippet %q (have: %v)", name, CorpusNames())
	}
	corpusMu.Lock()
	defer corpusMu.Unlock()
	if p, ok := corpusCache[name]; ok {
		return p, nil
	}
	src, err := corpusFS.ReadFile("testdata/corpus/" + name + ".go")
	if err != nil {
		return nil, fmt.Errorf("frontend: corpus %s: %w", name, err)
	}
	p, err := Compile(name, src)
	if err != nil {
		return nil, err
	}
	corpusCache[name] = p
	return p, nil
}

// resolveSite resolves one position spec against the compiled program's site
// table; the spec must match exactly one site.
func (p *Program) resolveSite(spec SiteSpec) (sim.SiteID, error) {
	var found []Site
	for _, s := range p.Sites {
		if s.Line == spec.Line && s.Write == spec.Write && (spec.Col == 0 || s.Col == spec.Col) {
			found = append(found, s)
		}
	}
	kind := "read"
	if spec.Write {
		kind = "write"
	}
	switch len(found) {
	case 0:
		return 0, fmt.Errorf("frontend: no %s site at %s:%d:%d", kind, p.Name, spec.Line, spec.Col)
	case 1:
		return found[0].ID, nil
	default:
		return 0, fmt.Errorf("frontend: %d %s sites match %s:%d (add a column to the spec)", len(found), kind, p.Name, spec.Line)
	}
}

// ResolvedRace is one ground-truth race with its site specs resolved to the
// compiled program's site ids, normalized A <= B.
type ResolvedRace struct {
	detect.PairKey
	Deferred bool
}

// GroundTruth resolves the snippet's pinned race specs against its compiled
// program, returning sorted normalized site pairs.
func (s Snippet) GroundTruth(p *Program) ([]ResolvedRace, error) {
	out := make([]ResolvedRace, 0, len(s.Races))
	for _, r := range s.Races {
		a, err := p.resolveSite(r.A)
		if err != nil {
			return nil, err
		}
		b, err := p.resolveSite(r.B)
		if err != nil {
			return nil, err
		}
		if b < a {
			a, b = b, a
		}
		out = append(out, ResolvedRace{PairKey: detect.PairKey{A: a, B: b}, Deferred: r.Deferred})
	}
	slices.SortFunc(out, func(x, y ResolvedRace) int { return x.Compare(y.PairKey) })
	return out, nil
}
