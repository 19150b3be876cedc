package workload

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/detect"
	"repro/internal/sim"
)

// Paper holds the published Table 1 / Table 2 numbers for one application,
// used by EXPERIMENTS.md-style reports to put measured values side by side
// with the paper's.
type Paper struct {
	Committed uint64
	Conflict  uint64
	Capacity  uint64
	Unknown   uint64

	TSanRaces   int
	TxRaceRaces int

	OriginalMs float64
	TSanMs     float64
	TxRaceMs   float64

	TSanOverhead   float64 // e.g. 11.68 means 11.68x
	TxRaceOverhead float64

	Recall            float64 // Table 2
	CostEffectiveness float64 // Table 2
}

// Built is the output of a workload generator: the program plus the ground
// truth of the races deliberately injected into it.
type Built struct {
	Prog *sim.Program
	// Races are the injected overlapping race sites (TxRace should find
	// them given enough overlap).
	Races []RacyVar
	// Deferred are initialize-then-publish races (§8.3): real races whose
	// two halves never overlap in time, so the fast path cannot flag them —
	// the paper's bodytrack/facesim false negatives.
	Deferred []RacyVar
}

// AllRaceKeys returns the normalized identities of every injected race.
func (bl *Built) AllRaceKeys() []detect.PairKey {
	out := make([]detect.PairKey, 0, len(bl.Races)+len(bl.Deferred))
	for _, r := range append(append([]RacyVar{}, bl.Races...), bl.Deferred...) {
		a, b := r.Key()
		out = append(out, detect.PairKey{A: a, B: b})
	}
	slices.SortFunc(out, detect.PairKey.Compare)
	return out
}

// Workload is one evaluation application.
type Workload struct {
	Name string
	// SlowScale models per-application software-detector pathologies
	// (contended shadow words, race-report storms); it multiplies the
	// per-access slow-path hook cost for both TSan and TxRace's slow path.
	SlowScale float64
	// InterruptEvery overrides the engine's interrupt period for this
	// application (0 keeps the engine default). Interrupt-heavy
	// applications show more unknown aborts.
	InterruptEvery int64
	// Build generates the program for a worker-thread count and a scale
	// factor (scale 1 is test-sized; benchmarks use larger scales).
	Build func(threads, scale int) *Built
	// MaxThreads bounds the thread counts the generator is calibrated for
	// (0 = scalable to arbitrary counts). The Table 1 stand-ins are shaped
	// after small-machine profiles and cap out; the scaling workloads
	// (Scaling()) are parametric and unbounded.
	MaxThreads int
	// Paper carries the published numbers for comparison reports.
	Paper Paper
}

// CheckThreads rejects thread counts beyond the generator's calibrated
// range with a one-line error that names the scalable alternatives.
func (w *Workload) CheckThreads(threads int) error {
	if w.MaxThreads > 0 && threads > w.MaxThreads {
		return fmt.Errorf("workload %q is calibrated up to %d threads (got %d); apps that scale to arbitrary -threads: %s",
			w.Name, w.MaxThreads, threads, strings.Join(ScalingNames(), ", "))
	}
	return nil
}

var registry []*Workload

func init() {
	// Registration follows the paper's Table 1 order.
	registry = []*Workload{
		newBlackscholes(),
		newFluidanimate(),
		newSwaptions(),
		newFreqmine(),
		newVips(),
		newRaytrace(),
		newFerret(),
		newX264(),
		newBodytrack(),
		newFacesim(),
		newStreamcluster(),
		newDedup(),
		newCanneal(),
		newApache(),
	}
	// The Table 1 stand-ins mirror profiles measured on small machines;
	// past this bound their region mixes stop meaning anything, so the
	// commands refuse rather than report junk (see CheckThreads).
	for _, w := range registry {
		w.MaxThreads = 64
	}
}

// All returns every workload in the paper's Table 1 order.
func All() []*Workload {
	out := make([]*Workload, len(registry))
	copy(out, registry)
	return out
}

// ByName returns the named workload, resolving the Table 1 set, the
// threads-scaling set, and the real-Go corpus (`go:<snippet>`).
func ByName(name string) (*Workload, error) {
	for _, w := range registry {
		if w.Name == name {
			return w, nil
		}
	}
	for _, w := range scalingRegistry {
		if w.Name == name {
			return w, nil
		}
	}
	for _, w := range goRegistry {
		if w.Name == name {
			return w, nil
		}
	}
	if strings.HasPrefix(name, GoCorpusPrefix) {
		return nil, fmt.Errorf("workload: unknown corpus snippet %q (have: %s)", name, strings.Join(GoNames(), ", "))
	}
	return nil, fmt.Errorf("workload: unknown application %q", name)
}

// Names returns all workload names in registration order.
func Names() []string {
	out := make([]string, len(registry))
	for i, w := range registry {
		out[i] = w.Name
	}
	return out
}
