// Package cli holds the flag and setup plumbing shared by the txrace
// command family (txrace, txbench, txprofile, txtrace): the common
// seed/threads/scale flags, workload resolution, and the engine/experiment
// configuration they all derive from those flags.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiment"
	"repro/internal/htm"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Common is the flag set every command shares.
type Common struct {
	Threads int
	Scale   int
	Seed    uint64
	Jobs    int
	Backend string
}

// AddFlags registers the shared -threads/-scale/-seed/-jobs/-backend flags
// on the process flag set and returns their destination. Call before
// flag.Parse, and Validate after.
func AddFlags() *Common {
	c := &Common{}
	flag.IntVar(&c.Threads, "threads", 4, "worker threads")
	flag.IntVar(&c.Scale, "scale", 1, "workload scale factor")
	flag.Uint64Var(&c.Seed, "seed", 1, "scheduler seed")
	flag.IntVar(&c.Jobs, "jobs", 0, "parallel jobs for experiment plans (0 = GOMAXPROCS); results are identical at any value")
	flag.StringVar(&c.Backend, "backend", "dir", "HTM conflict backend: dir (line-ownership directory), tag (per-line owner tags), bounded (entry-capped sets)")
	return c
}

// Validate rejects flag values the commands must not silently default or
// crash on: a non-positive -threads or -scale, a negative -jobs, and an
// unknown -backend are each a one-line error. Call after flag.Parse.
func (c *Common) Validate() error {
	switch {
	case c.Threads < 1:
		return fmt.Errorf("-threads must be at least 1, got %d", c.Threads)
	case c.Scale < 1:
		return fmt.Errorf("-scale must be at least 1, got %d", c.Scale)
	case c.Jobs < 0:
		return fmt.Errorf("-jobs must be 0 (GOMAXPROCS) or positive, got %d", c.Jobs)
	}
	if !htm.ValidBackend(c.Backend) {
		return fmt.Errorf("unknown -backend %q (valid: %s)", c.Backend, strings.Join(htm.BackendNames(), ", "))
	}
	return nil
}

// HTMConfig translates the -backend flag into the htm.Config carried by
// core.Options, for commands that assemble runtime options directly rather
// than through the experiment layer. "dir" (and unset) return the zero
// config — core substitutes the default machine, bit-identical to builds
// that predate backend selection.
func (c *Common) HTMConfig() htm.Config {
	var hc htm.Config
	if c.Backend != "" && c.Backend != "dir" {
		hc.Backend = c.Backend
	}
	return hc
}

// Build resolves the named workload and builds it at the flag-selected
// thread count and scale. Thread counts beyond a generator's calibrated
// range are a one-line error naming the apps that do scale.
func (c *Common) Build(name string) (*workload.Workload, *workload.Built, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return nil, nil, err
	}
	if err := w.CheckThreads(c.Threads); err != nil {
		return nil, nil, err
	}
	return w, w.Build(c.Threads, c.Scale), nil
}

// EngineConfig returns sim.DefaultConfig with the flag seed applied and the
// workload's interrupt-period override honoured.
func (c *Common) EngineConfig(w *workload.Workload) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Seed = c.Seed
	if w.InterruptEvery != 0 {
		cfg.InterruptEvery = w.InterruptEvery
	}
	return cfg
}

// ObsFlags is the flag set of the opt-in observability stack every command
// shares: the live telemetry endpoint and the post-mortem flight recorder.
type ObsFlags struct {
	Telemetry string
	FlightOut string
	FlightBuf int
}

// AddObsFlags registers -telemetry/-flight-out/-flight-buf on the process
// flag set. Call before flag.Parse.
func AddObsFlags() *ObsFlags {
	f := &ObsFlags{}
	flag.StringVar(&f.Telemetry, "telemetry", "", "serve live /metrics, /snapshot and /attrib on this address (e.g. :9464; empty = off)")
	flag.StringVar(&f.FlightOut, "flight-out", "", "arm the flight recorder: dump a post-mortem bundle here on program error, governor global trip, or SIGQUIT")
	flag.IntVar(&f.FlightBuf, "flight-buf", obs.DefaultFlightCapacity, "flight-recorder event ring capacity")
	return f
}

// Validate rejects a -flight-buf above obs.MaxRingCapacity. Call after
// flag.Parse, before any work.
func (f *ObsFlags) Validate() error { return CheckRingCapacity("-flight-buf", f.FlightBuf) }

// CheckRingCapacity returns a one-line error when an event-ring flag asks
// for more than obs.MaxRingCapacity events.
func CheckRingCapacity(flagName string, capacity int) error {
	if capacity > obs.MaxRingCapacity {
		return fmt.Errorf("%s must be <= %d, got %d", flagName, obs.MaxRingCapacity, capacity)
	}
	return nil
}

// Enabled reports whether any observability flag asks for the stack.
func (f *ObsFlags) Enabled() bool { return f.Telemetry != "" || f.FlightOut != "" }

// Observability is the assembled opt-in stack: a telemetry server and/or an
// armed flight recorder, sharing one registry/ledger pair. The zero value is
// the disabled state; every method on it is a no-op.
type Observability struct {
	Telemetry *obs.Telemetry
	Flight    *obs.FlightRecorder
	disarm    func()
}

// Open builds the stack the flags ask for around a metrics registry and an
// attribution ledger (either may be nil). The telemetry server starts
// listening immediately and prints its address; the flight recorder arms
// SIGQUIT. Close releases both.
func (f *ObsFlags) Open(m *obs.Metrics, led *obs.Ledger) (*Observability, error) {
	o := &Observability{}
	if f.FlightOut != "" {
		o.Flight = obs.NewFlightRecorder(f.FlightOut, f.FlightBuf, m, led)
		o.disarm = o.Flight.ArmSignal()
	}
	if f.Telemetry != "" {
		o.Telemetry = obs.NewTelemetry(m, led)
		if err := o.Telemetry.Serve(f.Telemetry); err != nil {
			o.Close()
			return nil, fmt.Errorf("telemetry: %w", err)
		}
		fmt.Fprintf(os.Stderr, "telemetry listening on http://%s/metrics\n", o.Telemetry.Addr())
	}
	return o, nil
}

// Sink returns the flight recorder as an event sink, or nil when none is
// armed — safe to hand straight to obs.MultiSink.
func (o *Observability) Sink() obs.Sink {
	if o == nil || o.Flight == nil {
		return nil
	}
	return o.Flight
}

// SetTarget repoints both the telemetry endpoint and the flight recorder at
// a new registry/ledger pair — multi-experiment drivers call it as each
// experiment starts, so live scrapes and post-mortem dumps describe the
// experiment currently running.
func (o *Observability) SetTarget(m *obs.Metrics, led *obs.Ledger) {
	if o == nil {
		return
	}
	if o.Telemetry != nil {
		o.Telemetry.SetTarget(m, led)
	}
	if o.Flight != nil {
		o.Flight.SetTarget(m, led)
	}
}

// OnError gives the flight recorder its shot at a run that failed: a
// *sim.ProgramError anywhere in err's chain triggers a "program-error" dump
// (the recorder only sees events, never errors, so the cmd must call this
// from its failure path). Reports whether a bundle was written.
func (o *Observability) OnError(err error) bool {
	if o == nil || o.Flight == nil || err == nil {
		return false
	}
	var pe *sim.ProgramError
	if !errors.As(err, &pe) {
		return false
	}
	if derr := o.Flight.Dump("program-error"); derr != nil {
		fmt.Fprintln(os.Stderr, "flight recorder:", derr)
		return false
	}
	fmt.Fprintf(os.Stderr, "flight recorder: wrote %s (program error)\n", o.Flight.Path())
	return true
}

// Close disarms the signal handler and stops the telemetry server.
func (o *Observability) Close() {
	if o == nil {
		return
	}
	if o.disarm != nil {
		o.disarm()
	}
	if o.Telemetry != nil {
		_ = o.Telemetry.Close()
	}
}

// ExperimentConfig seeds an experiment.Config from the shared flags. The
// returned config carries one shared memo cache, so every experiment run
// from it (e.g. txbench -exp all) reuses memoized baselines and profiles.
func (c *Common) ExperimentConfig() experiment.Config {
	cfg := experiment.DefaultConfig()
	cfg.Threads = c.Threads
	cfg.Scale = c.Scale
	cfg.Seed = c.Seed
	cfg.Jobs = c.Jobs
	cfg.Backend = c.Backend
	cfg.Cache = experiment.NewCache()
	return cfg
}
