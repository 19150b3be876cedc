// Command txrace runs one evaluation application under a chosen detector
// and prints what it found and what it cost:
//
//	txrace -app vips                      # two-phase TxRace (default)
//	txrace -app vips -detector tsan       # full happens-before detection
//	txrace -app vips -detector sampling -rate 0.5
//	txrace -app vips -detector none       # uninstrumented baseline
//
// The -cut flag selects TxRace's capacity-abort handling: none (NoOpt),
// dyn (DynLoopcut), or prof (ProfLoopcut, the default — runs the profiling
// pass first, as the paper does).
//
// Observability (internal/obs):
//
//	txrace -app vips -trace-out t.json    # Chrome trace_event JSON
//	txrace -app vips -metrics-out m.json  # counters/gauges/histograms
//	txrace -app vips -timeline            # per-thread text timeline
//	txrace -app vips -attrib              # cycle-attribution profile
//	txrace -app vips -telemetry :9464     # live /metrics /snapshot /attrib
//	txrace -app vips -flight-out f.json   # post-mortem flight recorder
//
// The trace loads in chrome://tracing or https://ui.perfetto.dev; one
// simulated cycle renders as one microsecond, one track per simulated
// thread, with TxFail global-abort episodes on their own track.
//
// -attrib prints where every virtual cycle of the measured run went (the
// paper's Figure 6/9 breakdown, measured rather than inferred): per-thread
// phase shares plus the abort-cause mix. -telemetry serves the same data
// live over HTTP while the run executes; -flight-out keeps a bounded ring
// of recent events and dumps a post-mortem bundle on a malformed-program
// error, a governor global trip, or SIGQUIT.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/cmd/internal/cli"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/instrument"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	var (
		app        = flag.String("app", "", "application to run (see -list)")
		detector   = flag.String("detector", "txrace", "none | tsan | sampling | txrace")
		rate       = flag.Float64("rate", 0.1, "sampling rate for -detector sampling")
		cut        = flag.String("cut", "prof", "TxRace loop-cut scheme: none | dyn | prof")
		faultLevel = flag.Float64("fault", 0, "inject the standard fault plan at this intensity (0..1) with the fallback governor engaged")
		list       = flag.Bool("list", false, "list applications and exit")
		dump       = flag.Bool("dump", false, "print the instrumented IR instead of running")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace_event JSON of the run here")
		metricsOut = flag.String("metrics-out", "", "write a metrics snapshot JSON of the run here")
		timeline   = flag.Bool("timeline", false, "print a per-thread event timeline after the run")
		traceBuf   = flag.Int("trace-buf", obs.DefaultTracerCapacity, "event ring-buffer capacity")
		attrib     = flag.Bool("attrib", false, "print the cycle-attribution profile (per-thread phase shares + abort causes) after the run")
	)
	common := cli.AddFlags()
	obsFlags := cli.AddObsFlags()
	flag.Parse()
	if err := common.Validate(); err != nil {
		fatal(err)
	}
	loopCut, ok := cutModes[*cut]
	switch {
	case !ok:
		fatal(fmt.Errorf("unknown -cut %q (valid: none, dyn, prof)", *cut))
	case !slices.Contains(detectors, *detector):
		fatal(fmt.Errorf("unknown -detector %q (valid: %s)", *detector, strings.Join(detectors, ", ")))
	case !(*rate >= 0 && *rate <= 1):
		fatal(fmt.Errorf("-rate must be in [0,1], got %v", *rate))
	case !(*faultLevel >= 0 && *faultLevel <= 1):
		fatal(fmt.Errorf("-fault must be in [0,1], got %v", *faultLevel))
	}

	if *list {
		for _, name := range workload.Names() {
			fmt.Println(name)
		}
		for _, name := range workload.ScalingNames() {
			fmt.Println(name + "  (scales to arbitrary -threads)")
		}
		for _, name := range workload.GoNames() {
			fmt.Println(name + "  (compiled Go source; ignores -threads/-scale)")
		}
		return
	}
	if *app == "" {
		fatal(fmt.Errorf("missing -app (use -list to see applications)"))
	}
	w, built, err := common.Build(*app)
	if err != nil {
		fatal(err)
	}

	if *dump {
		sim.Dump(os.Stdout, instrument.ForTxRace(built.Prog, instrument.DefaultOptions()))
		return
	}

	cfg := common.ExperimentConfig()
	cfg.LoopCut = loopCut

	// Observability: a ring tracer feeds the Chrome trace and the timeline,
	// a metrics registry feeds the snapshot and the telemetry endpoint, a
	// ledger feeds the attribution profile, a flight recorder tees the event
	// stream. Only attached when asked for — the disabled path is a
	// nil-check in the runtime.
	var tracer *obs.Tracer
	var metrics *obs.Metrics
	var ledger *obs.Ledger
	if *traceOut != "" || *timeline {
		tracer = obs.NewTracer(*traceBuf)
	}
	if *metricsOut != "" || obsFlags.Enabled() {
		metrics = obs.NewMetrics()
	}
	if *attrib || obsFlags.Enabled() {
		ledger = obs.NewLedger()
	}
	ob, err := obsFlags.Open(metrics, ledger)
	if err != nil {
		fatal(err)
	}
	defer ob.Close()
	if sink := obs.MultiSink(tracerOrNil(tracer), ob.Sink()); sink != nil || metrics != nil || ledger != nil {
		cfg.Obs = obs.New(sink, metrics)
		cfg.Obs.AttachLedger(ledger)
	}
	// fail is fatal plus the flight recorder's shot at a program error.
	fail := func(err error) {
		ob.OnError(err)
		fatal(err)
	}

	base, err := experiment.RunBaseline(w, cfg, cfg.Seed)
	if err != nil {
		fail(err)
	}
	fmt.Printf("%s: baseline %d cycles (%d threads, scale %d, seed %d)\n",
		w.Name, base.Makespan, cfg.Threads, cfg.Scale, cfg.Seed)

	switch *detector {
	case "none":
	case "tsan":
		r, err := experiment.RunTSan(w, cfg, cfg.Seed)
		if err != nil {
			fail(err)
		}
		fmt.Printf("TSan: %d cycles (%.2fx), %d shadow checks, %d races\n",
			r.Makespan, float64(r.Makespan)/float64(base.Makespan), r.Checks, len(r.Races))
		printRaces(r.Races)
	case "sampling":
		r, err := experiment.RunSampling(w, cfg, cfg.Seed, *rate)
		if err != nil {
			fail(err)
		}
		fmt.Printf("TSan+Sampling %.0f%%: %d cycles (%.2fx), %d races\n",
			*rate*100, r.Makespan, float64(r.Makespan)/float64(base.Makespan), len(r.Races))
		printRaces(r.Races)
	case "txrace":
		var r *experiment.TxRaceRun
		if *faultLevel > 0 {
			r, err = experiment.RunTxRaceFault(w, cfg, cfg.Seed,
				fault.StandardPlan(cfg.Seed, *faultLevel), experiment.ChaosGovernor())
		} else {
			r, err = experiment.RunTxRace(w, cfg, cfg.Seed)
		}
		if err != nil {
			fail(err)
		}
		st := r.Stats
		fmt.Printf("TxRace (%v): %d cycles (%.2fx), %d races\n",
			cfg.LoopCut, r.Makespan, float64(r.Makespan)/float64(base.Makespan), len(r.Races))
		tb := &report.Table{Header: []string{"committed", "conflict", "artificial", "capacity", "unknown", "retries", "loop cuts"}}
		tb.Add(st.CommittedTxns, st.ConflictAborts, st.ArtificialAborts,
			st.CapacityAborts, st.UnknownAborts, st.Retries, st.LoopCuts)
		tb.Write(os.Stdout)
		if *faultLevel > 0 {
			fmt.Printf("faults injected: %v\n", r.Fault)
			gt := &report.Table{Header: []string{"forced slow", "gov trips", "probes", "recoveries", "global", "unknown retries"}}
			gt.Add(st.ForcedSlow, st.GovernorTrips, st.GovernorProbes,
				st.GovernorRecoveries, st.GovernorGlobal, st.UnknownRetries)
			gt.Write(os.Stdout)
		}
		printRaces(r.Races)
	}

	if *attrib && ledger != nil {
		fmt.Println("cycle attribution:")
		obs.WriteAttrib(os.Stdout, ledger.Snapshot())
	}
	if tracer != nil && tracer.Dropped() > 0 {
		cfg.Obs.TraceStats(tracer.Dropped())
		fmt.Fprintf(os.Stderr, "txrace: trace ring dropped %d oldest events (raise -trace-buf)\n", tracer.Dropped())
	}
	if *timeline && tracer != nil {
		obs.WriteTimeline(os.Stdout, tracer.Events())
	}
	if *traceOut != "" {
		if err := writeChromeTrace(*traceOut, tracer); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote trace %s (%d events)\n", *traceOut, tracer.Len())
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, metrics); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote metrics %s\n", *metricsOut)
	}
}

var (
	detectors = []string{"none", "tsan", "sampling", "txrace"}
	cutModes  = map[string]core.CutMode{"none": core.NoCut, "dyn": core.DynCut, "prof": core.ProfCut}
)

// tracerOrNil keeps the Sink interface nil when no tracer exists (a typed
// nil *Tracer inside a non-nil interface would defeat the sink check).
func tracerOrNil(t *obs.Tracer) obs.Sink {
	if t == nil {
		return nil
	}
	return t
}

func writeChromeTrace(path string, tracer *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return obs.WriteChromeTraceFrom(f, tracer)
}

func writeMetrics(path string, m *obs.Metrics) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return m.Snapshot().WriteJSON(f)
}

func printRaces(keys []detect.PairKey) {
	for _, k := range keys {
		fmt.Printf("  race: sites %d and %d\n", k.A, k.B)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "txrace:", err)
	os.Exit(1)
}
