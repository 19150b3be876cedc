// Command txtrace records an execution trace of an evaluation application
// and analyzes traces offline — the record-now-analyze-later workflow of the
// offline-analysis detectors the paper's related work surveys (§9).
//
//	txtrace -app vips -out vips.trace            # record
//	txtrace -in vips.trace                       # offline happens-before
//	txtrace -in vips.trace -shards 8             # sharded parallel detection
//	txtrace -in vips.trace -detector lockset     # offline Eraser
//	txtrace -in vips.trace -detector both        # precision comparison
//
// -shards N runs the internal/server address-sharded detector on N shards
// (bounded by -jobs workers); its race output is byte-identical to the
// sequential detector's at every shard and worker count. Without -shards
// the sequential detector runs; an explicit -shards 1 runs the sharded
// pipeline with one shard.
//
// Recording supports the shared observability flags: -telemetry serves live
// /metrics, /snapshot and /attrib while the recording run executes, and
// -flight-out arms the post-mortem flight recorder.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/cmd/internal/cli"
	"repro/internal/instrument"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	var (
		app      = flag.String("app", "", "application to record")
		out      = flag.String("out", "", "write the recorded trace here")
		in       = flag.String("in", "", "analyze this trace offline")
		detector = flag.String("detector", "hb", "offline detector: hb | lockset | both")
		shards   = flag.Int("shards", 1, "address shards for parallel happens-before detection")
	)
	common := cli.AddFlags()
	obsFlags := cli.AddObsFlags()
	flag.Parse()
	if err := common.Validate(); err != nil {
		fatal(err)
	}
	if err := obsFlags.Validate(); err != nil {
		fatal(err)
	}
	if *shards < 1 {
		fatal(fmt.Errorf("-shards must be >= 1, got %d", *shards))
	}
	if *shards > server.MaxShards {
		fatal(fmt.Errorf("-shards must be <= %d, got %d", server.MaxShards, *shards))
	}
	if *detector != "hb" && *detector != "lockset" && *detector != "both" {
		fatal(fmt.Errorf("unknown detector %q (valid: hb, lockset, both)", *detector))
	}

	switch {
	case *app != "":
		if err := recordApp(common, obsFlags, *app, *out); err != nil {
			fatal(err)
		}
	case *in != "":
		n := 0 // the sequential detector, unless -shards is given
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "shards" {
				n = *shards
			}
		})
		if err := analyze(*in, *detector, n, common.Jobs); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("need -app (record) or -in (analyze)"))
	}
}

func recordApp(common *cli.Common, obsFlags *cli.ObsFlags, name, out string) error {
	w, built, err := common.Build(name)
	if err != nil {
		return err
	}
	ec := common.EngineConfig(w)
	var ob *cli.Observability
	if obsFlags.Enabled() {
		metrics := obs.NewMetrics()
		ledger := obs.NewLedger()
		if ob, err = obsFlags.Open(metrics, ledger); err != nil {
			return err
		}
		defer ob.Close()
		ec.Obs = obs.New(ob.Sink(), metrics)
		ec.Obs.AttachLedger(ledger)
	}
	rec := trace.NewRecorder(name)
	res, err := sim.NewEngine(ec).Run(instrument.ForTSan(built.Prog), rec)
	if err != nil {
		ob.OnError(err)
		return err
	}
	fmt.Printf("recorded %s: %d events from %d instructions\n",
		name, rec.T.Len(), res.Instructions)
	if out == "" {
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := rec.T.WriteTo(f)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes)\n", out, n)
	return nil
}

// analyze runs the offline detectors on the trace at path. shards > 0 runs
// happens-before detection on the sharded pipeline; 0 runs the sequential
// detector.
func analyze(path, detector string, shards, jobs int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.ReadFrom(f)
	if err != nil {
		return err
	}
	fmt.Printf("trace %q: %d events\n", tr.Name, tr.Len())

	if detector == "hb" || detector == "both" {
		if shards > 0 {
			rep, err := server.ReplaySharded(tr, shards, jobs)
			if err != nil {
				return err
			}
			fmt.Printf("happens-before: %d races\n", rep.RaceCount())
			for _, r := range rep.Races() {
				fmt.Printf("  %v\n", r)
			}
		} else {
			d := trace.Replay(tr)
			fmt.Printf("happens-before: %d races\n", d.RaceCount())
			for _, r := range d.Races() {
				fmt.Printf("  %v\n", r)
			}
		}
	}
	if detector == "lockset" || detector == "both" {
		d := trace.ReplayLockset(tr)
		fmt.Printf("lockset (Eraser): %d violations (may include false positives)\n",
			d.ViolationCount())
		for _, v := range d.Violations() {
			fmt.Printf("  %v\n", v)
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "txtrace:", err)
	os.Exit(1)
}
