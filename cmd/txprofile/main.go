// Command txprofile performs the paper's offline loop-cut profiling run
// (§4.3) and prints the learned per-loop thresholds — the input
// TxRace-ProfLoopcut consumes. On the paper's toolchain this role was played
// by Last Branch Record profiling; here the runtime attributes capacity
// aborts to loops directly.
//
// -app takes one application, a comma-separated list, or "all"; multiple
// applications profile in parallel on an internal/runner worker pool
// (bounded by -jobs), with results printed in the order given.
//
//	txprofile -app swaptions
//	txprofile -app swaptions,vips,bodytrack -jobs 4
//	txprofile -app all -threads 8 -scale 2 -seed 7
//
// The shared observability flags apply to the profiling runs: -telemetry
// serves the pool's merged metrics and attribution ledger live, -flight-out
// arms the post-mortem flight recorder.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/cmd/internal/cli"
	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	app := flag.String("app", "", "application(s) to profile: name, comma-separated list, or \"all\"")
	common := cli.AddFlags()
	obsFlags := cli.AddObsFlags()
	flag.Parse()
	if err := common.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "txprofile:", err)
		os.Exit(1)
	}
	if err := obsFlags.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "txprofile:", err)
		os.Exit(1)
	}
	if *app == "" {
		fmt.Fprintln(os.Stderr, "txprofile: missing -app")
		os.Exit(1)
	}

	var apps []*workload.Workload
	if *app == "all" {
		apps = workload.All()
	} else {
		for _, name := range strings.Split(*app, ",") {
			w, err := workload.ByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, "txprofile:", err)
				os.Exit(1)
			}
			apps = append(apps, w)
		}
	}

	var parent *obs.Observer
	var ob *cli.Observability
	if obsFlags.Enabled() {
		metrics := obs.NewMetrics()
		ledger := obs.NewLedger()
		var err error
		if ob, err = obsFlags.Open(metrics, ledger); err != nil {
			fmt.Fprintln(os.Stderr, "txprofile:", err)
			os.Exit(1)
		}
		defer ob.Close()
		parent = obs.New(ob.Sink(), metrics)
		parent.AttachLedger(ledger)
	}

	plan := runner.NewPlan(common.Jobs, parent)
	handles := make([]*runner.Handle, len(apps))
	for i, w := range apps {
		w := w
		handles[i] = plan.Add(runner.Job{Workload: w.Name, Runtime: "profile", Seed: common.Seed, Observe: true,
			Do: func(j *runner.Job) (any, error) {
				built := w.Build(common.Threads, common.Scale)
				ec := common.EngineConfig(w)
				ec.Obs = j.Obs
				return instrument.Profile(built.Prog, ec, core.Options{SlowScale: w.SlowScale, Obs: j.Obs, HTM: common.HTMConfig()})
			},
		})
	}
	if err := plan.Run(); err != nil {
		ob.OnError(err)
		fmt.Fprintln(os.Stderr, "txprofile:", err)
		os.Exit(1)
	}

	for i, w := range apps {
		if i > 0 {
			fmt.Println()
		}
		write(w.Name, handles[i].Value().(core.LoopThresholds), common.Seed)
	}
}

func write(name string, prof core.LoopThresholds, seed uint64) {
	if len(prof) == 0 {
		fmt.Printf("%s: no capacity-aborting loops found; ProfLoopcut has nothing to do\n", name)
		return
	}
	ids := make([]sim.LoopID, 0, len(prof))
	for id := range prof {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	fmt.Printf("%s: loop-cut thresholds from profiling run (seed %d)\n", name, seed)
	tb := &report.Table{Header: []string{"loop", "threshold (iterations per transaction)"}}
	for _, id := range ids {
		tb.Add(uint32(id), prof[id])
	}
	tb.Write(os.Stdout)
}
