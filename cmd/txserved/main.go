// Command txserved is the streaming detection service: it listens on a TCP
// or unix socket, accepts internal/trace wire v2 streams from many
// concurrent clients, detects races on the address-sharded parallel core,
// and answers each stream with a JSON report.
//
//	txserved -listen 127.0.0.1:7777 -shards 8            # serve
//	txserved -connect 127.0.0.1:7777 -in vips.trace      # act as a client
//	txserved -listen /tmp/txd.sock -net unix             # unix socket
//
// Client mode streams a recorded trace file (optionally -clients N copies
// concurrently) and prints each report's races in txtrace's output format,
// so CI can diff served detection against offline `txtrace -in`.
//
// The shared observability flags apply: -telemetry serves live /metrics
// with server.events_per_sec, server.queue.depth, server.shed and the other
// server.* instruments while the service runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"sync"

	"repro/cmd/internal/cli"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	var (
		listen  = flag.String("listen", "", "serve on this address")
		network = flag.String("net", "tcp", "listener network: tcp | unix")
		connect = flag.String("connect", "", "client mode: stream traces to this address")
		in      = flag.String("in", "", "client mode: trace file to stream")
		clients = flag.Int("clients", 1, "client mode: concurrent copies to stream")
		shards  = flag.Int("shards", 4, "address shards per detection session")
		workers = flag.Int("workers", 0, "detection workers per session (0 = shards)")
		batch   = flag.Int("batch", server.DefaultBatchSize, "accesses per shard batch")
		queue   = flag.Int("queue", server.DefaultQueueBatches, "per-worker queue capacity in batches")
		noShed  = flag.Bool("no-shed", false, "disable the overload governor (block instead of sampling)")
	)
	obsFlags := cli.AddObsFlags()
	flag.Parse()
	if err := obsFlags.Validate(); err != nil {
		fatal(err)
	}
	if *shards < 1 {
		fatal(fmt.Errorf("-shards must be >= 1, got %d", *shards))
	}
	if *shards > server.MaxShards {
		fatal(fmt.Errorf("-shards must be <= %d, got %d", server.MaxShards, *shards))
	}
	if *workers < 0 {
		fatal(fmt.Errorf("-workers must be >= 0 (0 = one per shard), got %d", *workers))
	}
	if *batch < 1 {
		fatal(fmt.Errorf("-batch must be >= 1, got %d", *batch))
	}
	if *batch > server.MaxBatchSize {
		fatal(fmt.Errorf("-batch must be <= %d, got %d", server.MaxBatchSize, *batch))
	}
	if *queue < 1 {
		fatal(fmt.Errorf("-queue must be >= 1, got %d", *queue))
	}
	if *queue > server.MaxQueueBatches {
		fatal(fmt.Errorf("-queue must be <= %d, got %d", server.MaxQueueBatches, *queue))
	}
	if *clients < 1 {
		fatal(fmt.Errorf("-clients must be >= 1, got %d", *clients))
	}

	switch {
	case *listen != "":
		if err := serve(obsFlags, *network, *listen, server.Config{
			Shards: *shards, Workers: *workers,
			BatchSize: *batch, QueueBatches: *queue, NoShed: *noShed,
		}); err != nil {
			fatal(err)
		}
	case *connect != "":
		if err := runClients(*connect, *in, *clients); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("need -listen (serve) or -connect (client)"))
	}
}

func serve(obsFlags *cli.ObsFlags, network, addr string, cfg server.Config) error {
	metrics := obs.NewMetrics()
	cfg.Metrics = metrics
	if obsFlags.Enabled() {
		ob, err := obsFlags.Open(metrics, obs.NewLedger())
		if err != nil {
			return err
		}
		defer ob.Close()
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		return err
	}
	fmt.Printf("txserved listening on %s (%d shards/session)\n", ln.Addr(), max(cfg.Shards, 1))
	srv := server.New(cfg)
	return srv.Serve(ln)
}

// runClients streams the trace file to the server from `clients` concurrent
// connections and prints each response in txtrace's analyze format.
func runClients(addr, path string, clients int) error {
	if path == "" {
		return fmt.Errorf("client mode needs -in <trace file>")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	responses := make([]*server.Response, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			responses[i], errs[i] = streamOnce(addr, data)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("client %d: %w", i, err)
		}
	}
	// All clients streamed the same trace; print one report in txtrace's
	// format (so CI can diff), then per-client consistency.
	r := responses[0]
	if r.Error != "" {
		return fmt.Errorf("server error: %s", r.Error)
	}
	fmt.Printf("trace %q: %d events\n", r.Name, r.Events)
	fmt.Printf("happens-before: %d races\n", r.RaceCount)
	for _, rc := range r.Races {
		fmt.Printf("  %s\n", rc.Text)
	}
	fmt.Printf("analyzed %d, shed %d (coverage %s, sampled=%v)\n",
		r.Analyzed, r.Shed, r.Coverage, r.Sampled)
	for i, o := range responses[1:] {
		if o.Error != "" {
			return fmt.Errorf("client %d: server error: %s", i+1, o.Error)
		}
		if o.RaceCount != r.RaceCount {
			return fmt.Errorf("client %d found %d races, client 0 found %d",
				i+1, o.RaceCount, r.RaceCount)
		}
	}
	if clients > 1 {
		fmt.Printf("%d concurrent clients agree\n", clients)
	}
	return nil
}

func streamOnce(addr string, data []byte) (*server.Response, error) {
	network := "tcp"
	if _, err := os.Stat(addr); err == nil {
		network = "unix"
	}
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if _, err := c.Write(data); err != nil {
		return nil, err
	}
	var resp server.Response
	if err := json.NewDecoder(c).Decode(&resp); err != nil {
		return nil, fmt.Errorf("reading report: %w", err)
	}
	return &resp, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "txserved:", err)
	os.Exit(1)
}
