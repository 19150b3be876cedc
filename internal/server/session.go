package server

import (
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/trace"
)

// SessionConfig tunes one streaming detection session.
type SessionConfig struct {
	// Shards is the address-shard count (>= 1).
	Shards int
	// Workers bounds the detection goroutines (<= Shards is useful; more
	// than Shards idles). 0 means Shards.
	Workers int
	// BatchSize is the number of accesses routed to a shard before its
	// batch is flushed to the worker queue. 0 means DefaultBatchSize.
	BatchSize int
	// QueueBatches is the per-worker queue capacity in batches. 0 means
	// DefaultQueueBatches.
	QueueBatches int
	// Shed enables the overload governor: when a worker queue is full,
	// access batches are dropped (degrading to sampling-mode detection
	// with reported coverage) instead of blocking ingestion. Off, Feed
	// blocks until the worker catches up — lossless, used offline.
	Shed bool

	metrics *serverMetrics
	// workerGate, when set, runs before a worker processes each batch;
	// tests use it to hold workers and force overload deterministically.
	workerGate func(worker int)
}

// Defaults for SessionConfig zero fields.
const (
	DefaultBatchSize    = 256
	DefaultQueueBatches = 16
)

// Upper bounds the commands enforce on their -shards, -batch and -queue
// flags. A session starts one goroutine and one shard table per shard (with
// the default worker count) and allocates Workers×(QueueBatches+1) queue
// and batch-ring slots up front, so an unchecked flag value turns into
// gigabytes of memory or millions of goroutines before the first event.
const (
	MaxShards       = 1024
	MaxBatchSize    = 1 << 16
	MaxQueueBatches = 1024
)

func (c SessionConfig) withDefaults() SessionConfig {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.Workers < 1 || c.Workers > c.Shards {
		c.Workers = c.Shards
	}
	if c.BatchSize < 1 {
		c.BatchSize = DefaultBatchSize
	}
	if c.QueueBatches < 1 {
		c.QueueBatches = DefaultQueueBatches
	}
	return c
}

// workItem is one batch of routed accesses bound for a shard.
type workItem struct {
	shard   int
	threads int
	batch   []shardEvt
}

// batchRing is one worker's queued batches in the order the router sent
// them. The worker detects them in that order and publishes done once per
// batch; the router takes back every batch below done, and the first index
// of each batch from done to sent bounds the accesses still in flight. At
// most QueueBatches+1 are out at once: a full queue and one being detected.
type batchRing struct {
	done  atomic.Uint64 // batches the worker has detected; worker writes
	sent  uint64        // batches the router has queued; router only
	taken uint64        // batches the router has taken back; router only
	slots [][]shardEvt  // batch number mod QueueBatches+1
}

func (r *batchRing) slot(n uint64) *[]shardEvt { return &r.slots[n%uint64(len(r.slots))] }

// The pipeline's fixed sizes. Feed hands the router whole blocks, so the
// feeding goroutine pays one channel operation per block, not per event.
const (
	// blockEvents is how many events one handoff to the router carries.
	blockEvents = 1024
	// routerBlocks is how many full blocks may wait for the router before
	// Feed waits.
	routerBlocks = 4
	// sessionBlocks is the most blocks a session makes (see handOff): one
	// being filled, routerBlocks waiting and one being routed.
	sessionBlocks = routerBlocks + 2
)

// Session is one client's streaming detection run, a three-stage pipeline.
// Events arrive in trace order through Feed (single-goroutine ingestion,
// like one connection), which collects them into blocks for the session's
// router goroutine. The router drives detect's clock half with the
// sync events and fans access batches out to shard workers. Finish hands
// off the last block, joins the router and the workers, and merges
// per-shard findings into a Report.
//
// With Shed disabled the result is byte-identical to the sequential
// detector; with Shed enabled it degrades to sampling under overload and
// the Report carries the shed count and coverage.
//
// Once a session is warm its pipeline allocates nothing per event: blocks
// come back to Feed, batches to the router, and the router recycles the
// thread clocks its snapshots retired (see route). Only the shards' shadow
// memory grows, with the addresses the trace touches.
type Session struct {
	cfg SessionConfig

	// Feeding goroutine only.
	block    []trace.Event
	blocks   chan []trace.Event // full blocks, Feed to router
	spare    chan []trace.Event // routed blocks, router back to Feed
	finished bool
	report   *Report

	// Router goroutine only, until Finish has joined it.
	clocks   *detect.Clocks
	batches  [][]shardEvt
	free     [][]shardEvt // detected batches taken back from the rings
	events   uint64
	shed     uint64
	shedding bool
	// trips is atomic: tests watch the governor from the feeding goroutine.
	trips atomic.Uint64

	states []*shardState
	queues []chan workItem
	rings  []batchRing    // one per worker, beside its queue
	wg     sync.WaitGroup // the router and the workers
}

// NewSession starts a session's router and workers and returns it ready
// for Feed.
func NewSession(cfg SessionConfig) *Session {
	cfg = cfg.withDefaults()
	// The spare list holds every block the session makes, so the router's
	// hand-back never waits.
	s := &Session{
		cfg:     cfg,
		block:   make([]trace.Event, 0, blockEvents),
		blocks:  make(chan []trace.Event, routerBlocks),
		spare:   make(chan []trace.Event, sessionBlocks),
		clocks:  detect.NewClocks(),
		batches: make([][]shardEvt, cfg.Shards),
		states:  make([]*shardState, cfg.Shards),
		queues:  make([]chan workItem, cfg.Workers),
		rings:   make([]batchRing, cfg.Workers),
	}
	for i := range s.states {
		s.states[i] = newShardState()
	}
	s.wg.Add(1 + cfg.Workers)
	go s.route()
	for w := range s.queues {
		s.queues[w] = make(chan workItem, cfg.QueueBatches)
		s.rings[w].slots = make([][]shardEvt, cfg.QueueBatches+1)
		go s.worker(w)
	}
	if m := cfg.metrics; m != nil {
		m.sessions.Add(1)
	}
	return s
}

func (s *Session) worker(w int) {
	defer s.wg.Done()
	m := s.cfg.metrics
	for item := range s.queues[w] {
		if s.cfg.workerGate != nil {
			s.cfg.workerGate(w)
		}
		st := s.states[item.shard]
		for i := range item.batch {
			st.check(&item.batch[i], item.threads)
		}
		if m != nil {
			m.queueDepth.Add(-1)
			m.analyzed.Add(uint64(len(item.batch)))
		}
		// The batch and its snapshots now belong to the router again.
		s.rings[w].done.Add(1)
	}
}

// Feed ingests one event. It must be called from a single goroutine per
// session (the connection's ingestion goroutine), in trace order. It waits
// only when routerBlocks full blocks are already waiting for the router.
func (s *Session) Feed(e trace.Event) {
	s.block = append(s.block, e)
	if len(s.block) == blockEvents {
		s.handOff()
	}
}

// handOff sends the full block to the router and starts a new one on a
// routed block when one has come back. It makes one only when none has:
// then at most routerBlocks wait and one is being routed, so a session
// never makes more than sessionBlocks.
func (s *Session) handOff() {
	s.blocks <- s.block
	select {
	case b := <-s.spare:
		s.block = b[:0]
	default:
		s.block = make([]trace.Event, 0, blockEvents)
	}
}

// route is the router goroutine: it routes every block, then flushes the
// pending batches, blocking (ingestion is over, so waiting no longer
// stalls a client), and closes the worker queues.
//
// After each block it recycles snapshots. A thread clock the block's sync
// events retired is held only by accesses routed before the block ended;
// once the watermark passes that point, every such access has been
// detected or shed, and the clock can take a new value. A batch still
// pending from before the block is flushed first: a shard that sees few
// accesses would otherwise hold the watermark, and every clock retired
// after it, for as long as its batch takes to fill.
func (s *Session) route() {
	defer s.wg.Done()
	for b := range s.blocks {
		start := s.events
		for i := range b {
			s.routeEvent(&b[i])
		}
		if m := s.cfg.metrics; m != nil {
			m.events.Add(uint64(len(b)))
		}
		s.spare <- b
		for sh, p := range s.batches {
			if len(p) > 0 && p[0].idx < start {
				s.flush(sh, false)
			}
		}
		s.clocks.Recycle(s.events, s.watermark())
	}
	for sh := range s.batches {
		s.flush(sh, true)
	}
	for _, q := range s.queues {
		close(q)
	}
}

// routeEvent applies a sync event to the clocks, or appends an access to
// its shard's batch with the current snapshot of its thread's clock.
func (s *Session) routeEvent(e *trace.Event) {
	idx := s.events
	s.events++
	if e.Kind != trace.KAccess {
		// Sync events are never shed: dropping one would corrupt the
		// happens-before frontier for every later access.
		s.applySync(e)
		return
	}
	sh := shardOf(e.Addr, s.cfg.Shards)
	if s.shedding {
		if s.queuesDrained() {
			s.shedding = false
		} else {
			s.dropAccess(1)
			return
		}
	}
	s.batches[sh] = append(s.batches[sh], shardEvt{
		vc:   s.clocks.Snapshot(clock.TID(e.TID)),
		addr: e.Addr, idx: idx, site: e.Site,
		tid: clock.TID(e.TID), write: e.Write,
	})
	if len(s.batches[sh]) >= s.cfg.BatchSize {
		s.flush(sh, false)
	}
}

// applySync applies one non-access event to the session's clocks.
func (s *Session) applySync(e *trace.Event) {
	tid := clock.TID(e.TID)
	switch e.Kind {
	case trace.KAcquire:
		s.clocks.AcquireKind(tid, e.Sync, e.SyncKind)
	case trace.KRelease:
		s.clocks.ReleaseKind(tid, e.Sync, e.SyncKind)
	case trace.KFork:
		s.clocks.Fork(tid, clock.TID(e.Other))
	case trace.KJoin:
		s.clocks.Join(tid, clock.TID(e.Other))
	}
}

// watermark returns the index of the oldest access not yet detected: the
// first access of a pending batch or of a batch a worker has not finished,
// or the next index when there is none. Shed accesses are never detected
// and hold nothing. Batches start at their lowest index, so one read per
// batch suffices.
func (s *Session) watermark() uint64 {
	w := s.events
	for _, b := range s.batches {
		if len(b) > 0 {
			w = min(w, b[0].idx)
		}
	}
	for i := range s.rings {
		r := &s.rings[i]
		for n := r.done.Load(); n < r.sent; n++ {
			w = min(w, (*r.slot(n))[0].idx)
		}
	}
	return w
}

// nextBatch returns an empty batch for a shard: one the workers have
// detected, or a new one when every batch the session has made is pending
// or in flight. Pending batches are at most Shards and in-flight ones at
// most Workers×(QueueBatches+1), so that caps the batches a session makes,
// and the router never waits for one.
func (s *Session) nextBatch() []shardEvt {
	for i := range s.rings {
		r := &s.rings[i]
		// flush records a batch after queueing it, so the worker may be
		// done with one the ring does not show yet.
		for done := min(r.done.Load(), r.sent); r.taken < done; r.taken++ {
			p := r.slot(r.taken)
			s.free = append(s.free, (*p)[:0])
			*p = nil
		}
	}
	if n := len(s.free); n > 0 {
		b := s.free[n-1]
		s.free = s.free[:n-1]
		return b
	}
	return make([]shardEvt, 0, s.cfg.BatchSize)
}

// queuesDrained reports whether every worker queue is back under half
// capacity — the governor's recovery condition.
func (s *Session) queuesDrained() bool {
	for _, q := range s.queues {
		if len(q) > cap(q)/2 {
			return false
		}
	}
	return true
}

func (s *Session) dropAccess(n int) {
	s.shed += uint64(n)
	if m := s.cfg.metrics; m != nil {
		m.shed.Add(uint64(n))
	}
}

// flush hands shard sh's pending batch to its worker. When shedding is
// enabled and the worker queue is full, the batch is dropped, stays the
// shard's batch, and the governor trips into sampling mode; blocking
// flushes (shed disabled, or the final drain) wait instead.
func (s *Session) flush(sh int, block bool) {
	b := s.batches[sh]
	if len(b) == 0 {
		return
	}
	item := workItem{shard: sh, threads: s.clocks.NumThreads(), batch: b}
	w := sh % s.cfg.Workers
	q := s.queues[w]
	m := s.cfg.metrics
	if s.cfg.Shed && !block {
		select {
		case q <- item:
			if m != nil {
				m.queueDepth.Add(1)
			}
		default:
			s.dropAccess(len(b))
			s.shedding = true
			s.trips.Add(1)
			if m != nil {
				m.trips.Inc()
			}
			s.batches[sh] = b[:0]
			return
		}
	} else {
		q <- item
		if m != nil {
			m.queueDepth.Add(1)
		}
	}
	s.batches[sh] = s.nextBatch()
	r := &s.rings[w]
	*r.slot(r.sent) = b
	r.sent++
}

// Finish hands off the pending block and waits for the router to route it,
// flush every batch and close the worker queues; then it joins the workers
// and merges the per-shard findings into the final report.
//
// Finish is idempotent: a second call returns the first call's report (with
// the name it was finished under) instead of tearing down twice. Retrying or
// misbehaving clients can send a duplicate end-of-stream, and a panic here
// would take down the whole server.
func (s *Session) Finish(name string) *Report {
	if s.finished {
		return s.report
	}
	s.finished = true
	if len(s.block) > 0 {
		s.blocks <- s.block
	}
	close(s.blocks)
	s.wg.Wait()
	races, checks := mergeShards(s.states)
	if m := s.cfg.metrics; m != nil {
		m.sessions.Add(-1)
		m.races.Add(uint64(len(races)))
	}
	s.report = &Report{
		Name:   name,
		Shards: s.cfg.Shards,
		Events: s.events,
		Checks: checks,
		Shed:   s.shed, GovernorTrips: s.trips.Load(),
		races: races,
	}
	return s.report
}

// serverMetrics bundles the obs instruments the server updates; nil-safe
// wrapper construction keeps the hot path branch-cheap.
type serverMetrics struct {
	events   *obs.Counter // server.events: every event ingested
	analyzed *obs.Counter // server.analyzed: accesses actually detected on
	shed     *obs.Counter // server.shed: accesses dropped by the governor
	trips    *obs.Counter // server.governor.trips: overload transitions
	races    *obs.Counter // server.races: distinct races reported
	conns    *obs.Counter // server.conns: connections accepted
	sessions *obs.Gauge   // server.sessions.active

	queueDepth *obs.Gauge // server.queue.depth: batches in flight
	rate       *obs.Gauge // server.events_per_sec: ingest rate, 1s window
}

func newServerMetrics(m *obs.Metrics) *serverMetrics {
	if m == nil {
		return nil
	}
	return &serverMetrics{
		events:     m.Counter("server.events"),
		analyzed:   m.Counter("server.analyzed"),
		shed:       m.Counter("server.shed"),
		trips:      m.Counter("server.governor.trips"),
		races:      m.Counter("server.races"),
		conns:      m.Counter("server.conns"),
		sessions:   m.Gauge("server.sessions.active"),
		queueDepth: m.Gauge("server.queue.depth"),
		rate:       m.Gauge("server.events_per_sec"),
	}
}
