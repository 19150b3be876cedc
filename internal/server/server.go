package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/trace"
)

// Config tunes the streaming server. The zero value is usable.
type Config struct {
	// Shards/Workers/BatchSize/QueueBatches configure each connection's
	// detection session (see SessionConfig).
	Shards       int
	Workers      int
	BatchSize    int
	QueueBatches int
	// NoShed disables the overload governor (sessions then block instead
	// of sampling; useful for lossless offline-over-socket runs).
	NoShed bool
	// Metrics, when non-nil, receives the server.* counters and gauges;
	// wire it to the obs telemetry endpoint for live observability.
	Metrics *obs.Metrics

	// workerGate is plumbed to each session; tests use it to force
	// overload deterministically.
	workerGate func(int)
}

// Server accepts trace-wire connections and answers each with a JSON
// detection report. One connection is one session: the client streams a
// serialized trace in wire v2, half-closes or just stops writing, and reads
// the report back. Any other wire version is answered with a JSON error.
type Server struct {
	cfg Config
	m   *serverMetrics

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
	stopC  chan struct{}
}

// New returns a server ready to Serve.
func New(cfg Config) *Server {
	return &Server{
		cfg:   cfg,
		m:     newServerMetrics(cfg.Metrics),
		conns: make(map[net.Conn]struct{}),
		stopC: make(chan struct{}),
	}
}

// Serve accepts connections on ln until Close. It always returns a non-nil
// error; after Close the error is net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	if s.m != nil {
		s.wg.Add(1)
		go s.rateLoop()
	}
	defer ln.Close()
	go func() {
		<-s.stopC
		ln.Close()
	}()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return net.ErrClosed
			}
			return err
		}
		s.track(c, true)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.track(c, false)
			defer c.Close()
			s.handle(c)
		}()
	}
}

func (s *Server) track(c net.Conn, add bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if add {
		s.conns[c] = struct{}{}
	} else {
		delete(s.conns, c)
	}
}

// Close stops accepting, closes live connections, and waits for handlers.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.stopC)
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// rateLoop maintains the server.events_per_sec gauge from the events
// counter over a 1-second window.
func (s *Server) rateLoop() {
	defer s.wg.Done()
	t := time.NewTicker(time.Second)
	defer t.Stop()
	last := s.m.events.Value()
	for {
		select {
		case <-s.stopC:
			return
		case <-t.C:
			now := s.m.events.Value()
			s.m.rate.Set(int64(now - last))
			last = now
		}
	}
}

// RaceJSON is one race in the wire response; Text is the exact
// detect.Race.String() rendering, so clients can diff against txtrace
// output line by line.
type RaceJSON struct {
	Addr      uint64 `json:"addr"`
	PrevSite  uint32 `json:"prev_site"`
	CurSite   uint32 `json:"cur_site"`
	PrevWrite bool   `json:"prev_write"`
	CurWrite  bool   `json:"cur_write"`
	PrevTID   int32  `json:"prev_tid"`
	CurTID    int32  `json:"cur_tid"`
	Text      string `json:"text"`
}

// Response is the JSON document a session answers with.
type Response struct {
	Name          string     `json:"name"`
	Events        uint64     `json:"events"`
	Analyzed      uint64     `json:"analyzed"`
	Shed          uint64     `json:"shed"`
	Sampled       bool       `json:"sampled"`
	GovernorTrips uint64     `json:"governor_trips"`
	Coverage      string     `json:"coverage"`
	RaceCount     int        `json:"race_count"`
	Races         []RaceJSON `json:"races"`
	Error         string     `json:"error,omitempty"`
}

// MakeResponse renders a report as the wire response document.
func MakeResponse(r *Report) *Response {
	resp := &Response{
		Name:          r.Name,
		Events:        r.Events,
		Analyzed:      r.Checks,
		Shed:          r.Shed,
		Sampled:       r.Sampled(),
		GovernorTrips: r.GovernorTrips,
		Coverage:      report.FormatFixed(r.Coverage(), 4),
		RaceCount:     r.RaceCount(),
		Races:         make([]RaceJSON, 0, r.RaceCount()),
	}
	for _, rc := range r.Races() {
		resp.Races = append(resp.Races, RaceJSON{
			Addr:     uint64(rc.Addr),
			PrevSite: uint32(rc.PrevSite), CurSite: uint32(rc.CurSite),
			PrevWrite: rc.PrevWrite, CurWrite: rc.CurWrite,
			PrevTID: int32(rc.PrevTID), CurTID: int32(rc.CurTID),
			Text: rc.String(),
		})
	}
	return resp
}

// handle runs one connection: decode the trace stream incrementally, feed
// the session, answer with the JSON report (or a JSON error for malformed
// streams).
func (s *Server) handle(c net.Conn) {
	if s.m != nil {
		s.m.conns.Inc()
	}
	enc := json.NewEncoder(c)
	sr, err := trace.NewStreamReader(c)
	if err != nil {
		enc.Encode(&Response{Error: fmt.Sprintf("bad trace header: %v", err)})
		return
	}
	sess := NewSession(SessionConfig{
		Shards: s.cfg.Shards, Workers: s.cfg.Workers,
		BatchSize: s.cfg.BatchSize, QueueBatches: s.cfg.QueueBatches,
		Shed:    !s.cfg.NoShed,
		metrics: s.m, workerGate: s.cfg.workerGate,
	})
	for {
		e, err := sr.Next()
		if err != nil {
			rep := sess.Finish(sr.Name())
			resp := MakeResponse(rep)
			if !errors.Is(err, io.EOF) {
				resp.Error = fmt.Sprintf("stream error after %d events: %v", rep.Events, err)
			}
			enc.Encode(resp)
			return
		}
		sess.Feed(e)
	}
}
