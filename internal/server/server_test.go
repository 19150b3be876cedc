package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/trace"
)

// TestSessionLosslessMatchesReference: a streaming session with shedding
// disabled is the online twin of ReplaySharded — its report must be
// byte-identical to the sequential detector.
func TestSessionLosslessMatchesReference(t *testing.T) {
	tr := recordTrace(t, "raytrace", 7)
	ref := trace.Replay(tr)
	for _, shards := range []int{1, 4, 8} {
		sess := NewSession(SessionConfig{Shards: shards, Workers: 2, BatchSize: 64})
		tr.ForEach(sess.Feed)
		rep := sess.Finish(tr.Name)
		requireIdentical(t, fmt.Sprintf("session shards=%d", shards), ref, rep)
		if rep.Sampled() || rep.Coverage() != 1 {
			t.Fatalf("lossless session reported sampling: shed=%d coverage=%v",
				rep.Shed, rep.Coverage())
		}
	}
}

// TestSessionPipelineMatchesReference is the pipeline's differential
// suite: every shape of the Feed-to-router-to-worker pipeline, from a
// batch per access and a one-batch queue to the defaults, must report the
// sequential detector's races and counts byte for byte. The traces include
// one shorter than a router block, one an exact multiple of it, and one
// where every access holds a snapshot the next sync event retires, so a
// clock recycled before its last holder is detected shows at a batch of
// one and a one-batch queue.
func TestSessionPipelineMatchesReference(t *testing.T) {
	rec := recordTrace(t, "raytrace", 7)
	var evs []trace.Event
	rec.ForEach(func(e trace.Event) { evs = append(evs, e) })
	traces := []*trace.Trace{
		rec,
		trace.FromEvents("block-multiple", evs[:2*blockEvents]...),
		synthTrace(3, 8, 4000),
		synthTrace(4, 8, blockEvents/2),
		syncEachAccessTrace(5, 6, 6*blockEvents),
	}
	for _, tr := range traces {
		ref := trace.Replay(tr)
		for _, shards := range []int{1, 4, 8} {
			for _, workers := range []int{1, 2, 4} {
				for _, batch := range []int{1, 3, 256} {
					for _, queue := range []int{1, 16} {
						sess := NewSession(SessionConfig{Shards: shards, Workers: workers,
							BatchSize: batch, QueueBatches: queue})
						tr.ForEach(sess.Feed)
						rep := sess.Finish(tr.Name)
						label := fmt.Sprintf("%s shards=%d workers=%d batch=%d queue=%d",
							tr.Name, shards, workers, batch, queue)
						requireIdentical(t, label, ref, rep)
						if rep.Events != uint64(tr.Len()) || rep.Shed != 0 {
							t.Fatalf("%s: %d events, %d shed; want %d events, none shed",
								label, rep.Events, rep.Shed, tr.Len())
						}
					}
				}
			}
		}
	}
}

// TestRecycleWaitsForHeldAccess forces the tightest recycling case, which
// the timing of the differential suite above rarely reaches. Block 0 holds
// one access, thread 1's write of x at index blockEvents-2, and ends with
// thread 1's release of lock 1, which retires the clock the write's snapshot
// holds. Its worker is held on the write until the router has routed, in
// block 1, thread 1's next access and release (the mutation that reuses a
// recycled clock), thread 2's acquire of lock 1 and write of x (ordered
// after thread 1's), and an access on the other shard that opens the gate.
// Reusing the retired clock before the held write is checked gives that
// write thread 1's later clock, and the ordered write of x races with it.
func TestRecycleWaitsForHeldAccess(t *testing.T) {
	const (
		x      = 0x100000 // shard 0 of 2
		y      = x + 8    // shard 0
		marker = 0x101000 // shard 1
	)
	tr := &trace.Trace{Name: "held-access"}
	for tr.Len() < blockEvents-2 { // sync only: no other access holds the watermark
		tr.Append(trace.Event{Kind: trace.KAcquire, TID: 0, Sync: 9})
		tr.Append(trace.Event{Kind: trace.KRelease, TID: 0, Sync: 9})
	}
	for _, e := range []trace.Event{
		{Kind: trace.KAccess, TID: 1, Addr: x, Site: 1, Write: true},
		{Kind: trace.KRelease, TID: 1, Sync: 1}, // ends block 0
		{Kind: trace.KAccess, TID: 1, Addr: y, Site: 2, Write: true},
		{Kind: trace.KRelease, TID: 1, Sync: 2},
		{Kind: trace.KAcquire, TID: 2, Sync: 1},
		{Kind: trace.KAccess, TID: 2, Addr: x, Site: 3, Write: true},
		{Kind: trace.KAccess, TID: 2, Addr: marker, Site: 4, Write: true},
	} {
		tr.Append(e)
	}

	// Worker 1's only batch is the marker; worker 0's first is the held write.
	routed := make(chan struct{})
	sess := NewSession(SessionConfig{Shards: 2, Workers: 2, BatchSize: 1,
		workerGate: func(w int) {
			if w == 1 {
				close(routed)
			} else {
				<-routed
			}
		}})
	tr.ForEach(sess.Feed)
	requireIdentical(t, tr.Name, trace.Replay(tr), sess.Finish(tr.Name))
}

// streamTrace connects to addr, streams tr, and decodes the response.
func streamTrace(t *testing.T, addr string, tr *trace.Trace) *Response {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.NewDecoder(c).Decode(&resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return &resp
}

// TestServerManyClients: a real listener serving many concurrent clients;
// every client's reported race text lines must equal offline txtrace-style
// detection of its own trace.
func TestServerManyClients(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Shards: 4, Workers: 2, NoShed: true, Metrics: obs.NewMetrics()})
	go srv.Serve(ln)
	defer srv.Close()

	names := []string{"raytrace", "streamcluster", "freqmine", "x264"}
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := names[i%len(names)]
			tr := recordTrace(t, name, uint64(3+i))
			want := trace.Replay(tr).Races()
			resp := streamTrace(t, ln.Addr().String(), tr)
			if resp.Error != "" {
				errs <- fmt.Errorf("client %d: server error: %s", i, resp.Error)
				return
			}
			if resp.Name != name || resp.Events != uint64(tr.Len()) {
				errs <- fmt.Errorf("client %d: header echo %q/%d, want %q/%d",
					i, resp.Name, resp.Events, name, tr.Len())
				return
			}
			if len(resp.Races) != len(want) {
				errs <- fmt.Errorf("client %d (%s): %d races, offline %d",
					i, name, len(resp.Races), len(want))
				return
			}
			for j, rc := range want {
				if resp.Races[j].Text != rc.String() {
					errs <- fmt.Errorf("client %d (%s): race %d %q, offline %q",
						i, name, j, resp.Races[j].Text, rc.String())
					return
				}
			}
			if resp.Sampled || resp.Coverage != "1.0000" {
				errs <- fmt.Errorf("client %d: lossless server sampled (coverage %s)", i, resp.Coverage)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServerAnswersWithoutHalfClose: a client that streams a complete
// trace and then waits for the report, without half-closing, must get it.
// The header's event count marks the end of the stream, so a decoder that
// waits for bytes past the last event hangs here; the deadline turns that
// into a prompt failure rather than a suite timeout.
func TestServerAnswersWithoutHalfClose(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Shards: 2, NoShed: true})
	go srv.Serve(ln)
	defer srv.Close()

	tr := recordTrace(t, "raytrace", 7)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.NewDecoder(c).Decode(&resp); err != nil {
		t.Fatalf("no report within 5 s of a complete %d-byte trace sent without a half-close "+
			"(is the decoder waiting for bytes past the last event?): %v", buf.Len(), err)
	}
	if resp.Error != "" || resp.Events != uint64(tr.Len()) {
		t.Fatalf("report: error %q, %d events; want no error, %d events", resp.Error, resp.Events, tr.Len())
	}
}

// TestSessionFinishIdempotent pins the Finish bugfix: a second Finish —
// what a retrying or misbehaving client amounts to — returns the first
// call's cached report instead of panicking on the already-closed worker
// queues, and the report keeps the name it was finished under. The
// end-to-end half runs the retry over a real listener: the same trace
// streamed twice must produce two identical reports from a live server.
func TestSessionFinishIdempotent(t *testing.T) {
	tr := recordTrace(t, "raytrace", 7)
	sess := NewSession(SessionConfig{Shards: 4, Workers: 2, BatchSize: 64})
	tr.ForEach(sess.Feed)
	r1 := sess.Finish(tr.Name)
	r2 := sess.Finish("retry-after-finish")
	if r2 != r1 {
		t.Fatalf("second Finish returned a new report: %p vs %p", r2, r1)
	}
	if r2.Name != tr.Name {
		t.Fatalf("cached report renamed to %q, want %q", r2.Name, tr.Name)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Shards: 4, Workers: 2, NoShed: true})
	go srv.Serve(ln)
	defer srv.Close()

	first := streamTrace(t, ln.Addr().String(), tr)
	retry := streamTrace(t, ln.Addr().String(), tr)
	if first.Error != "" || retry.Error != "" {
		t.Fatalf("server errors: %q / %q", first.Error, retry.Error)
	}
	if !reflect.DeepEqual(first, retry) {
		t.Fatalf("retried stream got a different report:\n first %+v\n retry %+v", first, retry)
	}
}

// TestServerRejectsGarbage: malformed streams get a JSON error, not a hang
// or a crash, and the connections after them are still served.
func TestServerRejectsGarbage(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{})
	go srv.Serve(ln)
	defer srv.Close()

	if resp := rawResponse(t, ln.Addr().String(), []byte("definitely not a trace stream")); resp.Error == "" {
		t.Fatal("garbage stream accepted without error")
	}

	// A stream in the retired wire v1 is refused at its header, in one line.
	tr := recordTrace(t, "raytrace", 7)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte(nil), buf.Bytes()...)
	v1[4] = 1
	const wantV1 = "bad trace header: trace: unsupported version 1"
	if resp := rawResponse(t, ln.Addr().String(), v1); resp.Error != wantV1 {
		t.Fatalf("v1 header: error %q, want %q", resp.Error, wantV1)
	}

	// A truncated stream — valid header, events cut mid-record — must come
	// back as a structured error naming the wire version and byte offset.
	c2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.Write(buf.Bytes()[:buf.Len()/2])
	if tc, ok := c2.(*net.TCPConn); ok {
		tc.CloseWrite() // end of stream mid-record, like a dying client
	}
	var trunc Response
	if err := json.NewDecoder(c2).Decode(&trunc); err != nil {
		t.Fatalf("no JSON error response for truncated stream: %v", err)
	}
	for _, want := range []string{"wire v2", "offset", "unexpected EOF"} {
		if !strings.Contains(trunc.Error, want) {
			t.Fatalf("truncation error %q lacks %q", trunc.Error, want)
		}
	}
}

// rawResponse writes raw to a fresh connection to addr and decodes the one
// JSON response the server sends back.
func rawResponse(t *testing.T, addr string, raw []byte) Response {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write(raw)
	var resp Response
	if err := json.NewDecoder(c).Decode(&resp); err != nil {
		t.Fatalf("no JSON error response: %v", err)
	}
	return resp
}

// TestServerSurvivesOutOfRangeTID: a v2 stream naming thread 1<<22+1, one
// past the decoder's bound, gets a JSON error instead of reaching the
// router (where per-thread state indexed by it would take the whole process
// down), and the server goes on serving the next client.
func TestServerSurvivesOutOfRangeTID(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{})
	go srv.Serve(ln)
	defer srv.Close()

	// WriteTo refuses the tid, so splice the event in after a one-event
	// header: flags byte, tid varint, zero address and site deltas.
	one := trace.FromEvents("bad", trace.Event{Kind: trace.KAccess})
	var buf bytes.Buffer
	if _, err := one.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	headerLen := 4 + 4 + len(one.Name) + 8
	raw := append(buf.Bytes()[:headerLen:headerLen], byte(trace.KAccess))
	raw = append(binary.AppendUvarint(raw, 1<<22+1), 0, 0)
	resp := rawResponse(t, ln.Addr().String(), raw)
	for _, want := range []string{"wire v2", fmt.Sprintf("event 0 at offset %d:", headerLen), "implausible tid 4194305"} {
		if !strings.Contains(resp.Error, want) {
			t.Fatalf("error %q lacks %q", resp.Error, want)
		}
	}

	tr := recordTrace(t, "raytrace", 7)
	next := streamTrace(t, ln.Addr().String(), tr)
	if next.Error != "" || next.Events != uint64(tr.Len()) {
		t.Fatalf("next client: error %q, %d events; want no error, %d events", next.Error, next.Events, tr.Len())
	}
}

// TestGovernorShedsUnderOverload forces overload deterministically: workers
// are gated shut while ingestion floods the queues, so the governor must
// trip into sampling mode, never block Feed, and report honest coverage —
// with the surviving races a subset of the full set.
func TestGovernorShedsUnderOverload(t *testing.T) {
	tr := recordTrace(t, "streamcluster", 7)
	full := trace.Replay(tr)
	fullKeys := make(map[detect.PairKey]bool)
	for _, k := range full.RaceKeys() {
		fullKeys[k] = true
	}

	gate := make(chan struct{})
	var once sync.Once
	sess := NewSession(SessionConfig{
		Shards: 4, Workers: 1, BatchSize: 8, QueueBatches: 2, Shed: true,
		workerGate: func(int) { <-gate },
	})
	done := make(chan *Report, 1)
	go func() {
		tr.ForEach(func(e trace.Event) {
			sess.Feed(e)
			if sess.trips.Load() > 0 {
				once.Do(func() { close(gate) }) // release workers after first trip
			}
		})
		once.Do(func() { close(gate) })
		done <- sess.Finish(tr.Name)
	}()
	rep := <-done

	if rep.Shed == 0 || rep.GovernorTrips == 0 {
		t.Fatalf("overload never tripped the governor: shed=%d trips=%d", rep.Shed, rep.GovernorTrips)
	}
	if !rep.Sampled() {
		t.Fatal("Sampled() false after shedding")
	}
	if cov := rep.Coverage(); cov >= 1 || cov <= 0 {
		t.Fatalf("coverage %v out of (0,1) after shedding", cov)
	}
	if rep.Checks+rep.Shed != full.Checks {
		t.Fatalf("analyzed %d + shed %d != total accesses %d", rep.Checks, rep.Shed, full.Checks)
	}
	for _, k := range rep.RaceKeys() {
		if !fullKeys[k] {
			t.Fatalf("sampling-mode run invented race %v not in the full set", k)
		}
	}
}

// TestServerMetrics: the obs counters must reflect a served session.
func TestServerMetrics(t *testing.T) {
	m := obs.NewMetrics()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Shards: 2, NoShed: true, Metrics: m})
	go srv.Serve(ln)

	tr := recordTrace(t, "raytrace", 7)
	resp := streamTrace(t, ln.Addr().String(), tr)
	srv.Close()

	if resp.Error != "" {
		t.Fatal(resp.Error)
	}
	if got := m.Counter("server.events").Value(); got != uint64(tr.Len()) {
		t.Fatalf("server.events = %d, want %d", got, tr.Len())
	}
	if m.Counter("server.conns").Value() != 1 {
		t.Fatalf("server.conns = %d, want 1", m.Counter("server.conns").Value())
	}
	if got := m.Counter("server.analyzed").Value(); got != resp.Analyzed {
		t.Fatalf("server.analyzed = %d, response said %d", got, resp.Analyzed)
	}
	if m.Gauge("server.sessions.active").Value() != 0 {
		t.Fatal("sessions gauge not back to 0 after session end")
	}
}
