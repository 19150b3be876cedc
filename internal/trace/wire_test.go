package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"unsafe"

	"repro/internal/detect"
	"repro/internal/memmodel"
	"repro/internal/shadow"
	"repro/internal/sim"
)

// TestEventLayout pins Event at 32 bytes. Its fields run widest first; the
// declaration-order layout was 40 bytes, and every decoded or recorded
// event pays the difference in memory and in zeroing fresh chunks.
func TestEventLayout(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 32 {
		t.Fatalf("sizeof(Event) = %d, want 32: keep the fields ordered widest first", got)
	}
}

// TestDeltaStateGrowsGeometrically pins the v2 coder's per-thread state
// growth: decoding accesses from ever-higher tids must allocate a small
// multiple of the final state, not a fresh tid+1 table per new thread
// (quadratic: gigabytes for this trace).
func TestDeltaStateGrowsGeometrically(t *testing.T) {
	const n = 1 << 15
	tr := &Trace{Name: "tids"}
	for i := 0; i < n; i++ {
		tr.Append(Event{Kind: KAccess, TID: int32(i), Site: shadow.SiteID(i), Addr: memmodel.Addr(8 * i)})
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		e, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if e != tr.At(i) {
			t.Fatalf("event %d: %+v, want %+v", i, e, tr.At(i))
		}
	}
	runtime.ReadMemStats(&after)
	state := uint64(cap(sr.ds.last)) * uint64(unsafe.Sizeof(lastAccess{}))
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 3*state {
		t.Fatalf("decoding %d ascending tids allocated %d bytes, want <= 3x the final %d-byte delta state",
			n, alloc, state)
	}
}

// mixedTrace exercises every event kind, several tids (one far above the
// rest), and address and site deltas that are large, negative, or wrap.
func mixedTrace() *Trace {
	tr := &Trace{Name: "mixed"}
	tids := []int32{0, 1, 2, 3, 700}
	addrs := []uint64{0x40, 1<<62 + 8, 0x48, 0, 1 << 63, 0x1000, ^uint64(7)}
	for i := 0; i < 56; i++ {
		tid := tids[i%len(tids)]
		e := Event{TID: tid, Write: i%3 == 0}
		switch k := i % 7; k {
		case 0, 1, 2:
			e.Kind = KAccess
			e.Addr = memmodel.Addr(addrs[(i/7+k)%len(addrs)] + uint64(8*i))
			e.Site = shadow.SiteID(uint32(1000-7*i) << uint(k*12))
		case 3, 4:
			e.Kind = KAcquire + Kind(k-3)
			e.Sync = detect.SyncID(uint32(i * i * 977))
			e.SyncKind = sim.SyncKind(i % 3)
		default:
			e.Kind = KFork + Kind(k-5)
			e.Other = tid + 1
		}
		tr.Append(e)
	}
	return tr
}

// decodeOutcome is everything a decode reveals: the events delivered, the
// error text, whether it is a truncation, and where the reader stopped.
type decodeOutcome struct {
	events []Event
	err    string
	eof    bool
	offset int64 // StreamReader.Offset after the last Next; -1 without a reader
}

func outcomeOf(events []Event, err error, offset int64) decodeOutcome {
	o := decodeOutcome{events: events, offset: offset}
	if err != nil {
		o.err, o.eof = err.Error(), errors.Is(err, io.ErrUnexpectedEOF)
	}
	return o
}

// decodeNext decodes r event by event through StreamReader.Next.
func decodeNext(r io.Reader) decodeOutcome {
	sr, err := NewStreamReader(r)
	if err != nil {
		return outcomeOf(nil, err, -1)
	}
	var evs []Event
	for {
		e, err := sr.Next()
		if err == io.EOF {
			return outcomeOf(evs, nil, sr.Offset())
		}
		if err != nil {
			return outcomeOf(evs, err, sr.Offset())
		}
		evs = append(evs, e)
	}
}

// decodeBatch decodes r in one ReadFrom, which reports no offset.
func decodeBatch(r io.Reader) decodeOutcome {
	tr, err := ReadFrom(r)
	if err != nil {
		return outcomeOf(nil, err, -1)
	}
	var evs []Event
	tr.ForEach(func(e Event) { evs = append(evs, e) })
	return outcomeOf(evs, nil, -1)
}

// stopAtEnd fails a read past the end of its data instead of reporting
// io.EOF, like a connection whose client is still waiting.
type stopAtEnd struct{ r *bytes.Reader }

func (s stopAtEnd) Read(p []byte) (int, error) {
	if s.r.Len() == 0 {
		return 0, errors.New("read past the last event")
	}
	return s.r.Read(p)
}

var readerKinds = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"bytes", func(r io.Reader) io.Reader { return r }},
	{"one-byte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
}

// requireReaderIndependent decodes data through every reader kind, both
// event by event and in batch, and fails unless all agree: the same
// events, error text, truncation status, and (for Next) offset. Batch and
// Next must also agree with each other on everything but the offset.
func requireReaderIndependent(t *testing.T, label string, data []byte) decodeOutcome {
	t.Helper()
	var next, batch decodeOutcome
	for i, rk := range readerKinds {
		n := decodeNext(rk.wrap(bytes.NewReader(data)))
		b := decodeBatch(rk.wrap(bytes.NewReader(data)))
		if i == 0 {
			next, batch = n, b
			continue
		}
		if !reflect.DeepEqual(n, next) {
			t.Fatalf("%s: Next through %s reader: err %q eof %v offset %d (%d events); through bytes.Reader: err %q eof %v offset %d (%d events)",
				label, rk.name, n.err, n.eof, n.offset, len(n.events), next.err, next.eof, next.offset, len(next.events))
		}
		if !reflect.DeepEqual(b, batch) {
			t.Fatalf("%s: ReadFrom through %s reader: err %q eof %v (%d events); through bytes.Reader: err %q eof %v (%d events)",
				label, rk.name, b.err, b.eof, len(b.events), batch.err, batch.eof, len(batch.events))
		}
	}
	if batch.err != next.err || batch.eof != next.eof {
		t.Fatalf("%s: ReadFrom error %q (eof %v), Next error %q (eof %v)", label, batch.err, batch.eof, next.err, next.eof)
	}
	if next.err == "" && !reflect.DeepEqual(batch.events, next.events) {
		t.Fatalf("%s: ReadFrom and Next decode different events", label)
	}
	if next.err != "" && next.offset >= 0 && strings.Contains(next.err, "event ") &&
		!strings.Contains(next.err, fmt.Sprintf(" at offset %d:", next.offset)) {
		t.Fatalf("%s: error %q does not name the reader's offset %d", label, next.err, next.offset)
	}
	return next
}

// TestDecodeReaderIndependent is the decoder's differential contract: how
// the source cuts the stream into reads never changes what decodes, at
// every truncation point and under every single-byte corruption.
func TestDecodeReaderIndependent(t *testing.T) {
	tr := mixedTrace()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	headerLen := 4 + 4 + len(tr.Name) + 8

	whole := requireReaderIndependent(t, "whole", wire)
	if whole.err != "" || len(whole.events) != tr.Len() {
		t.Fatalf("whole trace: err %q, %d of %d events", whole.err, len(whole.events), tr.Len())
	}
	for i, e := range whole.events {
		if want := normalizeV2(tr.At(i)); e != want {
			t.Fatalf("event %d: %+v, want %+v", i, e, want)
		}
	}
	if whole.offset != int64(len(wire)) {
		t.Fatalf("offset after the last event = %d, want %d", whole.offset, len(wire))
	}

	// A window of maxEventV2 bytes always settles an event, whatever the
	// bytes: gatherV2 never needs more than that to decide.
	var ds deltaState
	for off := range wire {
		window := append(append([]byte(nil), wire[off:]...), make([]byte, maxEventV2)...)[:maxEventV2]
		if _, err := decodeV2(window, &ds, new(Event)); err == errShort {
			t.Fatalf("a %d-byte window at offset %d decoded short", maxEventV2, off)
		}
	}

	// The last event must settle without a read past it, as on a live
	// connection whose client waits for its report without half-closing.
	for _, rk := range readerKinds {
		for _, decode := range []func(io.Reader) decodeOutcome{decodeNext, decodeBatch} {
			if got := decode(rk.wrap(stopAtEnd{bytes.NewReader(wire)})); got.err != "" {
				t.Fatalf("%s reader: %s", rk.name, got.err)
			}
		}
	}

	for cut := 0; cut < len(wire); cut++ {
		got := requireReaderIndependent(t, fmt.Sprintf("cut at %d", cut), wire[:cut])
		if got.err == "" {
			t.Fatalf("cut at %d accepted", cut)
		}
		if cut >= headerLen && !got.eof {
			t.Fatalf("cut at %d: error %q does not unwrap to io.ErrUnexpectedEOF", cut, got.err)
		}
	}
	for off := range wire {
		for _, b := range []byte{0x00, 0xff, 0x80} {
			bad := append([]byte(nil), wire...)
			bad[off] = b
			requireReaderIndependent(t, fmt.Sprintf("byte %d = %#x", off, b), bad)
		}
	}
}

// TestDecodeReaderIndependentAcrossWindows repeats the differential on a
// recorded trace many buffered windows long, so events straddling a window
// end take the gather path in ReadFrom's batch loop.
func TestDecodeReaderIndependentAcrossWindows(t *testing.T) {
	tr := record(t, "raytrace", 3)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	whole := requireReaderIndependent(t, "whole", wire)
	if whole.err != "" || len(whole.events) != tr.Len() {
		t.Fatalf("whole trace: err %q, %d of %d events", whole.err, len(whole.events), tr.Len())
	}
	for i, e := range whole.events {
		if e != tr.At(i) {
			t.Fatalf("event %d: %+v, want %+v", i, e, tr.At(i))
		}
	}
	// Cut around the first window ends and just short of the end.
	var cuts []int
	for w := 1; w <= 3; w++ {
		for d := -40; d <= 40; d++ {
			cuts = append(cuts, w*4096+d)
		}
	}
	cuts = append(cuts, len(wire)-1)
	for _, cut := range cuts {
		if got := requireReaderIndependent(t, fmt.Sprintf("cut at %d", cut), wire[:cut]); !got.eof {
			t.Fatalf("cut at %d: error %q is not a truncation", cut, got.err)
		}
	}
}

var (
	vipsWireOnce sync.Once
	vipsWire     []byte
	vipsEvents   int
)

// BenchmarkReadFrom times ReadFrom on a vips recording at scale 2, the
// trace perfbench's trace-replay workload decodes, in ns per event.
func BenchmarkReadFrom(b *testing.B) {
	vipsWireOnce.Do(func() {
		tr := recordScale(b, "vips", 2, 1)
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
		vipsWire, vipsEvents = buf.Bytes(), tr.Len()
	})
	b.SetBytes(int64(len(vipsWire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := ReadFrom(bytes.NewReader(vipsWire))
		if err != nil {
			b.Fatal(err)
		}
		if tr.Len() != vipsEvents {
			b.Fatalf("decoded %d events, recorded %d", tr.Len(), vipsEvents)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(vipsEvents), "ns/event")
}
