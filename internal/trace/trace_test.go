package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/memmodel"
	"repro/internal/sim"
	"repro/internal/workload"
)

func record(t testing.TB, name string, seed uint64) *Trace {
	t.Helper()
	return recordScale(t, name, 1, seed)
}

func recordScale(t testing.TB, name string, scale int, seed uint64) *Trace {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	built := w.Build(4, scale)
	rec := NewRecorder(name)
	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	if w.InterruptEvery != 0 {
		cfg.InterruptEvery = w.InterruptEvery
	}
	if _, err := sim.NewEngine(cfg).Run(instrument.ForTSan(built.Prog), rec); err != nil {
		t.Fatal(err)
	}
	return rec.T
}

// TestReplayMatchesOnline: replaying a recorded trace through the
// happens-before detector must find exactly what the online TSan runtime
// found on the same seed.
func TestReplayMatchesOnline(t *testing.T) {
	for _, name := range []string{"raytrace", "streamcluster", "freqmine"} {
		tr := record(t, name, 7)

		w, _ := workload.ByName(name)
		built := w.Build(4, 1)
		rt := core.NewTSan()
		cfg := sim.DefaultConfig()
		cfg.Seed = 7
		if w.InterruptEvery != 0 {
			cfg.InterruptEvery = w.InterruptEvery
		}
		if _, err := sim.NewEngine(cfg).Run(instrument.ForTSan(built.Prog), rt); err != nil {
			t.Fatal(err)
		}

		offline := Replay(tr)
		got, want := offline.RaceKeys(), rt.Detector().RaceKeys()
		if len(got) != len(want) {
			t.Fatalf("%s: offline %d races, online %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: race %d mismatch: %v vs %v", name, i, got[i], want[i])
			}
		}
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	tr := record(t, "raytrace", 3)
	var buf bytes.Buffer
	n, err := tr.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	back, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != tr.Name || back.Len() != tr.Len() {
		t.Fatalf("round trip lost shape: %q/%d vs %q/%d", back.Name, back.Len(), tr.Name, tr.Len())
	}
	for i := 0; i < tr.Len(); i++ {
		if back.At(i) != tr.At(i) {
			t.Fatalf("event %d differs: %+v vs %+v", i, back.At(i), tr.At(i))
		}
	}
}

// TestWireV2Compression pins the point of the varint/delta format: on a real
// recorded workload trace it must stay under half of the retired v1 format's
// fixed 28-byte record per event.
func TestWireV2Compression(t *testing.T) {
	tr := record(t, "raytrace", 3)
	n, err := tr.WriteTo(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	const v1Record = 28 // bytes per event in the retired fixed-record format
	if perEvent := float64(n) / float64(tr.Len()); perEvent >= v1Record/2 {
		t.Fatalf("v2 encoding %d bytes for %d events (%.2f B/event), want < %d B/event",
			n, tr.Len(), perEvent, v1Record/2)
	}
}

// TestStreamReaderIncremental: the server-side decoder must deliver events
// one by one with the header available up front.
func TestStreamReaderIncremental(t *testing.T) {
	tr := FromEvents("s",
		Event{Kind: KFork, TID: 0, Other: 1},
		Event{Kind: KAccess, TID: 1, Write: true, Site: 3, Addr: 0x100},
		Event{Kind: KAccess, TID: 1, Site: 4, Addr: 0x108},
		Event{Kind: KRelease, TID: 1, Sync: 5},
	)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	sr, err := NewStreamReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Name() != "s" || sr.Total() != 4 {
		t.Fatalf("header %q/%d", sr.Name(), sr.Total())
	}
	for i := 0; i < tr.Len(); i++ {
		e, err := sr.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if e != tr.At(i) {
			t.Fatalf("event %d: %+v vs %+v", i, e, tr.At(i))
		}
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("want io.EOF after last event, got %v", err)
	}
}

// TestAppendAllocationBounded pins the chunked-storage fix: appending n
// events must cost about n*sizeof(Event) bytes in about n/chunkSize chunk
// allocations — not the ~2x byte churn of an ever-doubling slice re-copying
// the whole recording as it grows. GOMAXPROCS is pinned to 1 while it
// counts, as testing.AllocsPerRun does, so mallocs made by other
// goroutines of the process do not land in the count.
func TestAppendAllocationBounded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 4*chunkSize + 100
	evSize := float64(unsafe.Sizeof(Event{}))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr := &Trace{Name: "alloc"}
	for i := 0; i < n; i++ {
		tr.Append(Event{Kind: KAccess, TID: int32(i & 3), Addr: memmodel.Addr(i * 8)})
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tr)
	bytesPerEvent := float64(after.TotalAlloc-before.TotalAlloc) / n
	if bytesPerEvent > evSize*1.3 {
		t.Fatalf("append allocated %.1f bytes/event, want <= %.1f (copy churn is back)",
			bytesPerEvent, evSize*1.3)
	}
	allocs := after.Mallocs - before.Mallocs
	if allocs > n/chunkSize+8 {
		t.Fatalf("append performed %d allocations for %d events, want ~%d chunks",
			allocs, n, n/chunkSize+1)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
}

func TestReplayAfterRoundTripFindsSameRaces(t *testing.T) {
	tr := record(t, "x264", 5)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := Replay(tr).RaceKeys(), Replay(back).RaceKeys()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("replay divergence after serialization: %d vs %d", len(a), len(b))
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader([]byte("not a trace"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadFrom(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	// Truncated: valid header claiming more events than present.
	tr := FromEvents("t", Event{Kind: KAccess, TID: 1})
	var buf bytes.Buffer
	tr.WriteTo(&buf)
	cut := buf.Bytes()[:buf.Len()-4]
	if _, err := ReadFrom(bytes.NewReader(cut)); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

// TestTruncatedStreamNamesOffsetAndVersion pins the hardening contract:
// truncated or corrupt streams fail with one structured error that names the
// wire version, the event index and the byte offset of the failure,
// truncation surfaces as io.ErrUnexpectedEOF (never a silent short read),
// and every malformed event is rejected rather than smuggled into the event
// stream.
func TestTruncatedStreamNamesOffsetAndVersion(t *testing.T) {
	tr := FromEvents("np",
		Event{Kind: KFork, TID: 0, Other: 1},
		Event{Kind: KAccess, TID: 1, Write: true, Site: 3, Addr: 0x100},
	)
	var v2 bytes.Buffer
	if _, err := tr.WriteTo(&v2); err != nil {
		t.Fatal(err)
	}
	headerLen := 4 + 4 + len(tr.Name) + 8
	fork := []byte{byte(KFork), 0, 1} // event 0: thread 0 forks thread 1
	if got := v2.Bytes()[headerLen : headerLen+len(fork)]; !bytes.Equal(got, fork) {
		t.Fatalf("event 0 encodes as % x, want % x", got, fork)
	}
	at1 := fmt.Sprintf("event 1 at offset %d:", headerLen+len(fork))

	// withEvent1 returns v2's header and event 0 followed by raw bytes for
	// event 1.
	withEvent1 := func(b ...byte) []byte {
		return append(append([]byte(nil), v2.Bytes()[:headerLen+len(fork)]...), b...)
	}
	v1Header := append([]byte(nil), v2.Bytes()...)
	v1Header[4] = 1
	overTID := binary.AppendUvarint(nil, maxTID+1)

	cases := []struct {
		name      string
		data      []byte
		want      []string // substrings the one-line error must carry
		truncated bool     // must unwrap to io.ErrUnexpectedEOF
	}{
		{"empty", nil, []string{"trace: reading magic at offset 0"}, false},
		{"garbage-magic", []byte("not a trace at all"), []string{"trace: bad magic"}, false},
		// The offset reported is the truncation point — where the stream
		// actually ran dry — not the start of the field being read.
		{"cut-mid-header", v2.Bytes()[:6], []string{"reading header at offset 6"}, false},
		{"cut-mid-name", v2.Bytes()[:9], []string{"wire v2", "reading name at offset 9"}, false},
		{"cut-mid-count", v2.Bytes()[:headerLen-3], []string{"wire v2", "reading count at offset 15"}, false},
		// The retired fixed-record version fails at the header, before any
		// of its records is read.
		{"v1-header", v1Header, []string{"trace: unsupported version 1"}, false},
		{"v2-cut-mid-record", v2.Bytes()[:v2.Len()-2],
			[]string{"wire v2", "event 1 at offset"}, true},
		{"v2-missing-last-record", v2.Bytes()[:headerLen+len(fork)],
			[]string{"wire v2", at1, "truncated record"}, true},
		{"v2-payload-empty", v2.Bytes()[:headerLen],
			[]string{"wire v2", "event 0 at offset", "truncated record"}, true},
		{"v2-invalid-kind", withEvent1(7, 1), []string{"wire v2", at1, "invalid event kind 7"}, false},
		// Bit 7 of the flags byte is the top of a 4-bit sync kind; the
		// wire carries 3.
		{"v2-invalid-sync-kind", withEvent1(0x80|byte(KAcquire), 1, 5),
			[]string{"wire v2", at1, "invalid sync kind 8"}, false},
		{"v2-huge-tid", withEvent1(append([]byte{byte(KAccess)}, overTID...)...),
			[]string{"wire v2", at1, "implausible tid 4194305"}, false},
		{"v2-huge-fork-child", withEvent1(append([]byte{byte(KFork), 0}, overTID...)...),
			[]string{"wire v2", at1, "implausible thread id 4194305"}, false},
		// Ten continuation-bit-laden bytes cannot hold a uint64: a tid
		// field that does not fit is rejected, never wrapped.
		{"v2-varint-overflow", withEvent1(byte(KAccess), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f),
			[]string{"wire v2", at1, "varint overflows 64 bits"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadFrom(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("malformed stream accepted")
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q lacks %q", err, want)
				}
			}
			if tc.truncated && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("truncation error %q does not unwrap to io.ErrUnexpectedEOF", err)
			}
			if strings.ContainsRune(err.Error(), '\n') {
				t.Fatalf("error is not one line: %q", err)
			}
		})
	}

	// Offset() tracks the decode frontier: the header's end, then past every
	// event Next decoded ahead, here the whole buffered stream.
	sr, err := NewStreamReader(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := sr.Offset(); got != int64(headerLen) {
		t.Fatalf("Offset after header = %d, want %d", got, headerLen)
	}
	if _, err := sr.Next(); err != nil {
		t.Fatal(err)
	}
	if got := sr.Offset(); got != int64(v2.Len()) {
		t.Fatalf("Offset after one event = %d, want %d", got, v2.Len())
	}
}

func TestReplayLocksetSeesViolations(t *testing.T) {
	tr := record(t, "freqmine", 2)
	ls := ReplayLockset(tr)
	if ls.ViolationCount() == 0 {
		t.Fatal("freqmine's init-then-share idiom must trip the lockset detector")
	}
	if Replay(tr).RaceCount() != 0 {
		t.Fatal("freqmine has no real races")
	}
}

func TestRecorderSkipsUnhookedAccesses(t *testing.T) {
	rec := NewRecorder("raw")
	p := &sim.Program{Workers: [][]sim.Instr{
		{&sim.MemAccess{Addr: sim.Fixed(64), Site: 1}}, // no hook
		{&sim.Compute{Cycles: 5}},
	}}
	cfg := sim.DefaultConfig()
	if _, err := sim.NewEngine(cfg).Run(p, rec); err != nil {
		t.Fatal(err)
	}
	rec.T.ForEach(func(e Event) {
		if e.Kind == KAccess {
			t.Fatal("unhooked access recorded")
		}
	})
}

// TestReplayVCAgreesWithFastTrack: on the workloads' single-pair race
// patterns, the Djit⁺-style detector and FastTrack report identical sets
// when replaying the same trace.
func TestReplayVCAgreesWithFastTrack(t *testing.T) {
	for _, name := range []string{"raytrace", "x264", "streamcluster"} {
		tr := record(t, name, 11)
		ft := Replay(tr).RaceKeys()
		vc := ReplayVC(tr).RaceKeys()
		if len(ft) != len(vc) {
			t.Fatalf("%s: fasttrack %d vs djit %d races", name, len(ft), len(vc))
		}
		for i := range ft {
			if ft[i] != vc[i] {
				t.Fatalf("%s: race %d: %v vs %v", name, i, ft[i], vc[i])
			}
		}
	}
}

// TestFastTrackDoesFewerVectorWork is the qualitative FastTrack claim: on
// the same trace both detectors perform one check per access, but the
// Djit⁺ detector's checks are O(threads) scans. We can at least assert the
// check counts agree (the cost difference shows up in
// BenchmarkDetectorAlgorithms).
func TestDetectorsCheckSameAccessCount(t *testing.T) {
	tr := record(t, "facesim", 4)
	ft := Replay(tr)
	vc := ReplayVC(tr)
	if ft.Checks != vc.Checks || ft.Checks == 0 {
		t.Fatalf("check counts differ: %d vs %d", ft.Checks, vc.Checks)
	}
}
