// Package trace records a program's detector-relevant events — hooked
// memory accesses, synchronization, thread lifetime — into a compact,
// serializable trace that can be analyzed offline by any detector.
//
// Offline analysis is the other major overhead-reduction strategy the
// paper's related work surveys (§9: Lee et al.'s offline symbolic analysis,
// Wester et al.'s parallelized detection): instead of paying detection cost
// inline, record cheaply now and analyze later, or analyze the same
// execution under several detectors without re-running it. cmd/txtrace
// exposes the workflow offline; cmd/txserved streams the same wire format
// into a long-lived sharded detection service.
package trace

import (
	"repro/internal/clock"
	"repro/internal/detect"
	"repro/internal/memmodel"
	"repro/internal/shadow"
	"repro/internal/sim"
)

// Kind tags one trace event.
type Kind uint8

// Event kinds.
const (
	KAccess Kind = iota
	KAcquire
	KRelease
	KFork
	KJoin
	kindCount // number of valid kinds; decoders reject anything >= this
)

// Event is one recorded runtime event. For KAccess, Addr/Write/Site are
// meaningful; for KAcquire/KRelease, Sync and SyncKind; for KFork/KJoin,
// Other is the child thread. Fields run widest first so an Event packs
// into 32 bytes rather than 40 (TestEventLayout): a decoded trace is
// millions of them.
type Event struct {
	Addr     memmodel.Addr
	TID      int32
	Other    int32
	Site     shadow.SiteID
	Sync     detect.SyncID
	Kind     Kind
	Write    bool
	SyncKind sim.SyncKind
}

// Event storage is chunked: long recordings append into fixed-size chunks
// instead of one ever-doubling slice, so a multi-million-event recording
// never re-copies (and never briefly doubles) hundreds of megabytes of
// already-recorded events. TestAppendAllocationBounded pins the per-event
// allocation cost.
const (
	chunkShift = 14 // 16384 events (512 KiB) per chunk
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// Trace is a recorded execution.
type Trace struct {
	Name   string
	chunks [][]Event
}

// FromEvents builds a trace from a literal event list (test helper shape).
func FromEvents(name string, evs ...Event) *Trace {
	t := &Trace{Name: name}
	for _, e := range evs {
		t.Append(e)
	}
	return t
}

// Append adds one event at the end of the trace.
func (t *Trace) Append(e Event) {
	c := t.tail()
	*c = append(*c, e)
}

// tail returns the last chunk, first starting a new one if it is full.
func (t *Trace) tail() *[]Event {
	n := len(t.chunks)
	if n == 0 || len(t.chunks[n-1]) == chunkSize {
		t.chunks = append(t.chunks, make([]Event, 0, chunkSize))
		n++
	}
	return &t.chunks[n-1]
}

// Len returns the number of recorded events.
func (t *Trace) Len() int {
	n := len(t.chunks)
	if n == 0 {
		return 0
	}
	return (n-1)*chunkSize + len(t.chunks[n-1])
}

// At returns event i (0 <= i < Len).
func (t *Trace) At(i int) Event { return t.chunks[i>>chunkShift][i&chunkMask] }

// ForEach visits every event in recording order.
func (t *Trace) ForEach(f func(Event)) {
	for _, c := range t.chunks {
		for i := range c {
			f(c[i])
		}
	}
}

// Recorder is a sim.Runtime that appends every detector-relevant event to a
// Trace. Run it over an instrument.ForTSan build so accesses carry hooks.
type Recorder struct {
	sim.NopRuntime
	T *Trace
}

// NewRecorder returns a recorder with an empty trace.
func NewRecorder(name string) *Recorder { return &Recorder{T: &Trace{Name: name}} }

// Access implements sim.Runtime.
func (r *Recorder) Access(t *sim.Thread, m *sim.MemAccess, addr memmodel.Addr) {
	if !m.Hooked {
		return
	}
	r.T.Append(Event{
		Kind: KAccess, TID: int32(t.ID), Write: m.Write, Site: m.Site, Addr: addr,
	})
}

// SyncAcquire implements sim.Runtime.
func (r *Recorder) SyncAcquire(t *sim.Thread, s sim.SyncID, kind sim.SyncKind) {
	r.T.Append(Event{
		Kind: KAcquire, TID: int32(t.ID), Sync: detect.SyncID(s), SyncKind: kind,
	})
}

// SyncRelease implements sim.Runtime.
func (r *Recorder) SyncRelease(t *sim.Thread, s sim.SyncID, kind sim.SyncKind) {
	r.T.Append(Event{
		Kind: KRelease, TID: int32(t.ID), Sync: detect.SyncID(s), SyncKind: kind,
	})
}

// Fork implements sim.Runtime.
func (r *Recorder) Fork(p, c *sim.Thread) {
	r.T.Append(Event{Kind: KFork, TID: int32(p.ID), Other: int32(c.ID)})
}

// Joined implements sim.Runtime.
func (r *Recorder) Joined(p, c *sim.Thread) {
	r.T.Append(Event{Kind: KJoin, TID: int32(p.ID), Other: int32(c.ID)})
}

// Replay feeds the trace to a happens-before detector and returns it.
func Replay(t *Trace) *detect.Detector {
	d := detect.New()
	t.ForEach(func(e Event) {
		switch e.Kind {
		case KAccess:
			d.Access(clock.TID(e.TID), e.Addr, e.Write, e.Site)
		case KAcquire:
			detect.AcquireKind(d, clock.TID(e.TID), e.Sync, e.SyncKind)
		case KRelease:
			detect.ReleaseKind(d, clock.TID(e.TID), e.Sync, e.SyncKind)
		case KFork:
			d.Fork(clock.TID(e.TID), clock.TID(e.Other))
		case KJoin:
			d.Join(clock.TID(e.TID), clock.TID(e.Other))
		}
	})
	return d
}

// ReplayVC feeds the trace to the Djit⁺-style full-vector-clock detector,
// for algorithm comparisons against FastTrack (BenchmarkDetectorAlgorithms).
func ReplayVC(t *Trace) *detect.VCDetector {
	d := detect.NewVC()
	t.ForEach(func(e Event) {
		switch e.Kind {
		case KAccess:
			d.Access(clock.TID(e.TID), e.Addr, e.Write, e.Site)
		case KAcquire:
			d.Acquire(clock.TID(e.TID), e.Sync)
			if e.SyncKind == sim.SyncWrite {
				d.Acquire(clock.TID(e.TID), e.Sync|1<<31)
			}
		case KRelease:
			switch e.SyncKind {
			case sim.SyncRead:
				d.Release(clock.TID(e.TID), e.Sync|1<<31)
			default:
				d.Release(clock.TID(e.TID), e.Sync)
			}
		case KFork:
			d.Fork(clock.TID(e.TID), clock.TID(e.Other))
		case KJoin:
			d.Join(clock.TID(e.TID), clock.TID(e.Other))
		}
	})
	return d
}

// ReplayLockset feeds the trace to an Eraser-style lockset detector.
func ReplayLockset(t *Trace) *detect.LocksetDetector {
	d := detect.NewLockset()
	t.ForEach(func(e Event) {
		switch e.Kind {
		case KAccess:
			d.Access(clock.TID(e.TID), e.Addr, e.Write, e.Site)
		case KAcquire:
			d.Acquire(clock.TID(e.TID), e.Sync, e.SyncKind)
		case KRelease:
			d.Release(clock.TID(e.TID), e.Sync, e.SyncKind)
		}
	})
	return d
}
