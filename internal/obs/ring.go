package obs

// Tracer is the default Sink: a fixed-capacity ring buffer of events. When
// the buffer fills, the oldest events are overwritten and counted as
// dropped — tracing never grows memory without bound, so it is safe to leave
// attached to arbitrarily long runs.
type Tracer struct {
	buf   []Event
	total uint64
}

// DefaultTracerCapacity holds every event of the test-scale workloads with
// room to spare; raise it (or shrink it) via NewTracer for other scales.
const DefaultTracerCapacity = 1 << 20

// MaxRingCapacity bounds the event ring a command-line flag may ask a
// Tracer or FlightRecorder for: 16x the default tracer's ring, under 1 GiB
// of 56-byte events. Commands reject larger -trace-buf/-flight-buf values before
// allocating, so a typo is a one-line error rather than an out-of-memory
// crash.
const MaxRingCapacity = 1 << 24

// NewTracer returns a ring tracer holding up to capacity events;
// non-positive capacities get DefaultTracerCapacity.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTracerCapacity
	}
	return &Tracer{buf: make([]Event, 0, capacity)}
}

// Emit implements Sink.
func (t *Tracer) Emit(ev Event) {
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
	} else {
		t.buf[t.total%uint64(cap(t.buf))] = ev
	}
	t.total++
}

// Len returns the number of retained events.
func (t *Tracer) Len() int { return len(t.buf) }

// Dropped returns how many events were overwritten by newer ones.
func (t *Tracer) Dropped() uint64 {
	if n := uint64(cap(t.buf)); t.total > n {
		return t.total - n
	}
	return 0
}

// Events returns the retained events oldest-first. The returned slice is a
// copy; the tracer may keep recording.
func (t *Tracer) Events() []Event {
	out := make([]Event, 0, len(t.buf))
	if t.total > uint64(cap(t.buf)) {
		head := int(t.total % uint64(cap(t.buf)))
		out = append(out, t.buf[head:]...)
		out = append(out, t.buf[:head]...)
		return out
	}
	return append(out, t.buf...)
}

// Reset discards all retained events and the drop count.
func (t *Tracer) Reset() {
	t.buf = t.buf[:0]
	t.total = 0
}
