package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/detect"
	"repro/internal/memmodel"
	"repro/internal/shadow"
	"repro/internal/sim"
)

// Serialization. Two wire versions share the header:
//
//	magic "TXTR" | version u16 | name len u16 | name | event count u64
//
// Version 1 follows with fixed 28-byte little-endian records:
//
//	kind u8 | flags u8 | synckind u8 | pad u8 |
//	tid i32 | other i32 | site u32 | sync u32 | addr u64
//
// Version 2 is varint + per-thread delta coded. Each event is:
//
//	b0: kind (3 bits) | write (bit 3) | synckind (3 bits, from bit 4)
//	uvarint tid
//	then by kind:
//	  KAccess:          zigzag(addr - lastAddr[tid]), zigzag(site - lastSite[tid])
//	  KAcquire/KRelease: uvarint sync
//	  KFork/KJoin:       uvarint other
//
// The per-thread deltas exploit the recorder's locality: a thread's next
// access is usually a short stride from its previous one and repeats the
// same few static sites, so most access events fit in 3–5 bytes against
// v1's 28. The v1 reader is kept; ReadFrom and NewStreamReader dispatch on
// the header's version field. WriteTo emits v2; WriteToV1 keeps the fixed
// format for tooling that wants it.
const (
	magic        = "TXTR"
	version1     = 1
	version2     = 2
	recordSizeV1 = 1 + 1 + 1 + 1 + 4 + 4 + 4 + 4 + 8

	// maxEvents bounds what a header may claim, so corrupt counts fail
	// fast instead of looping for 2^64 records.
	maxEvents = 1 << 30
	// maxTID bounds thread ids the v2 decoder accepts: the per-thread
	// delta state is indexed by tid, and a hostile varint must not make
	// the decoder allocate gigabytes of it.
	maxTID = 1 << 22
)

// WriteTo serializes the trace in the current wire version (v2).
func (t *Trace) WriteTo(w io.Writer) (int64, error) { return t.writeVersion(w, version2) }

// WriteToV1 serializes the trace in the fixed-record v1 format.
func (t *Trace) WriteToV1(w io.Writer) (int64, error) { return t.writeVersion(w, version1) }

func (t *Trace) writeVersion(w io.Writer, v int) (int64, error) {
	cw := &countingWriter{w: bufio.NewWriter(w)}
	if err := t.writeHeader(cw, v); err != nil {
		return cw.n, err
	}
	var err error
	switch v {
	case version1:
		err = t.writeEventsV1(cw)
	case version2:
		err = t.writeEventsV2(cw)
	default:
		err = fmt.Errorf("trace: unknown writer version %d", v)
	}
	if err != nil {
		return cw.n, err
	}
	return cw.n, cw.w.(*bufio.Writer).Flush()
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(b []byte) (int, error) {
	m, err := cw.w.Write(b)
	cw.n += int64(m)
	return m, err
}

func (t *Trace) writeHeader(w io.Writer, v int) error {
	if _, err := w.Write([]byte(magic)); err != nil {
		return err
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint16(hdr[0:], uint16(v))
	binary.LittleEndian.PutUint16(hdr[2:], uint16(len(t.Name)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write([]byte(t.Name)); err != nil {
		return err
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], uint64(t.Len()))
	_, err := w.Write(cnt[:])
	return err
}

func (t *Trace) writeEventsV1(w io.Writer) error {
	var rec [recordSizeV1]byte
	var werr error
	t.ForEach(func(e Event) {
		if werr != nil {
			return
		}
		rec[0] = byte(e.Kind)
		rec[1] = 0
		if e.Write {
			rec[1] = 1
		}
		rec[2] = byte(e.SyncKind)
		rec[3] = 0
		binary.LittleEndian.PutUint32(rec[4:], uint32(e.TID))
		binary.LittleEndian.PutUint32(rec[8:], uint32(e.Other))
		binary.LittleEndian.PutUint32(rec[12:], uint32(e.Site))
		binary.LittleEndian.PutUint32(rec[16:], uint32(e.Sync))
		binary.LittleEndian.PutUint64(rec[20:], uint64(e.Addr))
		_, werr = w.Write(rec[:])
	})
	return werr
}

// deltaState is the per-thread prediction context both v2 coder sides keep
// in lockstep: each thread's previous access address and site. The table
// grows geometrically, so a stream that keeps introducing higher tids costs
// amortized O(1) per new thread rather than a full copy per thread; its
// length is a capacity, never a thread count.
type deltaState struct{ last []lastAccess }

type lastAccess struct {
	addr uint64
	site uint32
}

// at returns tid's slot; callers have checked 0 <= tid <= maxTID.
func (ds *deltaState) at(tid int32) *lastAccess {
	if int(tid) >= len(ds.last) {
		ds.grow(int(tid))
	}
	return &ds.last[tid]
}

func (ds *deltaState) grow(tid int) {
	last := make([]lastAccess, min(max(2*len(ds.last), tid+1, 16), maxTID+1))
	copy(last, ds.last)
	ds.last = last
}

func zigzag(d int64) uint64   { return uint64(d<<1) ^ uint64(d>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func (t *Trace) writeEventsV2(w io.Writer) error {
	var ds deltaState
	var buf [3 * binary.MaxVarintLen64]byte
	var werr error
	t.ForEach(func(e Event) {
		if werr != nil {
			return
		}
		if e.TID < 0 || e.TID > maxTID {
			werr = fmt.Errorf("trace: tid %d out of v2 range", e.TID)
			return
		}
		if e.SyncKind > 7 {
			werr = fmt.Errorf("trace: sync kind %d out of v2 range", e.SyncKind)
			return
		}
		b0 := byte(e.Kind) & 7
		if e.Write {
			b0 |= 1 << 3
		}
		b0 |= (byte(e.SyncKind) & 7) << 4
		buf[0] = b0
		n := 1
		n += binary.PutUvarint(buf[n:], uint64(e.TID))
		switch e.Kind {
		case KAccess:
			la := ds.at(e.TID)
			n += binary.PutUvarint(buf[n:], zigzag(int64(uint64(e.Addr))-int64(la.addr)))
			n += binary.PutUvarint(buf[n:], zigzag(int64(uint32(e.Site))-int64(la.site)))
			la.addr, la.site = uint64(e.Addr), uint32(e.Site)
		case KAcquire, KRelease:
			n += binary.PutUvarint(buf[n:], uint64(e.Sync))
		case KFork, KJoin:
			if e.Other < 0 || e.Other > maxTID {
				werr = fmt.Errorf("trace: fork/join thread id %d out of v2 range", e.Other)
				return
			}
			n += binary.PutUvarint(buf[n:], uint64(e.Other))
		default:
			werr = fmt.Errorf("trace: unknown event kind %d", e.Kind)
			return
		}
		_, werr = w.Write(buf[:n])
	})
	return werr
}

// countingReader counts bytes drained from the underlying source so the
// stream reader can name the byte offset of a decode failure.
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	m, err := cr.r.Read(p)
	cr.n += int64(m)
	return m, err
}

// StreamReader decodes a serialized trace event by event — the server's
// ingestion path, which must not buffer a whole multi-gigabyte trace to
// start detecting. It reads the header eagerly (so Name and Version are
// available immediately) and then yields events until the declared count is
// exhausted.
type StreamReader struct {
	cr        *countingReader
	br        *bufio.Reader
	name      string
	version   int
	total     uint64
	remaining uint64
	ds        deltaState
}

// NewStreamReader reads the trace header from r and returns a reader
// positioned at the first event. Both wire versions are accepted.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	cr := &countingReader{r: r}
	br := bufio.NewReader(cr)
	offset := func() int64 { return cr.n - int64(br.Buffered()) }
	head := make([]byte, 4)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading magic at offset %d: %w", offset(), err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", head)
	}
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header at offset %d: %w", offset(), err)
	}
	v := int(binary.LittleEndian.Uint16(head[0:]))
	if v != version1 && v != version2 {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	nameLen := binary.LittleEndian.Uint16(head[2:])
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: wire v%d: reading name at offset %d: %w", v, offset(), err)
	}
	var cnt [8]byte
	if _, err := io.ReadFull(br, cnt[:]); err != nil {
		return nil, fmt.Errorf("trace: wire v%d: reading count at offset %d: %w", v, offset(), err)
	}
	n := binary.LittleEndian.Uint64(cnt[:])
	if n > maxEvents {
		return nil, fmt.Errorf("trace: wire v%d: implausible event count %d", v, n)
	}
	return &StreamReader{cr: cr, br: br, name: string(name), version: v, total: n, remaining: n}, nil
}

// Name returns the recorded trace's name.
func (sr *StreamReader) Name() string { return sr.name }

// Version returns the wire version being decoded (1 or 2).
func (sr *StreamReader) Version() int { return sr.version }

// Total returns the event count the header declared.
func (sr *StreamReader) Total() uint64 { return sr.total }

// Offset returns the byte offset of the next undecoded byte — on a decode
// error, where in the stream the malformation sits (for v2, the first byte
// of the event that failed).
func (sr *StreamReader) Offset() int64 { return sr.cr.n - int64(sr.br.Buffered()) }

// Next returns the next event, or io.EOF once the declared count has been
// delivered. Any other error means a malformed or truncated stream; the
// error names the wire version and the byte offset of the failure.
func (sr *StreamReader) Next() (Event, error) {
	if sr.remaining == 0 {
		return Event{}, io.EOF
	}
	var e [1]Event
	if _, err := sr.read(e[:]); err != nil {
		return Event{}, err
	}
	return e[0], nil
}

// read decodes the next min(len(dst), remaining) events into dst and
// returns how many it delivered. v2 events are decoded in place, straight
// from the buffered window; only an event the window cuts short goes
// through gatherV2.
func (sr *StreamReader) read(dst []Event) (int, error) {
	if uint64(len(dst)) > sr.remaining {
		dst = dst[:sr.remaining]
	}
	if sr.version == version1 {
		for i := range dst {
			start := sr.Offset()
			e, err := sr.nextV1()
			if err != nil {
				return i, sr.fail(start, err)
			}
			dst[i] = e
			sr.remaining--
		}
		return len(dst), nil
	}
	n := 0
	for n < len(dst) {
		p, _ := sr.br.Peek(sr.br.Buffered())
		off, first := 0, n
		var err error
		for n < len(dst) {
			var m int
			if m, err = decodeV2(p[off:], &sr.ds, &dst[n]); err != nil {
				break
			}
			off += m
			n++
		}
		sr.br.Discard(off)
		sr.remaining -= uint64(n - first)
		if err == errShort {
			if err = sr.gatherV2(len(p)-off, &dst[n]); err == nil {
				n++
				sr.remaining--
			}
		}
		if err != nil {
			return n, sr.fail(sr.Offset(), err)
		}
	}
	return n, nil
}

// fail wraps a decode error of the next undelivered event, which starts at
// byte offset start.
func (sr *StreamReader) fail(start int64, err error) error {
	return fmt.Errorf("trace: wire v%d: event %d at offset %d: %w",
		sr.version, sr.total-sr.remaining, start, err)
}

func (sr *StreamReader) nextV1() (Event, error) {
	var rec [recordSizeV1]byte
	if _, err := io.ReadFull(sr.br, rec[:]); err != nil {
		return Event{}, fmt.Errorf("truncated record: %w", noEOF(err))
	}
	if Kind(rec[0]) >= kindCount {
		return Event{}, fmt.Errorf("invalid event kind %d", rec[0])
	}
	if rec[1] > 1 {
		return Event{}, fmt.Errorf("invalid write flag %d", rec[1])
	}
	if rec[2] > 7 {
		return Event{}, fmt.Errorf("invalid sync kind %d", rec[2])
	}
	return Event{
		Kind:     Kind(rec[0]),
		Write:    rec[1] == 1,
		SyncKind: sim.SyncKind(rec[2]),
		TID:      int32(binary.LittleEndian.Uint32(rec[4:])),
		Other:    int32(binary.LittleEndian.Uint32(rec[8:])),
		Site:     shadow.SiteID(binary.LittleEndian.Uint32(rec[12:])),
		Sync:     detect.SyncID(binary.LittleEndian.Uint32(rec[16:])),
		Addr:     memmodel.Addr(binary.LittleEndian.Uint64(rec[20:])),
	}, nil
}

// gatherV2 decodes the event the buffered window cuts short after have
// bytes. It grows the window one byte at a time and retries, so it never
// waits for a byte past the event's own: a client that streams a whole
// trace and then waits for its report, without half-closing, must get the
// report. The event's bytes are consumed only on success.
func (sr *StreamReader) gatherV2(have int, e *Event) error {
	for ; ; have++ {
		p, err := sr.br.Peek(have + 1)
		if err != nil {
			if have == 0 {
				return fmt.Errorf("truncated record: %w", noEOF(err))
			}
			return fmt.Errorf("truncated varint: %w", noEOF(err))
		}
		n, err := decodeV2(p, &sr.ds, e)
		if err != errShort {
			if err == nil {
				sr.br.Discard(n)
			}
			return err
		}
	}
}

// maxEventV2 is the longest v2 event: the flags byte and three varints.
// decodeV2 never reports errShort on a window at least this long, so
// gatherV2 runs only while fewer bytes than this are buffered.
const maxEventV2 = 1 + 3*binary.MaxVarintLen64

var (
	// errShort reports that the window ends inside the event.
	errShort          = errors.New("event runs past the buffered bytes")
	errVarintOverflow = errors.New("varint overflows 64 bits")
)

// decodeV2 decodes the v2 event at the start of p into *e and returns its
// length. It returns errShort when p ends inside the event; any other error
// is a malformation no further bytes can mend, reported as soon as the
// bytes before it settle it. *e and ds change only on success, so a short
// decode can be retried on a longer window and every way of cutting a
// stream into reads decodes it alike.
func decodeV2(p []byte, ds *deltaState, e *Event) (int, error) {
	if len(p) == 0 {
		return 0, errShort
	}
	b0 := p[0]
	kind := Kind(b0 & 7)
	if kind >= kindCount {
		return 0, fmt.Errorf("invalid event kind %d", kind)
	}
	if b0 >= 0x80 {
		// Sync kinds are 3 bits wide on the wire, as in v1.
		return 0, fmt.Errorf("invalid sync kind %d", b0>>4)
	}
	tid, n, err := uvarint(p[1:])
	if err != nil {
		return 0, err
	}
	if tid > maxTID {
		return 0, fmt.Errorf("implausible tid %d", tid)
	}
	n++
	ev := Event{
		TID:      int32(tid),
		Kind:     kind,
		Write:    b0&(1<<3) != 0,
		SyncKind: sim.SyncKind(b0 >> 4),
	}
	switch kind {
	case KAccess:
		da, m, err := uvarint(p[n:])
		if err != nil {
			return 0, err
		}
		n += m
		dsite, m, err := uvarint(p[n:])
		if err != nil {
			return 0, err
		}
		n += m
		la := ds.at(ev.TID)
		la.addr = uint64(int64(la.addr) + unzigzag(da))
		la.site = uint32(int64(la.site) + unzigzag(dsite))
		ev.Addr, ev.Site = memmodel.Addr(la.addr), shadow.SiteID(la.site)
	case KAcquire, KRelease:
		s, m, err := uvarint(p[n:])
		if err != nil {
			return 0, err
		}
		n += m
		ev.Sync = detect.SyncID(s)
	default: // KFork, KJoin
		o, m, err := uvarint(p[n:])
		if err != nil {
			return 0, err
		}
		if o > maxTID {
			return 0, fmt.Errorf("implausible thread id %d", o)
		}
		n += m
		ev.Other = int32(o)
	}
	*e = ev
	return n, nil
}

// uvarint decodes the varint at the start of p, returning errShort when p
// ends inside it.
func uvarint(p []byte) (uint64, int, error) {
	if len(p) > 0 && p[0] < 0x80 {
		return uint64(p[0]), 1, nil
	}
	v, n := binary.Uvarint(p)
	switch {
	case n > 0:
		return v, n, nil
	case n < 0 || len(p) >= binary.MaxVarintLen64:
		return 0, 0, errVarintOverflow
	}
	return 0, 0, errShort
}

// noEOF converts a bare io.EOF inside a record into ErrUnexpectedEOF: the
// header promised more events, so running dry mid-stream is truncation, not
// a clean end.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ReadFrom deserializes a trace written by WriteTo or WriteToV1. Events are
// decoded in batches straight into the free tail of the trace's last chunk.
func ReadFrom(r io.Reader) (*Trace, error) {
	sr, err := NewStreamReader(r)
	if err != nil {
		return nil, err
	}
	t := &Trace{Name: sr.Name()}
	if sr.total < chunkSize {
		// A short trace gets a chunk of its own size, not a full one.
		t.chunks = [][]Event{make([]Event, 0, sr.total)}
	}
	for sr.remaining > 0 {
		c := t.tail()
		n, err := sr.read((*c)[len(*c):cap(*c)])
		*c = (*c)[:len(*c)+n]
		if err != nil {
			// read already names the wire version, event index, and offset.
			return nil, err
		}
	}
	return t, nil
}
