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

// Serialization. There is one wire format, version 2. The header is
//
//	magic "TXTR" | version u16 | name len u16 | name | event count u64
//
// and the events that follow are varint + per-thread delta coded. Each
// event is:
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
// same few static sites, so most access events fit in 3–5 bytes. The
// header keeps its version field so that a reader rejects any other
// version with one line.
const (
	magic    = "TXTR"
	version2 = 2

	// maxEvents bounds what a header may claim, so corrupt counts fail
	// fast instead of looping for 2^64 records.
	maxEvents = 1 << 30
	// maxTID bounds thread ids the decoders accept: the v2 per-thread
	// delta state and every detector's thread clocks are indexed by tid,
	// and a hostile stream must not make them allocate gigabytes.
	maxTID = 1 << 22
)

// WriteTo serializes the trace in wire v2.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: bufio.NewWriter(w)}
	if err := t.writeHeader(cw); err != nil {
		return cw.n, err
	}
	if err := t.writeEventsV2(cw); err != nil {
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

func (t *Trace) writeHeader(w io.Writer) error {
	if _, err := w.Write([]byte(magic)); err != nil {
		return err
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint16(hdr[0:], version2)
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
// start detecting. It reads the header eagerly (so Name and Total are
// available immediately) and then yields events until the declared count is
// exhausted.
type StreamReader struct {
	cr        *countingReader
	br        *bufio.Reader
	name      string
	total     uint64
	remaining uint64 // events not yet decoded
	ds        deltaState

	// ahead[pos:] are events Next decoded ahead of its caller; err is the
	// decode error that stopped the decoding after them.
	ahead []Event
	pos   int
	err   error
}

// aheadEvents bounds how many events Next decodes ahead: about one
// default bufio window of 3-5 byte events.
const aheadEvents = 1024

// NewStreamReader reads the trace header from r and returns a reader
// positioned at the first event. Only wire v2 is accepted; any other
// version fails with one line naming it.
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
	if v != version2 {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	nameLen := binary.LittleEndian.Uint16(head[2:])
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: wire v2: reading name at offset %d: %w", offset(), err)
	}
	var cnt [8]byte
	if _, err := io.ReadFull(br, cnt[:]); err != nil {
		return nil, fmt.Errorf("trace: wire v2: reading count at offset %d: %w", offset(), err)
	}
	n := binary.LittleEndian.Uint64(cnt[:])
	if n > maxEvents {
		return nil, fmt.Errorf("trace: wire v2: implausible event count %d", n)
	}
	return &StreamReader{cr: cr, br: br, name: string(name), total: n, remaining: n}, nil
}

// Name returns the recorded trace's name.
func (sr *StreamReader) Name() string { return sr.name }

// Total returns the event count the header declared.
func (sr *StreamReader) Total() uint64 { return sr.total }

// Offset returns the byte offset of the next undecoded byte. Next decodes
// events ahead of the ones it has returned, so between events this may run
// ahead of the caller; on a decode error it is the first byte of the event
// that failed.
func (sr *StreamReader) Offset() int64 { return sr.cr.n - int64(sr.br.Buffered()) }

// Next returns the next event, or io.EOF once the declared count has been
// delivered. Any other error means a malformed or truncated stream; the
// error names the wire version, the event index and the byte offset of the
// failure, and comes after every event decoded before it.
func (sr *StreamReader) Next() (Event, error) {
	if sr.pos < len(sr.ahead) {
		sr.pos++
		return sr.ahead[sr.pos-1], nil
	}
	return sr.decodeAhead()
}

// decodeAhead refills ahead and returns its first event. A refill decodes
// every whole event already buffered, so Next pays the decode loop's set-up
// once per window rather than once per event.
func (sr *StreamReader) decodeAhead() (Event, error) {
	if sr.err != nil {
		return Event{}, sr.err
	}
	if sr.remaining == 0 {
		return Event{}, io.EOF
	}
	if sr.ahead == nil {
		sr.ahead = make([]Event, min(aheadEvents, sr.remaining))
	}
	n, err := sr.read(sr.ahead[:cap(sr.ahead)])
	sr.ahead, sr.pos, sr.err = sr.ahead[:n], 0, err
	return sr.Next()
}

// read decodes up to min(len(dst), remaining) events into dst and returns
// how many it delivered, with the error that stopped it after them, if
// any. Events are decoded in place, straight from bufio's buffered
// window, one decodeV2 call per window. read waits for more bytes only
// when not one whole event is buffered, and then through gatherV2, so it
// never waits for a byte past an event it could deliver.
func (sr *StreamReader) read(dst []Event) (int, error) {
	if uint64(len(dst)) > sr.remaining {
		dst = dst[:sr.remaining]
	}
	n := 0
	for n < len(dst) {
		p, _ := sr.br.Peek(sr.br.Buffered())
		off, m, err := decodeV2(p, &sr.ds, dst[n:])
		sr.br.Discard(off)
		n += m
		sr.remaining -= uint64(m)
		if err == errShort {
			if n > 0 {
				break
			}
			if err = sr.gatherV2(len(p)-off, dst[n:n+1]); err == nil {
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
	return fmt.Errorf("trace: wire v2: event %d at offset %d: %w",
		sr.total-sr.remaining, start, err)
}

// gatherV2 decodes into dst, one event long, the event the buffered window
// cuts short after have bytes. It grows the window one byte at a time and
// retries, so it never waits for a byte past the event's own: a client
// that streams a whole trace and then waits for its report, without
// half-closing, must get the report. Every retry decodes from decodeV2's
// padded tail, as the window stays shorter than maxEventV2. The event's
// bytes are consumed only on success.
func (sr *StreamReader) gatherV2(have int, dst []Event) error {
	for ; ; have++ {
		p, err := sr.br.Peek(have + 1)
		if err != nil {
			if have == 0 {
				return fmt.Errorf("truncated record: %w", noEOF(err))
			}
			return fmt.Errorf("truncated varint: %w", noEOF(err))
		}
		off, _, err := decodeV2(p, &sr.ds, dst)
		if err != errShort {
			if err == nil {
				sr.br.Discard(off)
			}
			return err
		}
	}
}

// maxEventV2 is the longest v2 event: the flags byte and three varints.
// decodeV2 reads every event from a maxEventV2-byte view, so no field
// needs its own length check, and it never reports errShort on a window
// at least this long: gatherV2 runs only while fewer bytes than this are
// buffered.
const maxEventV2 = 1 + 3*binary.MaxVarintLen64

var (
	// errShort reports that the window ends inside the event.
	errShort          = errors.New("event runs past the buffered bytes")
	errVarintOverflow = errors.New("varint overflows 64 bits")
)

// decodeV2 decodes the v2 events at the start of p into dst, stopping when
// dst is full, and returns the bytes and events it delivered with the
// error that stopped it early, if any. It returns errShort when p ends
// inside (or right before) the next event; any other error is a
// malformation no further bytes can mend, reported as soon as the bytes
// before it settle it. An event writes dst and ds only once it has decoded
// whole, so a short decode can be retried on a longer window and every way
// of cutting a stream into reads decodes it alike.
//
// Each event is decoded from a view of maxEventV2 bytes, the longest an
// event can be, so no field read checks the length. While maxEventV2 or
// more bytes remain the view is a slice of p; the last few events of a
// window are decoded from a zero-padded copy of its tail. A zero ends any
// varint, so a field cut by the window's end ends inside the padding, and
// the one check after each varint, that its end index lies within the
// real bytes, turns it into errShort before any range check sees the
// padded value.
func decodeV2(p []byte, ds *deltaState, dst []Event) (off, n int, err error) {
	var pad [maxEventV2]byte
	for ; n < len(dst); n++ {
		q, avail := p[off:], len(p)-off
		if avail < maxEventV2 {
			if avail == 0 {
				return off, n, errShort
			}
			clear(pad[copy(pad[:], q):])
			q = pad[:]
		}
		q = q[:maxEventV2] // the same fixed-length view on both paths
		b0 := q[0]
		kind := Kind(b0 & 7)
		if kind >= kindCount {
			return off, n, fmt.Errorf("invalid event kind %d", kind)
		}
		if b0 >= 0x80 {
			// Sync kinds are 3 bits wide on the wire.
			return off, n, fmt.Errorf("invalid sync kind %d", b0>>4)
		}
		tid, i := uint64(q[1]), 2
		if tid >= 0x80 {
			tid, i = varintLong(q, 1)
		}
		// One unsigned compare catches both an overflowed varint (i < 0)
		// and one that ends past the real bytes.
		if uint(i) > uint(avail) {
			return off, n, endErr(i)
		}
		if tid > maxTID {
			return off, n, fmt.Errorf("implausible tid %d", tid)
		}
		// The first payload varint: an access's address delta, or the
		// sync or thread id. Most take 1 or 2 bytes.
		var v uint64
		if b := q[i]; b < 0x80 {
			v, i = uint64(b), i+1
		} else if c := q[i+1]; c < 0x80 {
			v, i = uint64(b&0x7f)|uint64(c)<<7, i+2
		} else {
			v, i = varintLong(q, i)
		}
		if uint(i) > uint(avail) {
			return off, n, endErr(i)
		}
		e := Event{
			TID:      int32(tid),
			Kind:     kind,
			Write:    b0&(1<<3) != 0,
			SyncKind: sim.SyncKind(b0 >> 4),
		}
		switch kind {
		case KAccess:
			var dsite uint64
			if b := q[i]; b < 0x80 {
				dsite, i = uint64(b), i+1
			} else if c := q[i+1]; c < 0x80 {
				dsite, i = uint64(b&0x7f)|uint64(c)<<7, i+2
			} else {
				dsite, i = varintLong(q, i)
			}
			if uint(i) > uint(avail) {
				return off, n, endErr(i)
			}
			la := ds.at(e.TID)
			la.addr = uint64(int64(la.addr) + unzigzag(v))
			la.site = uint32(int64(la.site) + unzigzag(dsite))
			e.Addr, e.Site = memmodel.Addr(la.addr), shadow.SiteID(la.site)
		case KAcquire, KRelease:
			e.Sync = detect.SyncID(v)
		default: // KFork, KJoin
			if v > maxTID {
				return off, n, fmt.Errorf("implausible thread id %d", v)
			}
			e.Other = int32(v)
		}
		dst[n] = e
		off += i
	}
	return off, n, nil
}

// varintLong decodes the varint at q[i:], which holds at least
// binary.MaxVarintLen64 bytes, and returns it with its end index, or -1
// when it overflows 64 bits. decodeV2 inlines the common short forms and
// calls it for the rest.
func varintLong(q []byte, i int) (uint64, int) {
	v, m := binary.Uvarint(q[i : i+binary.MaxVarintLen64])
	if m <= 0 {
		return 0, -1
	}
	return v, i + m
}

// endErr is the error for a varint whose end index i is not within the
// real bytes: -1 marks an overflow, anything else runs past the window.
func endErr(i int) error {
	if i < 0 {
		return errVarintOverflow
	}
	return errShort
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

// ReadFrom deserializes a trace written by WriteTo. Events are decoded in
// batches straight into the free tail of the trace's last chunk.
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
