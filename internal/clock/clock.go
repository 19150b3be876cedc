// Package clock provides the vector clocks and FastTrack epochs used by the
// slow-path happens-before race detector (§5 of the paper; algorithm after
// Flanagan & Freund's FastTrack and Google's ThreadSanitizer).
//
// A vector clock VC maps each thread to the count of that thread's completed
// synchronization intervals. An Epoch c@t is the lightweight scalar FastTrack
// uses for the overwhelmingly common same-thread and totally-ordered cases.
package clock

import "fmt"

// TID identifies a simulated thread. Thread ids are small dense integers
// assigned in spawn order, so vector clocks are slices indexed by TID.
type TID int32

// Time is one component of a vector clock.
type Time uint32

// Epoch packs a (thread, time) pair: the scalar clock FastTrack stores for
// a variable's last write and, in the common case, its last read.
type Epoch uint64

// NoEpoch is the zero epoch, meaning "never accessed".
const NoEpoch Epoch = 0

// MakeEpoch builds the epoch t@tid. Time zero is reserved so that NoEpoch is
// distinguishable; thread clocks start at 1.
func MakeEpoch(tid TID, t Time) Epoch {
	return Epoch(uint64(tid)<<32 | uint64(t))
}

// TID returns the thread component of e.
func (e Epoch) TID() TID { return TID(e >> 32) }

// Time returns the clock component of e.
func (e Epoch) Time() Time { return Time(e & 0xffffffff) }

// String renders e in FastTrack's c@t notation.
func (e Epoch) String() string {
	if e == NoEpoch {
		return "⊥"
	}
	return fmt.Sprintf("%d@%d", e.Time(), e.TID())
}

// VC is a grow-on-demand vector clock. The zero value is the all-zeros clock
// in the dense representation. NewSparse builds the sparse/delta form
// (sparse.go): sorted tid→Time entries overriding a shared dense Base, with
// automatic promotion back to the dense form past a density threshold. Both
// forms answer the same API with identical semantics.
type VC struct {
	t []Time // dense components (dense mode)

	sparse  bool    // representation flag; see sparse.go
	s       []entry // sorted explicit components, overriding base
	scratch []entry // spare entry array recycled by merges (never aliases s)
	base    *Base   // shared dense reference vector (nil = all-zeros bottom)
	span    int     // upper bound on live component count, for promotion ratio
	st      *Stats  // shared transition counters; marks sparse-capable clocks
}

// New returns a vector clock with capacity for n threads.
func New(n int) *VC { return &VC{t: make([]Time, n)} }

// Get returns the component for tid (zero if beyond current length).
func (v *VC) Get(tid TID) Time {
	if v.sparse {
		return v.sGet(tid)
	}
	if int(tid) >= len(v.t) {
		return 0
	}
	return v.t[tid]
}

// Set assigns component tid, growing the clock as needed.
func (v *VC) Set(tid TID, t Time) {
	if v.sparse {
		v.sSet(tid, t)
		return
	}
	v.grow(int(tid) + 1)
	v.t[tid] = t
}

// Tick increments component tid and returns the new value. A thread ticks
// its own component at every lock release / signal / fork, opening a new
// synchronization interval.
func (v *VC) Tick(tid TID) Time {
	if v.sparse {
		nt := v.sGet(tid) + 1
		v.sSet(tid, nt)
		return nt
	}
	v.grow(int(tid) + 1)
	v.t[tid]++
	return v.t[tid]
}

func (v *VC) grow(n int) {
	if len(v.t) >= n {
		return
	}
	if cap(v.t) >= n {
		// Re-extending into capacity must zero explicitly: Clear may have
		// truncated over stale components.
		old := len(v.t)
		v.t = v.t[:n]
		for i := old; i < n; i++ {
			v.t[i] = 0
		}
		return
	}
	nt := make([]Time, n)
	copy(nt, v.t)
	v.t = nt
}

// Clear resets v to the all-zeros clock of n components, reusing backing
// arrays when large enough. The shadow-memory read-vector pool uses it to
// recycle clocks without reallocating. Sparse-capable clocks (created by
// NewSparse with a Stats) reset to the empty sparse form even if they had
// promoted to dense, so a recycled clock can never leak stale high-tid
// entries and stays cheap to re-inflate at large thread counts.
func (v *VC) Clear(n int) {
	if v.sparse || v.st != nil {
		v.sparse = true
		v.s = v.emptyEntries()
		v.base = nil
		v.span = n
		v.t = v.t[:0]
		return
	}
	if cap(v.t) < n {
		v.t = make([]Time, n)
		return
	}
	v.t = v.t[:n]
	for i := range v.t {
		v.t[i] = 0
	}
}

// emptyEntries returns v's entry array emptied for refilling. A promotion
// leaves v.s nil and its array in scratch; that array is taken back, so a
// clock that cycles between the two forms keeps its arrays.
func (v *VC) emptyEntries() []entry {
	if v.s == nil {
		v.s, v.scratch = v.scratch, nil
	}
	return v.s[:0]
}

// Len returns the number of components currently materialized: the dense
// length, or the number of explicit entries of a sparse clock — which after
// an epoch-collapse tracks live threads, not peak TIDs.
func (v *VC) Len() int {
	if v.sparse {
		return len(v.s)
	}
	return len(v.t)
}

// Join sets v to the component-wise maximum of v and o: the happens-before
// transfer performed at lock acquire / wait / join.
func (v *VC) Join(o *VC) {
	if !v.sparse && !o.sparse {
		v.grow(len(o.t))
		for i, t := range o.t {
			if t > v.t[i] {
				v.t[i] = t
			}
		}
		return
	}
	if !v.sparse {
		if o.base != nil && v.st != nil {
			// dense ← based-sparse: folding o costs O(base span) via
			// ForEach on every join, forever — a clock that promoted
			// before the first collapse would otherwise never heal. Pay
			// one O(span) pass to express the join result against o's
			// base and return to sparse form.
			v.adoptJoin(o)
			return
		}
		// dense ← baseless sparse: fold o's entries in.
		o.ForEach(func(tid TID, t Time) {
			if t > v.Get(tid) {
				v.Set(tid, t)
			}
		})
		return
	}
	if !o.sparse {
		// sparse ← dense: the dense side carries no base to merge against;
		// fold its nonzero components in one at a time. Folding (rather
		// than promoting v) keeps density from spreading virally through
		// join chains — v promotes only if its own density threshold says
		// so, via the sSet inside.
		if v.st != nil {
			v.st.Fallbacks++
		}
		if n := len(o.t); n > v.span {
			v.span = n
		}
		// Get/Set dispatch on representation: sSet may promote v mid-fold
		// once the added entries cross its density threshold.
		o.ForEach(func(tid TID, t Time) {
			if t > v.Get(tid) {
				v.Set(tid, t)
			}
		})
		return
	}
	if baseLeq(v.base, o.base) || baseLeq(o.base, v.base) {
		v.joinSparse(o)
		return
	}
	// Unrelated lineages: no order known between the bases; fold o's
	// components in one at a time.
	if v.st != nil {
		v.st.Fallbacks++
	}
	o.ForEach(func(tid TID, t Time) {
		if t > v.Get(tid) {
			v.Set(tid, t)
		}
	})
}

// Assign copies o's value (and representation) into v, reusing v's arrays:
// assigned into a retired clock of the same Stats, it is an allocation-free
// Clone.
func (v *VC) Assign(o *VC) {
	v.span = o.span
	if o.sparse {
		v.sparse = true
		v.t = v.t[:0]
		v.s = append(v.emptyEntries(), o.s...)
		v.base = o.base
		return
	}
	v.sparse = false
	v.s = v.s[:0]
	v.base = nil
	v.t = append(v.t[:0], o.t...)
}

// Clone returns an independent copy of v.
func (v *VC) Clone() *VC {
	c := &VC{sparse: v.sparse, base: v.base, span: v.span, st: v.st}
	if v.sparse {
		c.s = append([]entry(nil), v.s...)
	} else {
		c.t = append([]Time(nil), v.t...)
	}
	return c
}

// Epoch returns tid's current epoch in v.
func (v *VC) Epoch(tid TID) Epoch { return MakeEpoch(tid, v.Get(tid)) }

// LeqEpoch reports e ⊑ v: whether the event stamped e happens before (or is)
// the point whose clock is v. This is FastTrack's O(1) ordering test.
func (v *VC) LeqEpoch(e Epoch) bool {
	if e == NoEpoch {
		return true
	}
	return e.Time() <= v.Get(e.TID())
}

// Leq reports whether v ⊑ o component-wise.
func (v *VC) Leq(o *VC) bool {
	if !v.sparse && !o.sparse {
		for i, t := range v.t {
			if t > o.Get(TID(i)) {
				return false
			}
		}
		return true
	}
	ok := true
	v.ForEach(func(tid TID, t Time) {
		if t > o.Get(tid) {
			ok = false
		}
	})
	return ok
}

// Concurrent reports whether neither clock is ordered before the other.
func (v *VC) Concurrent(o *VC) bool { return !v.Leq(o) && !o.Leq(v) }

// String renders the clock as [t0 t1 ...], materializing sparse clocks.
func (v *VC) String() string {
	if !v.sparse {
		return fmt.Sprint(v.t)
	}
	n := v.span
	if b := v.base.Len(); b > n {
		n = b
	}
	if k := len(v.s); k > 0 && int(v.s[k-1].tid)+1 > n {
		n = int(v.s[k-1].tid) + 1
	}
	out := make([]Time, n)
	if v.base != nil {
		copy(out, v.base.t)
	}
	for _, e := range v.s {
		out[e.tid] = e.t
	}
	return fmt.Sprint(out)
}
