// Package cache implements a set-associative cache model with LRU
// replacement. The HTM simulator uses one instance per transaction side
// (write set tracked in an L1-sized cache, read set in a larger structure)
// so that capacity aborts arise from the same mechanism as on real TSX
// hardware: a transactionally accessed line being evicted because its set
// fills up. Whether a given working set overflows therefore depends on the
// access pattern, not only on its total size — exactly the behaviour the
// paper's loop-cut optimization (§4.3) is designed around.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/memmodel"
)

// Cache is a set-associative cache of cache-line tags with per-set LRU
// replacement. It tracks presence only; there are no data payloads.
//
// All state lives in one backing array, slab: first the occupancy bitmap
// (one bit per set, set while the set holds any line), then one slot of
// 1+ways words per set — the set's line count followed by its tags ordered
// MRU-first. The bitmap lets Reset, which the HTM runs at every transaction
// begin, commit and abort, visit only the sets a transaction touched.
type Cache struct {
	sets    int
	ways    int
	occ     int // bitmap words at the front of slab
	slab    []memmodel.Line
	count   int
	onEvict func(memmodel.Line)
}

// New returns a cache with the given geometry. sets must be a power of two.
func New(sets, ways int) *Cache {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: sets %d must be a positive power of two", sets))
	}
	if ways <= 0 {
		panic(fmt.Sprintf("cache: ways %d must be positive", ways))
	}
	occ := (sets + 63) / 64
	return &Cache{sets: sets, ways: ways, occ: occ,
		slab: make([]memmodel.Line, occ+sets*(1+ways))}
}

// set returns set s's slot index in slab (its count word) and its lines.
func (c *Cache) set(s int) (base int, lines []memmodel.Line) {
	base = c.occ + s*(1+c.ways)
	return base, c.slab[base+1 : base+1+int(c.slab[base])]
}

// SetOnEvict registers fn to be called once for every line leaving the
// cache: the LRU victim of a Touch insertion into a full set, and each
// resident line dropped by Reset. The HTM's line-ownership directory hangs
// off this hook so a transaction's per-line claims are withdrawn exactly
// when the tracking structure stops holding the line — without walking any
// global state. A nil fn (the default) disables the callback.
func (c *Cache) SetOnEvict(fn func(memmodel.Line)) { c.onEvict = fn }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Capacity returns the total number of lines the cache can hold.
func (c *Cache) Capacity() int { return c.sets * c.ways }

// Len returns the number of lines currently resident.
func (c *Cache) Len() int { return c.count }

func (c *Cache) setOf(l memmodel.Line) int { return int(uint64(l) & uint64(c.sets-1)) }

// Contains reports whether line l is resident. It does not update LRU order.
func (c *Cache) Contains(l memmodel.Line) bool {
	_, set := c.set(c.setOf(l))
	for _, x := range set {
		if x == l {
			return true
		}
	}
	return false
}

// Touch inserts line l (or refreshes it to MRU if already resident). If the
// insertion evicts a line, Touch returns that line and true. For the HTM
// this is the capacity-abort trigger: a transactional line falling out of
// the tracking structure means the transaction can no longer be validated.
func (c *Cache) Touch(l memmodel.Line) (evicted memmodel.Line, ok bool) {
	s := c.setOf(l)
	base, set := c.set(s)
	if len(set) > 0 && set[0] == l {
		// Already MRU — the common case for looping access patterns.
		return 0, false
	}
	// Sets hold at most a handful of ways, so MRU moves shift entries with a
	// plain backward loop: for these sizes the loop beats the memmove call a
	// copy would compile to.
	for i, x := range set {
		if x == l {
			for ; i > 0; i-- {
				set[i] = set[i-1]
			}
			set[0] = l
			return 0, false
		}
	}
	if len(set) < c.ways {
		if len(set) == 0 {
			c.slab[s/64] |= 1 << (s % 64)
		}
		set = c.slab[base+1 : base+2+len(set)]
		for i := len(set) - 1; i > 0; i-- {
			set[i] = set[i-1]
		}
		set[0] = l
		c.slab[base]++
		c.count++
		return 0, false
	}
	evicted = set[len(set)-1]
	for i := len(set) - 1; i > 0; i-- {
		set[i] = set[i-1]
	}
	set[0] = l
	if c.onEvict != nil {
		c.onEvict(evicted)
	}
	return evicted, true
}

// Reset empties the cache. The HTM resets its tracking structures at every
// transaction begin, commit and abort. The eviction callback (if any) fires
// for each line that was resident, in ascending set order and MRU-first
// within each set, so hooked bookkeeping sees every departure. Only the
// occupied sets are visited.
func (c *Cache) Reset() {
	for w, word := range c.slab[:c.occ] {
		for m := uint64(word); m != 0; m &= m - 1 {
			base, set := c.set(w*64 + bits.TrailingZeros64(m))
			if c.onEvict != nil {
				for _, l := range set {
					c.onEvict(l)
				}
			}
			c.slab[base] = 0
		}
		c.slab[w] = 0
	}
	c.count = 0
}

// Resident returns all resident lines in unspecified order. Used by the HTM
// to enumerate a transaction's read/write set when checking strong-isolation
// conflicts from non-transactional code.
func (c *Cache) Resident() []memmodel.Line {
	out := make([]memmodel.Line, 0, c.count)
	for s := 0; s < c.sets; s++ {
		_, set := c.set(s)
		out = append(out, set...)
	}
	return out
}
