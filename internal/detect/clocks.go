package detect

import "repro/internal/clock"

// Clocks is the happens-before clock half of the FastTrack detector: one
// vector clock per thread and one per sync object, advanced by the sync
// events. Detector composes it with a Checker; the sharded server's router
// uses it alone and hands each access a Snapshot of its thread's clock.
//
// Snapshots are copy-on-write: handing one out marks the clock shared, and
// the next sync operation that would mutate it retires it and continues on
// a copy (clock.Clone shares the immutable sparse base, so a copy is O(live
// entries)). Between two sync operations of a thread, all its accesses share
// one snapshot. Epoch-collapse is not part of this half: rebasing would
// mutate clocks snapshot holders still read, so only Detector, which hands
// none out, collapses.
//
// A retired clock is recycled once its holders are done: the caller of
// Snapshot reports progress through Recycle, and the copy a later mutation
// needs is assigned into a recycled clock instead of allocated. Detector
// hands out no snapshots, so it retires nothing.
type Clocks struct {
	threads  []*clock.VC
	shared   []bool // threads[i] has outstanding snapshots
	syncs    vcTable
	refDense bool
	stats    *clock.Stats // shared by every clock this half creates
	buf      []*clock.VC

	// retired holds the clocks mutable replaced, oldest first; the first
	// tagged of them carry the Recycle time they were retired by, the rest
	// were retired since the last Recycle. free holds recycled clocks.
	retired []retiredClock
	tagged  int
	free    []*clock.VC
}

// retiredClock is a thread clock snapshot holders may still read: every
// holder's index is below at.
type retiredClock struct {
	vc *clock.VC
	at uint64
}

// NewClocks returns an empty clock half with sparse clocks.
func NewClocks() *Clocks {
	k := new(Clocks)
	k.setup(false)
	return k
}

func (k *Clocks) setup(refDense bool) {
	k.refDense, k.stats = refDense, new(clock.Stats)
	if !refDense {
		k.syncs.mk = k.newClock
	}
}

// newClock builds a sync clock in the configured representation.
func (k *Clocks) newClock() *clock.VC {
	if k.refDense {
		return clock.New(0)
	}
	return clock.NewSparse(k.stats)
}

// NumThreads returns the thread-slice length, the capacity hint for
// shadow.Memory.Inflate (capacity only; it never affects results).
func (k *Clocks) NumThreads() int { return len(k.threads) }

// thread returns tid's current clock for reading. The lookup of an
// existing clock is small enough to inline into the per-access path.
func (k *Clocks) thread(tid clock.TID) *clock.VC {
	if int(tid) < len(k.threads) && k.threads[tid] != nil {
		return k.threads[tid]
	}
	return k.newThread(tid)
}

// newThread creates tid's clock, growing the thread slices to hold it.
func (k *Clocks) newThread(tid clock.TID) *clock.VC {
	if int(tid) >= len(k.threads) {
		nt := make([]*clock.VC, int(tid)+1)
		copy(nt, k.threads)
		k.threads = nt
		ns := make([]bool, int(tid)+1)
		copy(ns, k.shared)
		k.shared = ns
	}
	var v *clock.VC
	if k.refDense {
		v = clock.New(int(tid) + 1)
	} else {
		v = clock.NewSparse(k.stats)
	}
	v.Tick(tid) // a thread's own component starts at 1
	k.threads[tid] = v
	return v
}

// mutable returns tid's clock for in-place mutation. If a snapshot of it is
// still outstanding, the clock is retired and tid continues on a copy, made
// in a recycled clock when there is one.
func (k *Clocks) mutable(tid clock.TID) *clock.VC {
	v := k.thread(tid)
	if k.shared[tid] {
		k.retired = append(k.retired, retiredClock{vc: v})
		if n := len(k.free); n > 0 {
			c := k.free[n-1]
			k.free = k.free[:n-1]
			c.Assign(v)
			v = c
		} else {
			v = v.Clone()
		}
		k.threads[tid] = v
		k.shared[tid] = false
	}
	return v
}

// Recycle tags every clock retired since the last call with now, an upper
// bound on the index of every snapshot holder, and recycles every retired
// clock tagged at or below done: the caller promises that every holder
// below done has finished reading its snapshot. Indices are the caller's;
// both arguments must not decrease from call to call.
func (k *Clocks) Recycle(now, done uint64) {
	for i := k.tagged; i < len(k.retired); i++ {
		k.retired[i].at = now
	}
	n := 0
	for n < len(k.retired) && k.retired[n].at <= done {
		k.free = append(k.free, k.retired[n].vc)
		n++
	}
	k.tagged = copy(k.retired, k.retired[n:])
	clear(k.retired[k.tagged:])
	k.retired = k.retired[:k.tagged]
}

// Snapshot returns tid's current clock as an immutable snapshot: the caller
// may read it concurrently, and this half never mutates it again.
func (k *Clocks) Snapshot(tid clock.TID) *clock.VC {
	v := k.thread(tid)
	k.shared[tid] = true
	return v
}

// Fork records that parent spawned child: the child inherits everything the
// parent has seen so far.
func (k *Clocks) Fork(parent, child clock.TID) {
	p, c := k.mutable(parent), k.mutable(child)
	c.Join(p)
	c.Tick(child)
	p.Tick(parent)
}

// Join records that parent observed child's termination.
func (k *Clocks) Join(parent, child clock.TID) {
	p, c := k.mutable(parent), k.mutable(child)
	p.Join(c)
	c.Tick(child)
}

// JoinAllChildren records parent observing the termination of every child in
// one batched operation: with sparse clocks the N-way merge is a single
// tournament over the sorted entry lists (clock.JoinAll) instead of N
// sequential O(T) joins. Semantically identical to calling Join per child.
func (k *Clocks) JoinAllChildren(parent clock.TID, children []clock.TID) {
	p := k.mutable(parent)
	k.buf = k.buf[:0]
	for _, c := range children {
		k.buf = append(k.buf, k.thread(c))
	}
	clock.JoinAll(p, k.buf)
	for _, c := range children {
		k.mutable(c).Tick(c)
	}
}

// Acquire records tid synchronizing-with prior releases of s (lock acquire,
// condition wait return, barrier departure).
func (k *Clocks) Acquire(tid clock.TID, s SyncID) {
	k.mutable(tid).Join(k.syncs.get(s))
}

// Release records tid publishing its history through s (lock release,
// signal, barrier arrival). The sync clock joins rather than assigns so the
// same primitive serves mutexes, semaphore-style condvars, and barriers
// without manufacturing false happens-before edges.
func (k *Clocks) Release(tid clock.TID, s SyncID) {
	t := k.mutable(tid)
	k.syncs.get(s).Join(t)
	t.Tick(tid)
}
