package sim

// The workload builder interns synchronization objects into small dense
// SyncIDs (handed out sequentially from 1), so the engine keeps its
// mutex/rwlock/semaphore/barrier/condvar state in direct-indexed slices: the
// lookup on every sync instruction is an array index instead of a map probe.
// IDs outside the dense range (hand-built programs are free to use any
// uint32) fall back to a lazily created map.
const denseSyncLimit = 1 << 16

// syncTable maps SyncIDs to sync-object state of type T. The zero value is an
// empty table.
type syncTable[T any] struct {
	dense  []*T
	sparse map[SyncID]*T
}

// get returns the state for id, allocating a zero value on first use. The
// interned case is a bounds check and an index, small enough to inline into
// the interpreter's sync instructions.
func (st *syncTable[T]) get(id SyncID) *T {
	if int(id) < len(st.dense) {
		if v := st.dense[id]; v != nil {
			return v
		}
	}
	return st.intern(id)
}

// intern creates the state for id on first use.
func (st *syncTable[T]) intern(id SyncID) *T {
	if id < denseSyncLimit {
		if int(id) >= len(st.dense) {
			nd := make([]*T, int(id)+1)
			copy(nd, st.dense)
			st.dense = nd
		}
		v := st.dense[id]
		if v == nil {
			v = new(T)
			st.dense[id] = v
		}
		return v
	}
	if st.sparse == nil {
		st.sparse = make(map[SyncID]*T)
	}
	v := st.sparse[id]
	if v == nil {
		v = new(T)
		st.sparse[id] = v
	}
	return v
}

// presize grows the dense index once so per-instruction lookups never resize.
func (st *syncTable[T]) presize(maxID SyncID) {
	if maxID >= denseSyncLimit {
		maxID = denseSyncLimit - 1
	}
	if int(maxID) >= len(st.dense) {
		nd := make([]*T, int(maxID)+1)
		copy(nd, st.dense)
		st.dense = nd
	}
}

// maxSyncID scans a program for the largest SyncID it references, so the
// engine can intern the whole id space into dense tables before execution.
func maxSyncID(p *Program) SyncID {
	var max SyncID
	note := func(id SyncID) {
		if id > max && id < denseSyncLimit {
			max = id
		}
	}
	var walk func(body []Instr)
	walk = func(body []Instr) {
		for _, in := range body {
			switch in := in.(type) {
			case *Lock:
				note(in.M)
			case *Unlock:
				note(in.M)
			case *RLock:
				note(in.M)
			case *RUnlock:
				note(in.M)
			case *WLock:
				note(in.M)
			case *WUnlock:
				note(in.M)
			case *Signal:
				note(in.C)
			case *Wait:
				note(in.C)
			case *CondWait:
				note(in.C)
				note(in.M)
			case *CondSignal:
				note(in.C)
			case *CondBroadcast:
				note(in.C)
			case *Barrier:
				note(in.B)
			case *Loop:
				walk(in.Body)
			}
		}
	}
	walk(p.Setup)
	for _, w := range p.Workers {
		walk(w)
	}
	walk(p.Teardown)
	return max
}
