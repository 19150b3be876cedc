package server

import (
	"runtime"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/trace"
)

// sessionBytes returns the bytes one 8-shard session allocates to detect a
// fork and one write at addr, averaged over a few sessions.
func sessionBytes(addr memmodel.Addr) uint64 {
	run := func() {
		sess := NewSession(SessionConfig{Shards: 8, Workers: 2})
		sess.Feed(trace.Event{Kind: trace.KFork, TID: 0, Other: 1})
		sess.Feed(trace.Event{Kind: trace.KAccess, TID: 1, Write: true, Site: 1, Addr: addr})
		sess.Finish("bounded")
	}
	const runs = 4
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestSessionHostileAddressBounded pins the shadow directory bound at the
// server boundary: one access at any address a client can send costs a
// session under 1 MB, not a directory sized to the address.
func TestSessionHostileAddressBounded(t *testing.T) {
	for _, a := range []memmodel.Addr{1 << 20, 1 << 30, 1<<35 - 8, 1 << 36, 1 << 62} {
		if got := sessionBytes(a); got >= 1e6 {
			t.Errorf("one access at %#x: session allocated %d B, want < 1 MB", uint64(a), got)
		}
	}
}

// sessionMallocs returns the heap objects one lossless 4-shard session
// allocates from NewSession to Finish on tr.
func sessionMallocs(tr *trace.Trace) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sess := NewSession(SessionConfig{Shards: 4, Workers: 2, BatchSize: 16, QueueBatches: 1})
	tr.ForEach(sess.Feed)
	sess.Finish(tr.Name)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestSessionAllocationBounded pins snapshot recycling: once a session is
// warm, a sync event costs no allocation, so a lock-heavy trace four times
// as long makes about as many objects. Without recycling every retired
// thread clock is a new one, and the count grows with the sync events.
func TestSessionAllocationBounded(t *testing.T) {
	const n = 40 * blockEvents
	short := sessionMallocs(syncEachAccessTrace(7, 8, n))
	long := sessionMallocs(syncEachAccessTrace(7, 8, 4*n))
	if long*4 >= short*5 {
		t.Fatalf("%d events: %d mallocs; %d events: %d mallocs, want under 1.25x", n, short, 4*n, long)
	}
}
