package server

import (
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/detect"
	"repro/internal/instrument"
	"repro/internal/memmodel"
	"repro/internal/shadow"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// recordTrace records a workload execution, like cmd/txtrace does.
func recordTrace(t testing.TB, name string, seed uint64) *trace.Trace {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	built := w.Build(4, 1)
	rec := trace.NewRecorder(name)
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

// requireIdentical asserts a sharded report reproduces the reference
// detector's race list byte-for-byte, in order.
func requireIdentical(t *testing.T, label string, ref *detect.Detector, got *Report) {
	t.Helper()
	want := ref.Races()
	have := got.Races()
	if len(have) != len(want) {
		t.Fatalf("%s: %d races, reference %d", label, len(have), len(want))
	}
	for i := range want {
		if have[i] != want[i] {
			t.Fatalf("%s: race %d differs:\n  got  %+v\n  want %+v", label, i, have[i], want[i])
		}
	}
	if got.Checks != ref.Checks {
		t.Fatalf("%s: analyzed %d accesses, reference %d", label, got.Checks, ref.Checks)
	}
}

// TestShardedMatchesReference: on real recorded workloads, the sharded
// detector must produce the byte-identical race list (same races, same
// first-detection order) as the sequential detector, at every shard count
// and every worker count.
func TestShardedMatchesReference(t *testing.T) {
	for _, name := range []string{"raytrace", "streamcluster", "freqmine", "x264"} {
		tr := recordTrace(t, name, 7)
		ref := trace.Replay(tr)
		for _, shards := range []int{1, 4, 8} {
			for _, jobs := range []int{1, 4} {
				rep, err := ReplaySharded(tr, shards, jobs)
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, fmt.Sprintf("%s shards=%d jobs=%d", name, shards, jobs), ref, rep)
			}
		}
	}
}

// synthTrace generates a randomized but deterministic trace: t threads
// hammering a small address range with a mix of plain, mutex-guarded and
// rwlock-guarded accesses plus fork/join edges, dense enough in races and
// shared-read inflations to exercise every branch of the per-shard
// FastTrack port.
func synthTrace(seed uint64, threads, events int) *trace.Trace {
	tr := &trace.Trace{Name: fmt.Sprintf("synth-%d", seed)}
	rng := seed
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	for c := 1; c < threads; c++ {
		tr.Append(trace.Event{Kind: trace.KFork, TID: 0, Other: int32(c)})
	}
	live := make([]bool, threads)
	for i := range live {
		live[i] = true
	}
	for i := 0; i < events; i++ {
		tid := int32(next(threads))
		if !live[tid] {
			continue
		}
		switch next(10) {
		case 0:
			tr.Append(trace.Event{Kind: trace.KAcquire, TID: tid, Sync: detect.SyncID(next(3))})
		case 1:
			tr.Append(trace.Event{Kind: trace.KRelease, TID: tid, Sync: detect.SyncID(next(3))})
		case 2:
			k := sim.SyncRead
			if next(2) == 0 {
				k = sim.SyncWrite
			}
			tr.Append(trace.Event{Kind: trace.KAcquire, TID: tid, Sync: 7, SyncKind: k})
			tr.Append(trace.Event{Kind: trace.KRelease, TID: tid, Sync: 7, SyncKind: k})
		case 3:
			if tid != 0 && next(40) == 0 {
				live[tid] = false
				tr.Append(trace.Event{Kind: trace.KJoin, TID: 0, Other: tid})
			}
		default:
			// Addresses span several shadow pages so every shard count
			// splits them differently.
			addr := memmodel.Addr(next(64) * 8 * (1 + next(40)*512))
			tr.Append(trace.Event{
				Kind: trace.KAccess, TID: tid, Write: next(3) == 0,
				Addr: addr, Site: shadow.SiteID(1 + next(32)),
			})
		}
	}
	return tr
}

// syncEachAccessTrace generates the worst case for snapshot recycling:
// every access follows a sync operation by its own thread, so each access
// holds a fresh snapshot and the thread's next sync operation retires it.
// Half the sync operations are releases and half acquires of three locks,
// so whether two accesses race depends on exactly which clock each one
// carries.
func syncEachAccessTrace(seed uint64, threads, events int) *trace.Trace {
	tr := &trace.Trace{Name: fmt.Sprintf("sync-each-access-%d", seed)}
	rng := seed
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	for c := 1; c < threads; c++ {
		tr.Append(trace.Event{Kind: trace.KFork, TID: 0, Other: int32(c)})
	}
	for tr.Len() < events {
		tid := int32(next(threads))
		kind := trace.KAcquire
		if next(2) == 0 {
			kind = trace.KRelease
		}
		tr.Append(trace.Event{Kind: kind, TID: tid, Sync: detect.SyncID(next(3))})
		tr.Append(trace.Event{
			Kind: trace.KAccess, TID: tid, Write: next(2) == 0,
			Addr: memmodel.Addr(next(16) * 8 * (1 + next(8)*512)), Site: shadow.SiteID(1 + next(32)),
		})
	}
	return tr
}

// TestShardedMatchesReferenceRandomized is the randomized differential
// suite: synthetic race-dense traces, several seeds, shards=1/4/8 ×
// jobs=1/4, all compared byte-for-byte against the sequential reference.
func TestShardedMatchesReferenceRandomized(t *testing.T) {
	totalRaces := 0
	for seed := uint64(1); seed <= 6; seed++ {
		tr := synthTrace(seed, 8, 4000)
		ref := trace.Replay(tr)
		totalRaces += ref.RaceCount()
		for _, shards := range []int{1, 4, 8} {
			for _, jobs := range []int{1, 4} {
				rep, err := ReplaySharded(tr, shards, jobs)
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, fmt.Sprintf("seed=%d shards=%d jobs=%d", seed, shards, jobs), ref, rep)
			}
		}
	}
	if totalRaces < 10 {
		t.Fatalf("synthetic traces found only %d races; suite is near-vacuous", totalRaces)
	}
}

// TestSnapshotIsolation pins the copy-on-write contract of detect's clock
// half on every path that mutates a thread clock: a snapshot handed out
// before the operation must not observe it, and the live clock must carry
// it exactly as on clocks that never handed out a snapshot.
func TestSnapshotIsolation(t *testing.T) {
	setup := func() *detect.Clocks {
		k := detect.NewClocks()
		for c := clock.TID(1); c <= 3; c++ {
			k.Fork(0, c)
		}
		k.Release(2, 5)
		k.ReleaseKind(2, 6, sim.SyncWrite)
		k.ReleaseKind(3, 6, sim.SyncRead)
		return k
	}
	cases := []struct {
		name string
		tid  clock.TID // the snapshotted thread
		tick bool      // the operation advances tid's own component by one
		op   func(k *detect.Clocks)
	}{
		{"fork/parent", 1, true, func(k *detect.Clocks) { k.Fork(1, 4) }},
		{"fork/child", 4, false, func(k *detect.Clocks) { k.Fork(1, 4) }},
		{"join", 1, false, func(k *detect.Clocks) { k.Join(1, 2) }},
		{"acquire", 1, false, func(k *detect.Clocks) { k.Acquire(1, 5) }},
		// A write hold joins both sides of the rwlock: two mutations, one
		// clone.
		{"rwlock-write-acquire", 1, false, func(k *detect.Clocks) { k.AcquireKind(1, 6, sim.SyncWrite) }},
		{"release", 1, true, func(k *detect.Clocks) { k.Release(1, 7) }},
		{"read-release", 1, true, func(k *detect.Clocks) { k.ReleaseKind(1, 7, sim.SyncRead) }},
	}
	same := func(a, b *clock.VC) bool { return a.Leq(b) && b.Leq(a) }
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := setup()
			snap := k.Snapshot(tc.tid)
			frozen := snap.Clone()
			before := snap.Get(tc.tid)
			tc.op(k)
			if !same(snap, frozen) {
				t.Fatalf("snapshot mutated by later %s: %v -> %v", tc.name, frozen, snap)
			}
			now := k.Snapshot(tc.tid)
			if same(now, frozen) {
				t.Fatalf("clock unchanged by %s: %v", tc.name, now)
			}
			if tc.tick && now.Get(tc.tid) != before+1 {
				t.Fatalf("clock not advanced: %d, want %d", now.Get(tc.tid), before+1)
			}
			ref := setup()
			tc.op(ref)
			if want := ref.Snapshot(tc.tid); !same(now, want) {
				t.Fatalf("%s through a clone gave %v, without snapshots %v", tc.name, now, want)
			}
		})
	}
}

// TestShardOfStaysOnPage: all addresses on one shadow page map to one shard.
func TestShardOfStaysOnPage(t *testing.T) {
	base := memmodel.Addr(3 * 512 * 8) // granule 1536, page 3
	want := shardOf(base, 4)
	for off := memmodel.Addr(0); off < 512*8; off += 8 {
		if got := shardOf(base+off, 4); got != want {
			t.Fatalf("page split across shards at offset %d: %d vs %d", off, got, want)
		}
	}
}
