package detect

import (
	"repro/internal/clock"
	"repro/internal/sim"
)

// rwReaderBit namespaces the auxiliary clock a reader-writer lock needs: the
// detector keeps one vector clock for the write side of rwlock s (the plain
// SyncID) and one for the read side (SyncID with this bit set).
const rwReaderBit SyncID = 1 << 31

// AcquireKind applies the happens-before semantics of a synchronization
// acquire according to its kind:
//
//   - mutex / semaphore / barrier: join the object's clock;
//   - rwlock read hold: join only the writer-side clock (readers are ordered
//     after previous writers but not after each other);
//   - rwlock write hold: join both sides (a writer is ordered after all
//     previous writers and readers).
func (k *Clocks) AcquireKind(tid clock.TID, s SyncID, kind sim.SyncKind) {
	k.Acquire(tid, s)
	if kind == sim.SyncWrite {
		k.Acquire(tid, s|rwReaderBit)
	}
}

// ReleaseKind applies the release-side semantics (see AcquireKind):
// read-unlocks publish into the reader-side clock only; write-unlocks into
// the writer-side clock.
func (k *Clocks) ReleaseKind(tid clock.TID, s SyncID, kind sim.SyncKind) {
	if kind == sim.SyncRead {
		s |= rwReaderBit
	}
	k.Release(tid, s)
}

// AcquireKind applies Clocks.AcquireKind's rwlock policy to d.
func AcquireKind(d *Detector, tid clock.TID, s SyncID, kind sim.SyncKind) {
	d.clk.AcquireKind(tid, s, kind)
}

// ReleaseKind applies Clocks.ReleaseKind's rwlock policy to d.
func ReleaseKind(d *Detector, tid clock.TID, s SyncID, kind sim.SyncKind) {
	d.clk.ReleaseKind(tid, s, kind)
	d.maybeCollapse()
}
