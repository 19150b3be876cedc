package detect

import (
	"testing"
)

func TestVCDetectorBasicRaces(t *testing.T) {
	d := NewVC()
	d.Write(0, x, 10)
	d.Write(1, x, 20)
	if d.RaceCount() != 1 || d.RaceKeys()[0] != (PairKey{10, 20}) {
		t.Fatalf("races = %v", d.RaceKeys())
	}

	d = NewVC()
	d.Write(0, x, 10)
	d.Read(1, x, 20)
	if d.RaceCount() != 1 {
		t.Fatal("write-read race missed")
	}

	d = NewVC()
	d.Read(0, x, 10)
	d.Read(1, x, 20)
	if d.RaceCount() != 0 {
		t.Fatal("read-read flagged")
	}
}

func TestVCDetectorRespectsSync(t *testing.T) {
	d := NewVC()
	d.Acquire(0, 1)
	d.Write(0, x, 10)
	d.Release(0, 1)
	d.Acquire(1, 1)
	d.Write(1, x, 20)
	d.Release(1, 1)
	if d.RaceCount() != 0 {
		t.Fatal("ordered writes flagged")
	}

	d = NewVC()
	d.Write(0, x, 10)
	d.Fork(0, 1)
	d.Write(1, x, 20)
	d.Join(0, 1)
	d.Write(0, x, 30)
	if d.RaceCount() != 0 {
		t.Fatal("fork/join ordering lost")
	}
}

func TestVCDetectorMultipleConcurrentReaders(t *testing.T) {
	d := NewVC()
	d.Read(0, x, 10)
	d.Read(1, x, 11)
	d.Read(2, x, 12)
	d.Write(3, x, 20)
	if d.RaceCount() != 3 {
		t.Fatalf("races = %d, want 3", d.RaceCount())
	}
}

// TestVCDetectorAgreesWithFastTrack: on straightforward racy-pair patterns
// (the only ones the workloads inject) the Djit⁺-style detector and
// FastTrack must report identical race sets. (They are NOT identical in
// general: after the first race on a variable FastTrack's write-clears-reads
// optimization intentionally stops tracking older reads, so chained
// scenarios can differ — both still flag the racy variable.)
func TestVCDetectorAgreesWithFastTrack(t *testing.T) {
	type op struct {
		tid   int32
		write bool
		addr  int64
		site  uint32
		// sync != 0: release (write) or acquire (!write) instead of access
		sync uint32
	}
	scenarios := [][]op{
		{{tid: 0, write: true, addr: 0, site: 1}, {tid: 1, write: true, addr: 0, site: 2}},
		{{tid: 0, write: true, addr: 0, site: 1}, {tid: 1, write: false, addr: 0, site: 2},
			{tid: 2, write: true, addr: 64, site: 3}, {tid: 1, write: true, addr: 64, site: 4}},
		{{tid: 0, write: true, addr: 0, site: 1}, {tid: 0, write: false, sync: 9},
			{tid: 1, write: true, sync: 9}, {tid: 1, write: true, addr: 0, site: 2}},
		// Two concurrent reads inflate the word to a read vector; the write
		// races with both.
		{{tid: 0, write: false, addr: 0, site: 1}, {tid: 1, write: false, addr: 0, site: 2},
			{tid: 2, write: true, addr: 0, site: 3}},
	}
	for i, sc := range scenarios {
		ft, vc := New(), NewVC()
		for _, o := range sc {
			if o.sync != 0 {
				if o.write {
					ft.Acquire(clockTID(o.tid), SyncID(o.sync))
					vc.Acquire(clockTID(o.tid), SyncID(o.sync))
				} else {
					ft.Release(clockTID(o.tid), SyncID(o.sync))
					vc.Release(clockTID(o.tid), SyncID(o.sync))
				}
				continue
			}
			ft.Access(clockTID(o.tid), memAddr(int32(o.addr)), o.write, shadowSiteU(o.site))
			vc.Access(clockTID(o.tid), memAddr(int32(o.addr)), o.write, shadowSiteU(o.site))
		}
		a, b := ft.RaceKeys(), vc.RaceKeys()
		if len(a) != len(b) {
			t.Fatalf("scenario %d: fasttrack %v vs djit %v", i, a, b)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("scenario %d: fasttrack %v vs djit %v", i, a, b)
			}
		}
	}
}

func TestVCDetectorChecksCount(t *testing.T) {
	d := NewVC()
	d.Write(0, x, 1)
	d.Read(0, x, 2)
	if d.Checks != 2 {
		t.Fatalf("checks = %d", d.Checks)
	}
}
