package detect

import "testing"

// TestRecycleHonoursDone pins Recycle's contract at its boundary: a clock
// retired before Recycle(now, done) goes back to the free list only once
// done reaches now. In a session the slack is wider, since every holder of
// a clock precedes the sync event that retired it, so the session tests
// alone cannot tell a free at done+1 from a free at done.
func TestRecycleHonoursDone(t *testing.T) {
	k := NewClocks()
	k.Snapshot(1)
	k.Release(1, 1) // retires thread 1's snapshot clock
	k.Recycle(10, 9)
	if len(k.free) != 0 {
		t.Fatalf("recycled %d clocks with a holder below 10 unfinished", len(k.free))
	}
	k.Recycle(10, 10)
	if len(k.free) != 1 || len(k.retired) != 0 {
		t.Fatalf("free %d, retired %d after every holder finished; want 1, 0", len(k.free), len(k.retired))
	}
}
