package bench

import (
	"io"
	"testing"
)

// TestWireRows pins the v2 wire win on the bench trace: the varint+delta
// encoding must take under half of the retired v1 format's fixed record per
// event.
func TestWireRows(t *testing.T) {
	tr := buildShardTrace()
	n, err := tr.WriteTo(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	const v1Record = 28 // bytes per event in the retired fixed-record format
	if perEvent := float64(n) / float64(tr.Len()); perEvent >= v1Record/2 {
		t.Fatalf("v2 %d bytes for %d events (%.2f B/event), want < %d B/event",
			n, tr.Len(), perEvent, v1Record/2)
	}
}
