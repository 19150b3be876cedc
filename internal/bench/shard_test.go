package bench

import (
	"io"
	"testing"
)

// TestWireRows pins the v2 wire win on the bench trace: the varint+delta
// encoding must be at least 2x smaller per event than v1's fixed records.
func TestWireRows(t *testing.T) {
	tr := buildShardTrace()
	v1, err := tr.WriteToV1(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := tr.WriteTo(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if v2*2 >= v1 {
		t.Fatalf("v2 %d bytes, not 2x smaller than v1's %d (%d events)", v2, v1, tr.Len())
	}
}
