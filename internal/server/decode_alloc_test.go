//go:build !race

package server

import "testing"

// TestDecodeClientFrameAllocs: an event frame allocates its sets map and
// nothing else; the type and kind decode to constants and the variable
// names are interned. Not under the race detector, whose sync.Pool drops
// pooled decoders at random; CI runs it in a step of its own.
func TestDecodeClientFrameAllocs(t *testing.T) {
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := DecodeClientFrame(ndjsonEventLine); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Fatalf("%v allocations per event frame, want at most 2 (the sets map)", allocs)
	}
}
