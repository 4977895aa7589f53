package server

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/pir"
)

// TestCheckWatchesAllocatesNothingUnlatched: the per-event watch check
// builds a frame only for a watch that latched, so with 65 watches
// pending and none latching an applied event costs it no allocation.
func TestCheckWatchesAllocatesNothingUnlatched(t *testing.T) {
	var watches []Watch
	for j := 0; j < 64; j++ {
		watches = append(watches, Watch{Op: "EF", Pred: fmt.Sprintf("conj(step@P1 >= %d, step@P2 >= %d)", 1000+j, 1000+j)})
	}
	watches = append(watches, Watch{Op: "AG", Pred: "conj(step@P1 >= 0, step@P2 >= 0)"})
	ws, err := buildWatches(2, watches)
	if err != nil {
		t.Fatal(err)
	}
	// The session is driven from this goroutine; its loop is never started.
	s := newSession(New(Config{Registry: obs.NewRegistry()}), "t", 2, ws, true)
	s.ensureWatches()
	row := []pir.VarSet{{Name: "step"}}
	if allocs := testing.AllocsPerRun(200, func() {
		row[0].Val++
		s.mon.Apply(row[0].Val%2, pir.EvInternal, 0, row) //nolint:errcheck // proc is in range
		s.checkWatches()
	}); allocs != 0 {
		t.Fatalf("%v allocations per applied event with nothing latched, want 0", allocs)
	}
	if len(s.frames) != 0 {
		t.Fatalf("%d frames latched, want none", len(s.frames))
	}
}

// ndjsonEventLine is one event frame of the ingest-ndjson benchmark
// workload, as the client writes it.
var ndjsonEventLine = []byte(`{"type":"event","seq":4242,"proc":3,"kind":"send","msg":1234,"sets":{"step":812,"tok":2,"x":5}}`)

func BenchmarkDecodeClientFrame(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeClientFrame(ndjsonEventLine); err != nil {
			b.Fatal(err)
		}
	}
}
