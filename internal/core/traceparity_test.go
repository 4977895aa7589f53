package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/computation"
	"repro/internal/sim"
	"repro/internal/trace"
)

// inTraceOrder rebuilds comp with a Builder in the order a trace lists its
// events, so that message ids — which the format renumbers in that order,
// and which Received atoms and the channel predicates' choices read — are
// the ones a decoded copy will have.
func inTraceOrder(comp *computation.Computation) *computation.Computation {
	b := computation.NewBuilder(comp.N())
	for i := 0; i < comp.N(); i++ {
		for _, name := range comp.Vars(i) {
			v, _ := comp.Value(i, 0, name)
			b.SetInitial(i, name, v)
		}
	}
	msgs := map[int]computation.Msg{}
	for _, e := range comp.Linearization() {
		var ne *computation.Event
		switch e.Kind {
		case computation.Internal:
			ne = b.Internal(e.Proc)
		case computation.Send:
			ne, msgs[e.Msg] = b.Send(e.Proc)
		case computation.Receive:
			ne = b.Receive(e.Proc, msgs[e.Msg])
		}
		ne.Label = e.Label
		for _, a := range comp.AppendAssignments(nil, e) {
			computation.Set(ne, a.Name, a.Value)
		}
	}
	return b.MustBuild()
}

// TestDetectParityAfterTraceRoundTrip: Detect on a Builder-built
// computation and on Decode(Encode(·)) of it returns the same verdict,
// algorithm, witness, counterexample and every Stats count, over the
// random formula battery.
func TestDetectParityAfterTraceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		cfg := sim.RandomConfig{
			Procs:    2 + rng.Intn(3),
			Events:   6 + rng.Intn(20),
			SendProb: rng.Float64() * 0.6,
			RecvProb: 0.5 + rng.Float64()*0.5,
			Vars:     1 + rng.Intn(2),
			ValRange: 3,
		}
		comp := inTraceOrder(sim.Random(cfg, rng.Int63()))
		var buf bytes.Buffer
		if err := trace.Encode(&buf, comp); err != nil {
			t.Fatal(err)
		}
		back, err := trace.Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		f := randomFormula(rng, comp, 2)
		want, errW := Detect(comp, f)
		got, errG := Detect(back, f)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("trial %d %s: errors %v vs %v", trial, f, errW, errG)
		}
		if errW != nil {
			continue
		}
		if got.Holds != want.Holds || got.Algorithm != want.Algorithm ||
			!reflect.DeepEqual(got.Witness, want.Witness) || !got.Counterexample.Equal(want.Counterexample) {
			t.Fatalf("trial %d %s: decoded %v via %q (witness %v, cex %v), built %v via %q (witness %v, cex %v)",
				trial, f, got.Holds, got.Algorithm, got.Witness, got.Counterexample,
				want.Holds, want.Algorithm, want.Witness, want.Counterexample)
		}
		gs, ws := *got.Stats, *want.Stats
		gs.Duration, ws.Duration, gs.SliceBuild, ws.SliceBuild = 0, 0, 0, 0
		if !reflect.DeepEqual(gs, ws) {
			t.Fatalf("trial %d %s: stats differ:\n%+v\n%+v", trial, f, gs, ws)
		}
	}
}
