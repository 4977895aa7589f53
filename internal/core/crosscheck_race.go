//go:build race

package core

import (
	"fmt"
	"slices"

	"repro/internal/computation"
	"repro/internal/explore"
	"repro/internal/lattice"
	"repro/internal/pir"
	"repro/internal/predicate"
)

// In race-enabled builds (i.e. under `go test -race`, which CI runs on
// every matrix leg) each temporal dispatch cross-checks the IR's inferred
// class against brute-force classification on the explicit lattice, so
// drift between the IR and the lattice classifier returns an error
// instead of silently picking an algorithm the predicate's actual
// structure does not admit. The check is quadratic in the lattice size,
// so it only fires on small computations — exactly the sizes the
// property tests generate.
func crossCheckClass(comp *computation.Computation, p *pir.Pred) error {
	if comp.TotalEvents() > 8 || comp.N() > 4 {
		return nil
	}
	l, err := lattice.BuildLimited(comp, 4096)
	if err != nil {
		return nil // lattice too large to enumerate; not an IR fault
	}
	return explore.CrossCheckIR(l, p)
}

// crossCheckSliceVerdict compares the sliced EF verdict and witness with
// the explicit lattice, which shares no code with the lexical walk, on
// small computations: the witness must be the lexically least cut
// satisfying whole. A mismatch is slice unsoundness, not an input fault,
// so it panics rather than returning an error.
func crossCheckSliceVerdict(comp *computation.Computation, whole predicate.Predicate, cut computation.Cut, sliced bool) {
	if comp.TotalEvents() > 10 || comp.N() > 4 {
		return
	}
	l, err := lattice.BuildLimited(comp, 4096)
	if err != nil {
		return
	}
	var least computation.Cut
	for _, i := range l.Sat(whole) {
		if c := l.Cut(i); least == nil || slices.Compare(c, least) < 0 {
			least = c
		}
	}
	if (least != nil) != sliced || !least.Equal(cut) {
		panic(fmt.Sprintf("core: sliced EF %v at %v, but the lattice's least satisfying cut is %v for %s", sliced, cut, least, whole))
	}
}
