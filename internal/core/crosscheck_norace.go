//go:build !race

package core

import (
	"repro/internal/computation"
	"repro/internal/pir"
	"repro/internal/predicate"
)

// crossCheckClass validates the IR's class inference against the explicit
// lattice in race-enabled test builds; in regular builds classification
// is trusted and detection pays nothing. See crosscheck_race.go.
func crossCheckClass(*computation.Computation, *pir.Pred) error { return nil }

// crossCheckSliceVerdict checks sliced EF evidence against the explicit
// lattice in race-enabled builds; free otherwise. See crosscheck_race.go.
func crossCheckSliceVerdict(*computation.Computation, predicate.Predicate, computation.Cut, bool) {}
