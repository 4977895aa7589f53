// Quickstart: build a small two-process computation with the Builder,
// then detect a handful of CTL properties on it.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// A tiny protocol: P1 prepares (x = 1), sends a request, and commits
	// (x = 2) — while P2 receives the request and acknowledges (y = 1).
	b := repro.NewBuilder(2)
	prepare := b.Internal(0)
	repro.Set(prepare, "x", 1)

	_, req := b.Send(0)
	recv := b.Receive(1, req)
	repro.Set(recv, "y", 1)

	commit := b.Internal(0)
	repro.Set(commit, "x", 2)

	comp, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Detection routes each formula to the best algorithm for the
	// predicate class — the paper's Table 1.
	formulas := []string{
		"EF(x@P1 == 2 && y@P2 == 1)",     // possibly: both sides done
		"AF(disj(y@P2 == 1))",            // definitely: the ack happens
		"AG(disj(x@P1 < 2, y@P2 == 1))",  // invariant: no commit before ack... does it hold?
		"EG(conj(x@P1 <= 2))",            // controllable: x stays bounded
		"E[conj(y@P2 == 0) U x@P1 == 1]", // until: prepare precedes the ack
	}
	for _, src := range formulas {
		f := repro.MustParseFormula(src)
		res, err := repro.Detect(comp, f)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-38s %-5v via %s\n", src, res.Holds, res.Algorithm)
		if len(res.Witness) > 0 {
			fmt.Printf("%38s witness ends at %v\n", "", res.Witness[len(res.Witness)-1])
		}
		if res.Counterexample != nil {
			fmt.Printf("%38s counterexample %v\n", "", res.Counterexample)
		}
	}
}
