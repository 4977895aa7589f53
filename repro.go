// Package repro is hbdetect: a library for detecting temporal logic
// predicates on the happened-before model of a distributed computation,
// reproducing "Detecting Temporal Logic Predicates on the Happened-Before
// Model" (Sen & Garg, IPPS 2002).
//
// A computation is a set of per-process event sequences related by
// Lamport's happened-before order; its global states are the consistent
// cuts, which form a finite distributive lattice. Properties are written
// in a fragment of CTL interpreted on that lattice — EF (possibly), AF
// (definitely), EG (controllable), AG (invariant), and until — and
// detected without enumerating the lattice whenever the predicate's class
// allows: the paper's Algorithm A1 (EG, linear), Algorithm A2 (AG, linear
// via Birkhoff meet-irreducibles) and Algorithm A3 (E[p U q], conjunctive/
// linear) all run in O(n|E|)-ish time.
//
// Quick start:
//
//	comp := repro.TokenRingMutex(3, 2)
//	f := repro.MustParseFormula("AG(!(crit@P1 == 1 && crit@P2 == 1))")
//	res, err := repro.Detect(comp, f)
//	// res.Holds, res.Algorithm, res.Witness / res.Counterexample
//
// This facade re-exports the user-facing pieces of the internal packages;
// see internal/core for the algorithms, internal/computation for the
// event/cut model, and internal/explore for the explicit-lattice baseline.
package repro

import (
	"fmt"
	"io"

	"repro/internal/computation"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/diagram"
	"repro/internal/predicate"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Computation is an immutable happened-before model of one execution.
type Computation = computation.Computation

// Cut is a global state: the number of events each process has executed.
type Cut = computation.Cut

// Builder constructs computations event by event.
type Builder = computation.Builder

// Event is a single event of a computation. Its variable assignments are
// recorded with Set while its Builder is open and read back with
// Computation.AppendAssignments.
type Event = computation.Event

// Msg is a message handle connecting a Send to its Receive.
type Msg = computation.Msg

// Formula is a CTL formula over consistent cuts.
type Formula = ctl.Formula

// Result is the outcome of detection: verdict, the algorithm used
// (mirroring the paper's Table 1), and a witness or counterexample.
type Result = core.Result

// Predicate is a global predicate over consistent cuts.
type Predicate = predicate.Predicate

// NewBuilder returns a builder for a computation with n processes.
func NewBuilder(n int) *Builder { return computation.NewBuilder(n) }

// Set records that event e assigns value to variable name and returns e;
// it panics once e's Builder has been built.
func Set(e *Event, name string, value int) *Event { return computation.Set(e, name, value) }

// Detect decides whether the computation satisfies the formula, routing to
// the most specific polynomial algorithm the predicate class admits.
func Detect(comp *Computation, f Formula) (Result, error) { return core.Detect(comp, f) }

// ParseFormula parses the textual CTL syntax, e.g.
// "E[conj(z@P3 < 6, x@P1 < 4) U channelsEmpty && x@P1 > 1]".
func ParseFormula(src string) (Formula, error) { return ctl.Parse(src) }

// MustParseFormula is ParseFormula that panics on error.
func MustParseFormula(src string) Formula { return ctl.MustParse(src) }

// DecodeTrace loads a computation from its JSON trace representation.
func DecodeTrace(r io.Reader) (*Computation, error) { return trace.Decode(r) }

// EncodeTrace writes a computation as a JSON trace.
func EncodeTrace(w io.Writer, comp *Computation) error { return trace.Encode(w, comp) }

// Workload generators (see internal/sim for details).
var (
	// TokenRingMutex builds a token-ring mutual exclusion trace.
	TokenRingMutex = sim.TokenRingMutex
	// BuggyMutex injects a mutual-exclusion violation.
	BuggyMutex = sim.BuggyMutex
	// LeaderElection builds a ring leader election trace.
	LeaderElection = sim.LeaderElection
	// ProducerConsumer builds a producers→consumer streaming trace.
	ProducerConsumer = sim.ProducerConsumer
	// Barrier builds a coordinator-based barrier synchronization trace.
	Barrier = sim.Barrier
	// TwoPhaseCommit builds a two-phase commit round.
	TwoPhaseCommit = sim.TwoPhaseCommit
	// Fig2 and Fig4 reconstruct the paper's example computations.
	Fig2 = sim.Fig2
	Fig4 = sim.Fig4
)

// RandomConfig parameterizes RandomComputation.
type RandomConfig = sim.RandomConfig

// RandomComputation generates a seeded random computation.
func RandomComputation(cfg RandomConfig, seed int64) *Computation { return sim.Random(cfg, seed) }

// RenderDiagram draws comp as an ASCII space-time diagram; a non-nil cut
// is marked with brackets and a frontier row.
func RenderDiagram(comp *Computation, cut Cut) string {
	return diagram.Render(comp, diagram.Options{Cut: cut, ShowVars: true, Width: 14})
}

// Sync is one synthesized control synchronization (see internal/control).
type Sync = control.Sync

// Control decides whether the non-temporal predicate given by src is
// controllable on comp (EG, Algorithm A1) and, if so, returns the
// controlled computation — the original plus control messages enforcing
// synchronizations under which the predicate is invariant (AG holds).
// The predicate must compile to a linear, variable-based predicate.
func Control(comp *Computation, src string) (*Computation, []Sync, error) {
	f, err := ctl.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	if ctl.IsTemporal(f) {
		return nil, nil, fmt.Errorf("repro: Control takes a non-temporal predicate, got %s", f)
	}
	p, err := core.Compile(f)
	if err != nil {
		return nil, nil, err
	}
	lin, ok := p.(predicate.Linear)
	if !ok {
		if local, okL := p.(predicate.LocalPredicate); okL {
			lin = predicate.Conj(local)
		} else {
			return nil, nil, fmt.Errorf("repro: %s is not a linear predicate", p)
		}
	}
	controlled, syncs, ok := control.Controlled(comp, lin)
	if !ok {
		return nil, nil, fmt.Errorf("repro: %s is not controllable on this computation (EG fails)", p)
	}
	return controlled, syncs, nil
}
