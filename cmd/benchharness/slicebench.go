package main

import (
	"fmt"
	"time"

	"repro/internal/computation"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/online"
	"repro/internal/predicate"
	"repro/internal/sim"
	"repro/internal/slice"
)

// runSlice measures computation slicing end to end, the three layers of
// the slice-first dispatch:
//
//  1. slice construction: the naive per-event advancement vs the
//     incremental builder, over wide and deep traces,
//  2. slice-routed detection: EF(conj ∧ arbitrary) through the factor's
//     slice sublattice vs the unsliced exponential search,
//  3. bounded on-line monitors: slice-cursor state vs full prefix
//     retention.
func runSlice() {
	sliceConstruction()
	sliceDetection()
	sliceBoundedState()
}

// sliceConstruction compares the two slice builders. Both produce the
// identical slice (pinned by TestIncrementalMatchesNaive and re-checked
// here); the gap is the construction cost: O(n|E|²) advancement runs for
// the naive builder vs O(n|E|) amortized cut updates for the incremental.
func sliceConstruction() {
	fmt.Println("[1] slice construction: naive per-event advancement vs incremental (identical slices)")
	fmt.Printf("%-5s %6s %4s %12s %12s %8s %6s %6s\n",
		"shape", "|E|", "n", "naive", "incremental", "speedup", "kept", "elim")
	shapes := []struct {
		name          string
		procs, events int
		seed          int64
	}{
		{"wide", 8, 64, 7},
		{"wide", 12, 96, 2},
		{"deep", 3, 300, 11},
		{"deep", 3, 600, 11},
	}
	for _, sh := range shapes {
		comp := sim.Random(sim.DefaultRandomConfig(sh.procs, sh.events), sh.seed)
		// x0 follows a bounded random walk, so the equality conjunction is
		// satisfiable yet eliminates the events outside its last window.
		p := predicate.Conj(
			predicate.VarCmp{Proc: 0, Var: "x0", Op: predicate.EQ, K: 1},
			predicate.VarCmp{Proc: 1, Var: "x0", Op: predicate.EQ, K: 1},
		)
		start := time.Now()
		naive := slice.New(comp, p)
		naiveDt := time.Since(start)
		start = time.Now()
		inc := slice.NewIncremental(comp, p)
		incDt := time.Since(start)
		kept, elim := inc.Counts()
		status := ""
		if !slicesAgree(naive, inc) {
			status = "  MISMATCH"
		}
		fmt.Printf("%-5s %6d %4d %12s %12s %7.1fx %6d %6d%s\n",
			sh.name, comp.TotalEvents(), sh.procs,
			naiveDt.Round(time.Microsecond), incDt.Round(time.Microsecond),
			float64(naiveDt)/float64(incDt), kept, elim, status)
		emit("slice", "construction", map[string]any{
			"shape": sh.name, "events": comp.TotalEvents(), "procs": sh.procs,
			"naive_ns": naiveDt.Nanoseconds(), "incremental_ns": incDt.Nanoseconds(),
			"kept": kept, "eliminated": elim, "agree": slicesAgree(naive, inc),
		})
	}
}

// slicesAgree re-checks (cheaply) that both builders produced the same
// slice: satisfiability, least cut, and per-event J survival.
func slicesAgree(a, b *slice.Slice) bool {
	if a.Satisfiable() != b.Satisfiable() {
		return false
	}
	ak, ae := a.Counts()
	bk, be := b.Counts()
	if ak != bk || ae != be {
		return false
	}
	if !a.Satisfiable() {
		return true
	}
	la, _ := a.Least()
	lb, _ := b.Least()
	return la.Equal(lb)
}

// sliceDetection pits the slice-routed EF(conj ∧ arbitrary) dispatch
// against the unsliced exponential search on the same predicate.
// With a remainder that is false everywhere the unsliced search must
// exhaust the cut lattice before answering; the sliced search only visits
// the factor's sublattice. A second pass uses a remainder that becomes
// true near the top of the lattice, so both verdicts flip to true and the
// agreement is checked on both polarities.
func sliceDetection() {
	// Satisfiable on every workload below (x0 is a bounded random walk),
	// with a slice well below the full lattice.
	factor := predicate.Conj(
		predicate.VarCmp{Proc: 0, Var: "x0", Op: predicate.EQ, K: 2},
		predicate.VarCmp{Proc: 1, Var: "x0", Op: predicate.GE, K: 1},
	)
	never := predicate.Fn{Name: "false", F: func(*computation.Computation, computation.Cut) bool {
		return false
	}}
	fmt.Println("\n[2] slice-routed EF(conj ∧ arbitrary) vs unsliced exponential search")
	fmt.Println("remainder false everywhere: the unsliced search exhausts the lattice,")
	fmt.Println("the sliced search only the factor's sublattice")
	fmt.Printf("%8s %12s %12s %9s %11s %6s %6s\n",
		"|E|", "unsliced", "sliced", "speedup", "slice cuts", "elim", "agree")
	for _, events := range []int{16, 24, 32, 40} {
		comp := sim.Random(sim.DefaultRandomConfig(4, events), 19)
		sliceDetectRow(comp, factor, never, "ef-false")
	}
	fmt.Println("remainder eventually true on an unconstrained process: both find a satisfying cut")
	for _, events := range []int{24, 40} {
		comp := sim.Random(sim.DefaultRandomConfig(4, events), 19)
		top := comp.FinalCut()
		// P3 is unconstrained by the factor, so the slice spans all its
		// positions and some slice cut satisfies the remainder.
		deepP3 := predicate.Fn{Name: "deepP3", F: func(_ *computation.Computation, cut computation.Cut) bool {
			return cut[3] >= top[3]/2
		}}
		sliceDetectRow(comp, factor, deepP3, "ef-true")
	}
}

// sliceDetectRow measures one workload both ways and prints/emits the row.
func sliceDetectRow(comp *computation.Computation, factor predicate.Linear, rest predicate.Predicate, name string) {
	whole := predicate.And{Ps: []predicate.Predicate{factor, rest}}
	start := time.Now()
	unsliced := core.EFArbitrary(comp, whole)
	unslicedDt := time.Since(start)

	f := ctl.EF{F: ctl.And{L: ctl.Atom{P: factor}, R: ctl.Atom{P: rest}}}
	start = time.Now()
	r, err := core.Detect(comp, f)
	slicedDt := time.Since(start)
	if err != nil {
		fmt.Printf("  detect error: %v\n", err)
		return
	}
	status := ""
	if r.Holds != unsliced {
		status = "  MISMATCH"
	}
	if r.Stats.SliceBuild == 0 {
		status += "  NOT SLICED (" + r.Algorithm + ")"
	}
	fmt.Printf("%8d %12s %12s %8.1fx %11d %6d %6v%s\n",
		comp.TotalEvents(), unslicedDt.Round(time.Microsecond), slicedDt.Round(time.Microsecond),
		float64(unslicedDt)/float64(slicedDt),
		r.Stats.SliceCutsEnumerated, r.Stats.SliceEventsEliminated, r.Holds == unsliced, status)
	emit("slice", name, map[string]any{
		"events": comp.TotalEvents(), "unsliced_ns": unslicedDt.Nanoseconds(),
		"sliced_ns": slicedDt.Nanoseconds(), "slice_cuts": r.Stats.SliceCutsEnumerated,
		"events_eliminated": r.Stats.SliceEventsEliminated,
		"slice_build_ns":    r.Stats.SliceBuild.Nanoseconds(),
		"holds":             r.Holds, "agree": r.Holds == unsliced,
	})
}

// sliceBoundedState measures the per-session state of bounded monitors
// (slice cursors only) against unbounded ones (full event prefix) on the
// same traces: one EF watch that fires early (the latched cursor retains
// nothing) and one that never fires (the live cursor retains only the
// slice frontier).
func sliceBoundedState() {
	fmt.Println("\n[3] bounded monitors: slice-cursor state vs full prefix retention")
	fmt.Printf("%8s %8s %11s %9s %10s\n", "|E|", "fired", "unbounded", "bounded", "reduction")
	for _, events := range []int{1000, 5000, 20000} {
		comp := sim.Random(sim.DefaultRandomConfig(4, events), 21)
		run := func(bounded bool) (int, bool) {
			var m *online.Monitor
			if bounded {
				m = online.NewBoundedMonitor(comp.N())
			} else {
				m = online.NewMonitor(comp.N())
			}
			fires := m.WatchEF(
				online.Cmp(0, "x0", ">=", 2),
				online.Cmp(1, "x0", ">=", 2),
				online.Cmp(2, "x0", ">=", 2),
			)
			// Unsatisfiable on P3 — this watch never latches, so its
			// cursor stays live for the whole trace.
			m.WatchEF(
				online.Cmp(2, "x0", ">=", 1),
				online.Cmp(3, "x0", ">=", events),
			)
			feedAll(comp, m, func(int) {})
			return m.Retained(), fires.Fired()
		}
		full, fired := run(false)
		bnd, _ := run(true)
		fmt.Printf("%8d %8v %11d %9d %9.0fx\n",
			events, fired, full, bnd, float64(full)/float64(max(bnd, 1)))
		emit("slice", "bounded-state", map[string]any{
			"events": events, "fired": fired,
			"unbounded_retained": full, "bounded_retained": bnd,
		})
	}
}
