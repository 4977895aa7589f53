package core

import (
	"repro/internal/computation"
	"repro/internal/predicate"
	"repro/internal/vclock"
)

// EGLinear is Algorithm A1 of the paper: it detects EG(p) — controllable p
// — for a linear predicate p in O(n|E|) predicate evaluations.
//
// Starting from the final cut, the algorithm repeatedly moves to any
// predecessor cut that satisfies p. Theorem 2 shows that for linear
// predicates the arbitrary choice is safe: if any p-satisfying path from ∅
// to E exists, every run of this loop finds one, because the meet of the
// chosen cut with a cut on the real path is again a satisfying cut one
// step closer to ∅ (Lemma 1).
//
// The returned path, when ok, is a full maximal cut sequence
// ∅ = G0 ▷ … ▷ Gl = E with p true at every cut.
func EGLinear(comp *computation.Computation, p predicate.Predicate) (path []computation.Cut, ok bool) {
	return egLinear(comp, p, comp.FinalCut(), nil)
}

// egLinear runs A1 on the sub-lattice [∅, top] of comp, top a consistent
// cut: the final cut for EG, a one-event-smaller prefix of I_q for A3.
//
// Each step tries processes 0..n−1 and takes the first maximal event whose
// removal keeps p, the order the paper's proof is stated in. Maximality is
// kept as blocker counts instead of rescanned: blocked[i] is the number of
// processes j ≠ i whose last included event has Clock[i] ≥ w[i], so event
// (i, w[i]) is maximal iff w[i] > 0 and blocked[i] == 0. Removing it
// changes only row i (the last event of i) and column i (the threshold
// w[i]), O(n) per accepted step; a rejected trial changes nothing.
func egLinear(comp *computation.Computation, p predicate.Predicate, top computation.Cut, st *Stats) (path []computation.Cut, ok bool) {
	n := len(top)
	w := top.Copy()
	// Step 1: the top cut itself must satisfy p.
	st.cuts(1)
	st.evals(1)
	if !p.Eval(comp, w) {
		return nil, false
	}
	last := make([]vclock.VC, n) // clock of the last included event, nil at 0
	blocked := make([]int, n)
	// row adds delta to blocked[j] for each j ≠ i that last[i] blocks.
	row := func(i, delta int) {
		for j, c := range last[i] {
			if j != i && c >= w[j] {
				blocked[j] += delta
			}
		}
	}
	for i, k := range w {
		if k > 0 {
			last[i] = comp.Event(i, k).Clock
			row(i, 1)
		}
	}
	// steps[t] is the process whose event the forward path adds at step t.
	steps := make([]int, top.Size())
	// Steps 2–6: walk down one event at a time.
	for t := len(steps) - 1; t >= 0; t-- {
		i := 0
		for ; i < n; i++ {
			if w[i] == 0 || blocked[i] != 0 {
				continue
			}
			w[i]--
			st.cuts(1)
			st.evals(1)
			if p.Eval(comp, w) {
				break
			}
			w[i]++
		}
		if i == n {
			return nil, false
		}
		st.advance(1)
		steps[t] = i
		// Row i: the old last event stops blocking, its predecessor starts.
		row(i, -1)
		last[i] = nil
		if w[i] > 0 {
			last[i] = comp.Event(i, w[i]).Clock
			row(i, 1)
		}
		// Column i: w[i] fell by one, so events knowing exactly w[i] events
		// of i now block it too.
		for j, c := range last {
			if j != i && c != nil && c[i] == w[i] {
				blocked[i]++
			}
		}
	}
	// Step 7 is implicit: the loop only reaches ∅ through satisfying cuts.
	return cutPath(n, steps), true
}

// cutPath lays out the path ∅ = G0 ▷ … ▷ Gl that adds one event of process
// steps[t] at step t, in one arena with a capped sub-slice per cut.
func cutPath(n int, steps []int) []computation.Cut {
	arena := make([]int, (len(steps)+1)*n)
	path := make([]computation.Cut, len(steps)+1)
	path[0] = arena[:n:n]
	for t, i := range steps {
		c := arena[(t+1)*n : (t+2)*n : (t+2)*n]
		copy(c, path[t])
		c[i]++
		path[t+1] = c
	}
	return path
}

// EGPostLinear is the dual of Algorithm A1 for post-linear predicates: it
// walks from the initial cut towards the final cut, moving at each step to
// any successor cut satisfying p. The paper notes the same arbitrary-choice
// argument applies by lattice duality.
func EGPostLinear(comp *computation.Computation, p predicate.Predicate) (path []computation.Cut, ok bool) {
	return egPostLinear(comp, p, nil)
}

// egPostLinear keeps the dual counts: need[i] is the number of processes
// j ≠ i that the next event of i waits for (its Clock[j] > w[j]), so event
// (i, w[i]+1) is enabled iff w[i] < Len(i) and need[i] == 0. Adding it
// recomputes row i for the new next event and lowers column i, O(n).
func egPostLinear(comp *computation.Computation, p predicate.Predicate, st *Stats) (path []computation.Cut, ok bool) {
	n := comp.N()
	w := comp.InitialCut()
	st.cuts(1)
	st.evals(1)
	if !p.Eval(comp, w) {
		return nil, false
	}
	next := make([]vclock.VC, n) // clock of the next event, nil when done
	need := make([]int, n)
	// row points next[i] at the event after w[i], when there is one, and
	// counts the processes it waits for.
	row := func(i int) {
		next[i], need[i] = nil, 0
		if w[i] < comp.Len(i) {
			next[i] = comp.Event(i, w[i]+1).Clock
			for j, c := range next[i] {
				if j != i && c > w[j] {
					need[i]++
				}
			}
		}
	}
	for i := range next {
		row(i)
	}
	steps := make([]int, comp.TotalEvents())
	for t := range steps {
		i := 0
		for ; i < n; i++ {
			if next[i] == nil || need[i] != 0 {
				continue
			}
			w[i]++
			st.cuts(1)
			st.evals(1)
			if p.Eval(comp, w) {
				break
			}
			w[i]--
		}
		if i == n {
			return nil, false
		}
		st.advance(1)
		steps[t] = i
		// Column i: next events that waited for exactly this one stop
		// waiting.
		for j, c := range next {
			if j != i && c != nil && c[i] == w[i] {
				need[j]--
			}
		}
		// Row i: its next event is a new one.
		row(i)
	}
	return cutPath(n, steps), true
}
