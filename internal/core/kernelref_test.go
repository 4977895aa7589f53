package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/computation"
	"repro/internal/ctl"
	"repro/internal/pir"
	"repro/internal/predicate"
	"repro/internal/sim"
)

// The Table 1 kernels keep their step costs down with incremental state:
// blocker counts in A1, one monotone sweep in A2, A3 on the parent
// computation, advancement in place. This file keeps the direct
// formulations they replaced as references: on the same inputs the kernels
// must visit the same cuts in the same order, so verdicts, witness paths,
// counterexamples and every Stats counter agree exactly.

func refEGLinear(comp *computation.Computation, p predicate.Predicate, st *Stats) ([]computation.Cut, bool) {
	w := comp.FinalCut()
	st.cuts(1)
	st.evals(1)
	if !p.Eval(comp, w) {
		return nil, false
	}
	initial := comp.InitialCut()
	rev := []computation.Cut{w.Copy()}
	for !w.Equal(initial) {
		found := false
		for i := range w {
			if !comp.MaximalEvent(w, i) {
				continue
			}
			w[i]--
			st.cuts(1)
			st.evals(1)
			if p.Eval(comp, w) {
				rev = append(rev, w.Copy())
				found = true
				break
			}
			w[i]++
		}
		if !found {
			return nil, false
		}
		st.advance(1)
	}
	path := make([]computation.Cut, len(rev))
	for i, c := range rev {
		path[len(rev)-1-i] = c
	}
	return path, true
}

func refEGPostLinear(comp *computation.Computation, p predicate.Predicate, st *Stats) ([]computation.Cut, bool) {
	w := comp.InitialCut()
	st.cuts(1)
	st.evals(1)
	if !p.Eval(comp, w) {
		return nil, false
	}
	final := comp.FinalCut()
	path := []computation.Cut{w.Copy()}
	for !w.Equal(final) {
		found := false
		for i := range w {
			if !comp.EnabledEvent(w, i) {
				continue
			}
			w[i]++
			st.cuts(1)
			st.evals(1)
			if p.Eval(comp, w) {
				path = append(path, w.Copy())
				found = true
				break
			}
			w[i]--
		}
		if !found {
			return nil, false
		}
		st.advance(1)
	}
	return path, true
}

func refAGLinear(comp *computation.Computation, p predicate.Predicate, st *Stats) (computation.Cut, bool) {
	final := comp.FinalCut()
	st.cuts(1)
	st.evals(1)
	if !p.Eval(comp, final) {
		return final, false
	}
	for i := 0; i < comp.N(); i++ {
		for _, e := range comp.Events(i) {
			m := comp.UpSetComplement(e)
			st.cuts(1)
			st.evals(1)
			if !p.Eval(comp, m) {
				return m, false
			}
		}
	}
	return nil, true
}

func refAGPostLinear(comp *computation.Computation, p predicate.Predicate, st *Stats) (computation.Cut, bool) {
	initial := comp.InitialCut()
	st.cuts(1)
	st.evals(1)
	if !p.Eval(comp, initial) {
		return initial, false
	}
	for i := 0; i < comp.N(); i++ {
		for _, e := range comp.Events(i) {
			j := comp.DownSet(e)
			st.cuts(1)
			st.evals(1)
			if !p.Eval(comp, j) {
				return j, false
			}
		}
	}
	return nil, true
}

func refLeastCut(comp *computation.Computation, p predicate.Linear, st *Stats) (computation.Cut, bool) {
	cut := comp.InitialCut()
	st.cuts(1)
	st.evals(1)
	for !p.Eval(comp, cut) {
		st.forbidden(1)
		i, ok := p.Forbidden(comp, cut)
		if !ok || cut[i] >= comp.Len(i) {
			return nil, false
		}
		cut = computation.Join(cut, comp.DownSet(comp.Event(i, cut[i]+1)))
		st.advance(1)
		st.cuts(1)
		st.evals(1)
	}
	return cut, true
}

func refGreatestCut(comp *computation.Computation, p predicate.PostLinear, st *Stats) (computation.Cut, bool) {
	cut := comp.FinalCut()
	st.cuts(1)
	st.evals(1)
	for !p.Eval(comp, cut) {
		st.forbidden(1)
		i, ok := p.Retreat(comp, cut)
		if !ok || cut[i] == 0 {
			return nil, false
		}
		cut = computation.Meet(cut, comp.UpSetComplement(comp.Event(i, cut[i])))
		st.advance(1)
		st.cuts(1)
		st.evals(1)
	}
	return cut, true
}

// refEUConjLinear runs step 2 on prefix computations, the construction
// the parent-computation walk replaced.
func refEUConjLinear(comp *computation.Computation, p predicate.Predicate, q predicate.Linear, st *Stats) ([]computation.Cut, bool) {
	iq, ok := refLeastCut(comp, q, st)
	if !ok {
		return nil, false
	}
	if iq.Equal(comp.InitialCut()) {
		return []computation.Cut{iq}, true
	}
	for i := range iq {
		if !comp.MaximalEvent(iq, i) {
			continue
		}
		g := iq.Copy()
		g[i]--
		if egPath, holds := refEGLinear(comp.Prefix(g), p, st); holds {
			return append(egPath, iq), true
		}
	}
	return nil, false
}

func refAUDisjunctive(comp *computation.Computation, p, q predicate.Disjunctive, st *Stats) bool {
	notQ := q.Negate()
	if _, eg := refEGLinear(comp, notQ, st); eg {
		return false
	}
	_, eu := refEUConjLinear(comp, notQ, predicate.MergeConj(p.Negate(), notQ), st)
	return !eu
}

func pathsEqual(a, b []computation.Cut) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func cutsEqual(a, b computation.Cut) bool {
	return (a == nil) == (b == nil) && a.Equal(b)
}

// work projects the counters of a Stats, leaving out the per-run fields.
func work(s *Stats) Stats {
	return Stats{CutsVisited: s.CutsVisited, PredicateEvals: s.PredicateEvals,
		ForbiddenCalls: s.ForbiddenCalls, AdvancementSteps: s.AdvancementSteps,
		MemoHits: s.MemoHits, ShortCircuits: s.ShortCircuits}
}

// kernelComps is the cross-validation corpus plus wider random
// computations, n from 1 to 8, several with processes that have no events.
func kernelComps(t *testing.T) []*computation.Computation {
	comps := testComps(t)
	for n := 1; n <= 8; n++ {
		for seed := int64(0); seed < 6; seed++ {
			comps = append(comps,
				sim.Random(sim.DefaultRandomConfig(n, 6*n), seed),
				sim.Random(sim.DefaultRandomConfig(n, n/2+1), seed)) // idle processes
		}
	}
	return comps
}

// linearBattery returns the linear predicates the advancement kernels are
// compared on, structural and lowered.
func linearBattery(comp *computation.Computation) []predicate.Linear {
	var ps []predicate.Linear
	for _, c := range conjBattery(comp) {
		l, _ := pir.FromPredicate(c).Bind(comp).Linear()
		ps = append(ps, c, l)
	}
	return append(ps, predicate.ChannelsEmpty{}, predicate.Terminated{}, predicate.Received{ID: 1},
		predicate.AndLinear{Ps: []predicate.Linear{conjBattery(comp)[0], predicate.ChannelsEmpty{}}})
}

func postLinearBattery(comp *computation.Computation) []predicate.PostLinear {
	var ps []predicate.PostLinear
	for _, c := range conjBattery(comp) {
		l, _ := pir.FromPredicate(c).Bind(comp).PostLinear()
		ps = append(ps, c, l)
	}
	return append(ps, predicate.ChannelsEmpty{}, predicate.Terminated{}, predicate.Received{ID: 1})
}

func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	compared := 0
	for ci, comp := range kernelComps(t) {
		check := func(name string, p fmt.Stringer, gotPath, refPath []computation.Cut, gotCex, refCex computation.Cut, gotOK, refOK bool, got, ref Stats) {
			t.Helper()
			if gotOK != refOK || !pathsEqual(gotPath, refPath) || !cutsEqual(gotCex, refCex) || got != ref {
				t.Fatalf("comp %d %s(%s): got %v %v %v %+v, reference %v %v %v %+v",
					ci, name, p, gotOK, gotPath, gotCex, got, refOK, refPath, refCex, ref)
			}
			compared++
		}
		// The walks are deterministic on any predicate, linear or not.
		ps := walkBattery(rng, comp)
		for _, l := range linearBattery(comp) {
			ps = append(ps, l)
		}
		for _, p := range ps {
			var got, ref Stats
			gp, gok := egLinear(comp, p, comp.FinalCut(), &got)
			rp, rok := refEGLinear(comp, p, &ref)
			check("A1", p, gp, rp, nil, nil, gok, rok, got, ref)

			got, ref = Stats{}, Stats{}
			gp, gok = egPostLinear(comp, p, &got)
			rp, rok = refEGPostLinear(comp, p, &ref)
			check("A1 dual", p, gp, rp, nil, nil, gok, rok, got, ref)

			got, ref = Stats{}, Stats{}
			gc, gok := agLinear(comp, p, &got)
			rc, rok := refAGLinear(comp, p, &ref)
			check("A2", p, nil, nil, gc, rc, gok, rok, got, ref)

			got, ref = Stats{}, Stats{}
			gc, gok = agPostLinear(comp, p, &got)
			rc, rok = refAGPostLinear(comp, p, &ref)
			check("A2 dual", p, nil, nil, gc, rc, gok, rok, got, ref)
		}
		linears := linearBattery(comp)
		for _, q := range linears {
			var got, ref Stats
			gc, gok := leastCut(comp, q, &got)
			rc, rok := refLeastCut(comp, q, &ref)
			check("LeastCut", q, nil, nil, gc, rc, gok, rok, got, ref)
			// A3's p is conjunctive: its value at a cut below g is the same
			// in the prefix computation g and in comp.
			for _, p := range linears[:2*len(conjBattery(comp))] {
				got, ref = Stats{}, Stats{}
				gp, gok := euConjLinear(comp, p, q, &got)
				rp, rok := refEUConjLinear(comp, p, q, &ref)
				check("A3 until "+q.String(), p, gp, rp, nil, nil, gok, rok, got, ref)
			}
		}
		for _, q := range postLinearBattery(comp) {
			var got, ref Stats
			gc, gok := greatestCut(comp, q, &got)
			rc, rok := refGreatestCut(comp, q, &ref)
			check("GreatestCut", q, nil, nil, gc, rc, gok, rok, got, ref)
		}
	}
	if compared == 0 {
		t.Fatal("nothing compared")
	}
}

// TestDetectMatchesReferenceKernels runs whole formulas through Detect —
// A3 on the lowered p that detectEU binds, the AU composition, A1 and A2
// behind the dispatcher — and demands the reference kernels' evidence and
// counters.
func TestDetectMatchesReferenceKernels(t *testing.T) {
	for ci, comp := range kernelComps(t) {
		battery := conjBattery(comp)
		p, q := battery[0], battery[len(battery)-1]
		type ref func(st *Stats) (bool, []computation.Cut, computation.Cut)
		cases := []struct {
			f   ctl.Formula
			ref ref
		}{
			{ctl.EU{P: ctl.Atom{P: p}, Q: ctl.Atom{P: q}}, func(st *Stats) (bool, []computation.Cut, computation.Cut) {
				path, ok := refEUConjLinear(comp, p, q, st)
				return ok, path, nil
			}},
			{ctl.EU{P: ctl.Atom{P: q}, Q: ctl.Atom{P: predicate.ChannelsEmpty{}}}, func(st *Stats) (bool, []computation.Cut, computation.Cut) {
				path, ok := refEUConjLinear(comp, q, predicate.ChannelsEmpty{}, st)
				return ok, path, nil
			}},
			{ctl.AU{P: ctl.Atom{P: p.Negate()}, Q: ctl.Atom{P: q.Negate()}}, func(st *Stats) (bool, []computation.Cut, computation.Cut) {
				return refAUDisjunctive(comp, p.Negate(), q.Negate(), st), nil, nil
			}},
			{ctl.EG{F: ctl.Atom{P: p}}, func(st *Stats) (bool, []computation.Cut, computation.Cut) {
				path, ok := refEGLinear(comp, p, st)
				return ok, path, nil
			}},
			{ctl.AG{F: ctl.Atom{P: q}}, func(st *Stats) (bool, []computation.Cut, computation.Cut) {
				cex, ok := refAGLinear(comp, q, st)
				return ok, nil, cex
			}},
			{ctl.EF{F: ctl.Atom{P: q}}, func(st *Stats) (bool, []computation.Cut, computation.Cut) {
				cut, ok := refLeastCut(comp, q, st)
				if !ok {
					return false, nil, nil
				}
				return true, []computation.Cut{cut}, nil
			}},
		}
		for _, c := range cases {
			r, err := Detect(comp, c.f)
			if err != nil {
				t.Fatal(err)
			}
			var st Stats
			holds, path, cex := c.ref(&st)
			if r.Holds != holds || !pathsEqual(r.Witness, path) || !cutsEqual(r.Counterexample, cex) || work(r.Stats) != st {
				t.Fatalf("comp %d %s: got %v %v %v %+v, reference %v %v %v %+v",
					ci, c.f, r.Holds, r.Witness, r.Counterexample, work(r.Stats), holds, path, cex, st)
			}
		}
	}
}

// TestKernelEdgeCases covers computations without events, where every walk
// is a single cut.
func TestKernelEdgeCases(t *testing.T) {
	for _, n := range []int{1, 3} {
		empty := computation.NewBuilder(n).MustBuild()
		p := predicate.Conj(varCmp(0, "x", predicate.LE, 0))
		if path, ok := EGLinear(empty, p); !ok || len(path) != 1 || path[0].Size() != 0 {
			t.Fatalf("n=%d: EGLinear = %v, %v", n, path, ok)
		}
		if path, ok := EGPostLinear(empty, p); !ok || len(path) != 1 {
			t.Fatalf("n=%d: EGPostLinear = %v, %v", n, path, ok)
		}
		if cex, ok := AGLinear(empty, p); !ok || cex != nil {
			t.Fatalf("n=%d: AGLinear = %v, %v", n, cex, ok)
		}
		if got := MeetIrreducibles(empty); got != nil {
			t.Fatalf("n=%d: MeetIrreducibles = %v, want none", n, got)
		}
		if path, ok := EUConjLinear(empty, p, p); !ok || len(path) != 1 {
			t.Fatalf("n=%d: EUConjLinear = %v, %v", n, path, ok)
		}
	}
}

// TestMeetIrreduciblesMatchReference pins the sweep's order and cuts to
// the Birkhoff formula evaluated event by event.
func TestMeetIrreduciblesMatchReference(t *testing.T) {
	for ci, comp := range kernelComps(t) {
		var want []computation.Cut
		for i := 0; i < comp.N(); i++ {
			for _, e := range comp.Events(i) {
				want = append(want, comp.UpSetComplement(e))
			}
		}
		if got := MeetIrreducibles(comp); !pathsEqual(got, want) {
			t.Fatalf("comp %d: MeetIrreducibles = %v, want %v", ci, got, want)
		}
	}
}

// The kernels only read the computation and keep their incremental state
// per call, so detections over one shared computation may run at once.
// The two tests below run a kernel from several goroutines together and
// demand the sequential reference's evidence and counters from every run;
// under -race they also pin that no kernel writes shared state.

const parallelRuns = 4

// runParallel calls body(0..n-1) on n goroutines and waits for them all.
func runParallel(n int, body func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body(w)
		}(w)
	}
	wg.Wait()
}

func TestParallelAGLinearMatchesSequential(t *testing.T) {
	for ci, comp := range kernelComps(t) {
		for pi, p := range conjBattery(comp) {
			var refSt, refPostSt Stats
			refCex, refOK := refAGLinear(comp, p, &refSt)
			refPostCex, refPostOK := refAGPostLinear(comp, p, &refPostSt)
			errs := make([]error, parallelRuns)
			runParallel(parallelRuns, func(w int) {
				var st, postSt Stats
				cex, ok := agLinear(comp, p, &st)
				postCex, postOK := agPostLinear(comp, p, &postSt)
				switch {
				case ok != refOK || !cutsEqual(cex, refCex) || st != refSt:
					errs[w] = fmt.Errorf("A2 got %v %v %+v, sequential %v %v %+v",
						ok, cex, st, refOK, refCex, refSt)
				case postOK != refPostOK || !cutsEqual(postCex, refPostCex) || postSt != refPostSt:
					errs[w] = fmt.Errorf("A2 dual got %v %v %+v, sequential %v %v %+v",
						postOK, postCex, postSt, refPostOK, refPostCex, refPostSt)
				}
			})
			for w, err := range errs {
				if err != nil {
					t.Fatalf("comp %d pred %d run %d: %v", ci, pi, w, err)
				}
			}
		}
	}
}

func TestParallelEUConjLinearMatchesSequential(t *testing.T) {
	for ci, comp := range kernelComps(t) {
		battery := conjBattery(comp)
		for pi, p := range battery {
			q := battery[(pi+1)%len(battery)]
			var refSt Stats
			refPath, refOK := refEUConjLinear(comp, p, q, &refSt)
			errs := make([]error, parallelRuns)
			runParallel(parallelRuns, func(w int) {
				var st Stats
				path, ok := euConjLinear(comp, p, q, &st)
				if ok != refOK || !pathsEqual(path, refPath) || st != refSt {
					errs[w] = fmt.Errorf("A3 got %v %v %+v, sequential %v %v %+v",
						ok, path, st, refOK, refPath, refSt)
				}
			})
			for w, err := range errs {
				if err != nil {
					t.Fatalf("comp %d pred %d run %d: %v", ci, pi, w, err)
				}
			}
		}
	}
}
