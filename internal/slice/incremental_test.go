package slice_test

import (
	"fmt"
	"runtime/debug"
	"testing"

	"repro/internal/computation"
	"repro/internal/predicate"
	"repro/internal/sim"
	"repro/internal/slice"
)

func TestIncrementalMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		comp := sim.Random(sim.DefaultRandomConfig(4, 18), seed)
		preds := regularBattery(comp)
		preds = append(preds, predicate.AndLinear{Ps: []predicate.Linear{
			predicate.ChannelsEmpty{},
			predicate.Conj(predicate.VarCmp{Proc: 0, Var: "x0", Op: predicate.LE, K: 2}),
		}})
		for _, p := range preds {
			naive := slice.NewNaive(comp, p)
			inc := slice.NewIncremental(comp, p)
			if naive.Satisfiable() != inc.Satisfiable() {
				t.Fatalf("seed %d %s: satisfiable %v vs %v", seed, p, naive.Satisfiable(), inc.Satisfiable())
			}
			if !naive.Satisfiable() {
				continue
			}
			a, _ := naive.Least()
			b, _ := inc.Least()
			if !a.Equal(b) {
				t.Fatalf("seed %d %s: I_p %v vs %v", seed, p, a, b)
			}
			for i := 0; i < comp.N(); i++ {
				for k := 1; k <= comp.Len(i); k++ {
					ja, oka := naive.J(i, k)
					jb, okb := inc.J(i, k)
					if oka != okb || (oka && !ja.Equal(jb)) {
						t.Fatalf("seed %d %s: J(%d,%d) = %v/%v vs %v/%v",
							seed, p, i, k, ja, oka, jb, okb)
					}
				}
			}
		}
	}
}

// TestJMonotoneAlongProcess pins the property NewIncremental exploits:
// J_p(e(i,k)) ⊆ J_p(e(i,k+1)) for any linear predicate.
func TestJMonotoneAlongProcess(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		comp := sim.Random(sim.DefaultRandomConfig(3, 14), seed)
		for _, p := range regularBattery(comp) {
			s := slice.NewNaive(comp, p)
			for i := 0; i < comp.N(); i++ {
				var prev []int
				for k := 1; k <= comp.Len(i); k++ {
					j, ok := s.J(i, k)
					if !ok {
						// Once missing, later J must be missing too.
						for k2 := k + 1; k2 <= comp.Len(i); k2++ {
							if _, ok2 := s.J(i, k2); ok2 {
								t.Fatalf("seed %d %s: J(%d,%d) missing but J(%d,%d) exists",
									seed, p, i, k, i, k2)
							}
						}
						break
					}
					if prev != nil {
						for proc, v := range prev {
							if v > j[proc] {
								t.Fatalf("seed %d %s: J(%d,%d)=%v not above J(%d,%d)=%v",
									seed, p, i, k, j, i, k-1, prev)
							}
						}
					}
					prev = j
				}
			}
		}
	}
}

func TestIncrementalUnsatisfiable(t *testing.T) {
	comp := sim.Fig2()
	never := predicate.Conj(predicate.VarCmp{Proc: 0, Var: "nope", Op: predicate.GE, K: 1})
	s := slice.NewIncremental(comp, never)
	if s.Satisfiable() {
		t.Fatal("unsatisfiable predicate reported satisfiable")
	}
}

// countingLinear counts Forbidden calls per advancement run. A run ends at
// a true Eval or at a Forbidden answer that stops the advancement: no
// process, or a process with no next event.
type countingLinear struct {
	predicate.Linear
	runs []int // Forbidden calls of each finished run, in order
	cur  int
}

func (c *countingLinear) Eval(comp *computation.Computation, cut computation.Cut) bool {
	ok := c.Linear.Eval(comp, cut)
	if ok {
		c.runs, c.cur = append(c.runs, c.cur), 0
	}
	return ok
}

func (c *countingLinear) Forbidden(comp *computation.Computation, cut computation.Cut) (int, bool) {
	c.cur++
	i, ok := c.Linear.Forbidden(comp, cut)
	if !ok || cut[i] >= comp.Len(i) {
		c.runs, c.cur = append(c.runs, c.cur), 0
	}
	return i, ok
}

// TestIncrementalForbiddenBound pins the Garg–Mittal bound NewIncremental
// claims: across all the J's of one process, Forbidden is called at most
// |E|+1 times (the cursor only moves forward, and the first J that does not
// exist ends the process). The runs are read in the order the builder makes
// them: I_p, then each process's events in order up to its first missing J.
func TestIncrementalForbiddenBound(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		comp := sim.Random(sim.DefaultRandomConfig(4, 24), seed)
		preds := append(regularBattery(comp), predicate.Terminated{})
		for _, p := range preds {
			want := slice.NewNaive(comp, p)
			c := &countingLinear{Linear: p}
			slice.NewIncremental(comp, c)
			if c.cur != 0 || len(c.runs) == 0 {
				t.Fatalf("seed %d %s: unfinished advancement run (%d calls), %d runs", seed, p, c.cur, len(c.runs))
			}
			if c.runs[0] > comp.TotalEvents()+1 {
				t.Errorf("seed %d %s: I_p took %d Forbidden calls, |E| = %d", seed, p, c.runs[0], comp.TotalEvents())
			}
			runs := c.runs[1:]
			if !want.Satisfiable() {
				if len(runs) != 0 {
					t.Errorf("seed %d %s: %d advancement runs after an unsatisfiable I_p", seed, p, len(runs))
				}
				continue
			}
			for i := 0; i < comp.N(); i++ {
				js := 0
				for k := 1; k <= comp.Len(i); k++ {
					js++
					if _, ok := want.J(i, k); !ok {
						break
					}
				}
				if js > len(runs) {
					t.Fatalf("seed %d %s: P%d: %d advancement runs left, want %d", seed, p, i+1, len(runs), js)
				}
				calls := 0
				for _, r := range runs[:js] {
					calls += r
				}
				if calls > comp.TotalEvents()+1 {
					t.Errorf("seed %d %s: P%d: %d Forbidden calls across its J's, |E| = %d", seed, p, i+1, calls, comp.TotalEvents())
				}
				runs = runs[js:]
			}
			if len(runs) != 0 {
				t.Errorf("seed %d %s: %d advancement runs past the last process", seed, p, len(runs))
			}
		}
	}
}

// trails holds when process lag has executed at least as many events as
// process lead. Its satisfying cuts are closed under meet, and where it
// fails lag is forbidden, so it forces advancement steps above every cut
// where lead is ahead.
type trails struct{ lead, lag int }

func (p trails) Eval(_ *computation.Computation, cut computation.Cut) bool {
	return cut[p.lag] >= cut[p.lead]
}

func (p trails) Forbidden(*computation.Computation, computation.Cut) (int, bool) {
	return p.lag, true
}

func (p trails) String() string { return fmt.Sprintf("#P%d >= #P%d", p.lag+1, p.lead+1) }

// TestIncrementalAllocsIndependentOfSteps requires a slice build to
// allocate the same whether the predicate forces many advancement steps or
// none, given the same kept events. The collector is off while counting,
// so a cycle's own allocations are not charged to the build.
func TestIncrementalAllocsIndependentOfSteps(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	comp := sim.Random(sim.DefaultRandomConfig(4, 200), 3)
	holds := predicate.Conj() // holds at ∅: no step anywhere
	base := testing.AllocsPerRun(5, func() { slice.NewIncremental(comp, holds) })
	keptBase, _ := slice.NewIncremental(comp, holds).Counts()
	lead, lag := 0, 1 // trailing needs steps of lag, and the final cut must satisfy it
	if comp.Len(lead) > comp.Len(lag) {
		lead, lag = lag, lead
	}
	for _, far := range []predicate.Linear{predicate.Terminated{}, trails{lead: lead, lag: lag}} {
		if kept, _ := slice.NewIncremental(comp, far).Counts(); kept != keptBase {
			t.Fatalf("%s keeps %d events, %s keeps %d", far, kept, holds, keptBase)
		}
		c := &countingLinear{Linear: far}
		slice.NewIncremental(comp, c)
		steps := 0
		for _, r := range c.runs {
			steps += r
		}
		if steps < comp.N() {
			t.Fatalf("%s forces only %d advancement steps", far, steps)
		}
		if got := testing.AllocsPerRun(5, func() { slice.NewIncremental(comp, far) }); got != base {
			t.Errorf("%s (%d Forbidden calls): %v allocations per build, %s: %v", far, steps, got, holds, base)
		}
	}
}

func BenchmarkSliceConstruction(b *testing.B) {
	for _, events := range []int{100, 400, 1600} {
		comp := sim.Random(sim.DefaultRandomConfig(4, events), 7)
		p := predicate.Conj(
			predicate.VarCmp{Proc: 0, Var: "x0", Op: predicate.LE, K: 2},
			predicate.VarCmp{Proc: 1, Var: "x0", Op: predicate.LE, K: 2},
		)
		b.Run(fmt.Sprintf("Naive/E%d", events), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				slice.NewNaive(comp, p)
			}
		})
		b.Run(fmt.Sprintf("Incremental/E%d", events), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				slice.NewIncremental(comp, p)
			}
		})
	}
}
