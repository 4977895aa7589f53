package online

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/computation"
	"repro/internal/pir"
	"repro/internal/predicate"
	"repro/internal/slice"
	"repro/internal/vclock"
)

// refMonitor is the reference the index-keyed monitor is held against: it
// evaluates the same predicate.VarCmps, by name, on plain map valuations,
// and tells every watch about every event — no slots, no binding, no
// per-process dispatch, no running totals.
type refMonitor struct {
	n       int
	bounded bool
	clocks  []vclock.VC
	lens    []int
	vals    []map[string]int
	sends   map[int]vclock.VC
	efs     []*refEF
	ags     []*refAG
}

type refEF struct {
	locals []predicate.VarCmp
	cur    *slice.Online
}

type refAG struct {
	locals   []predicate.VarCmp
	violated bool
	cut      computation.Cut
	conjunct string
}

func newRefMonitor(n int, bounded bool) *refMonitor {
	r := &refMonitor{n: n, bounded: bounded, clocks: make([]vclock.VC, n), lens: make([]int, n),
		vals: make([]map[string]int, n), sends: make(map[int]vclock.VC)}
	for i := range r.clocks {
		r.clocks[i] = vclock.New(n)
		r.vals[i] = make(map[string]int)
	}
	return r
}

// holdsOn reports whether every conjunct on proc holds (constrained is
// false when there is none), and the first one that does not.
func (r *refMonitor) holdsOn(locals []predicate.VarCmp, proc int) (constrained, holds bool, failing predicate.VarCmp) {
	holds = true
	for _, l := range locals {
		if l.Proc != proc {
			continue
		}
		constrained = true
		if holds && !l.Op.Holds(r.vals[proc][l.Var], l.K) {
			holds, failing = false, l
		}
	}
	return constrained, holds, failing
}

func (r *refMonitor) start(proc int) vclock.VC {
	if r.lens[proc] == 0 {
		return nil
	}
	return r.clocks[proc].Copy()
}

func (r *refMonitor) watchEF(locals []predicate.VarCmp) *refEF {
	var procs []int
	seen := make(map[int]bool)
	for _, l := range locals {
		if !seen[l.Proc] {
			seen[l.Proc] = true
			procs = append(procs, l.Proc)
		}
	}
	w := &refEF{locals: locals, cur: slice.NewOnline(r.n, procs)}
	for _, proc := range procs {
		if _, holds, _ := r.holdsOn(locals, proc); holds {
			w.cur.Offer(proc, 0, nil)
		}
	}
	w.cur.Step()
	r.efs = append(r.efs, w)
	return w
}

func (w *refAG) check(r *refMonitor, proc int) {
	if _, holds, failing := r.holdsOn(w.locals, proc); !holds && !w.violated {
		w.violated, w.conjunct = true, failing.String()
		w.cut = computation.NewCut(r.n)
		if st := r.start(proc); st != nil {
			copy(w.cut, st)
		}
	}
}

func (r *refMonitor) watchAG(locals []predicate.VarCmp) *refAG {
	w := &refAG{locals: locals}
	for proc := 0; proc < r.n; proc++ {
		w.check(r, proc)
	}
	r.ags = append(r.ags, w)
	return w
}

func (r *refMonitor) step(proc int, sets []pir.VarSet) {
	r.clocks[proc].Tick(proc)
	r.lens[proc]++
	for _, vs := range sets {
		r.vals[proc][vs.Name] = vs.Val
	}
	for _, w := range r.efs {
		if constrained, holds, _ := r.holdsOn(w.locals, proc); constrained && holds {
			w.cur.Offer(proc, r.lens[proc], r.start(proc))
		}
		w.cur.Step()
	}
	for _, w := range r.ags {
		w.check(r, proc)
	}
}

func (r *refMonitor) retained() int {
	total := 0
	if r.bounded {
		for _, w := range r.efs {
			total += w.cur.Retained()
		}
		return total
	}
	for _, l := range r.lens {
		total += l
	}
	return total
}

// TestIndexKeyedMonitorMatchesReference feeds random streams and random
// conjunctive watches to the monitor and the reference in lockstep and
// demands equal verdicts, evidence, retained state and valuations at
// every prefix, bounded and unbounded. The name pool makes the streams
// hit what an index must get right: "late" is first assigned mid-stream
// (its slot is interned after the watches were bound, unless a watch
// names it), "never" is watched but never assigned (reads 0), "ghost" is
// neither (Value of an unknown name), and rows repeat a name (the last
// assignment wins).
func TestIndexKeyedMonitorMatchesReference(t *testing.T) {
	ops := []predicate.Op{predicate.LT, predicate.LE, predicate.EQ, predicate.NE, predicate.GE, predicate.GT}
	watched := []string{"a", "b", "late", "never"}
	midStream, queued := 0, 0 // latches after event 0 and candidates seen held, over all runs
	for seed := int64(1); seed <= 60; seed++ {
		for _, bounded := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d/bounded=%v", seed, bounded), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				n := 2 + rng.Intn(3)
				m, ref := NewMonitor(n), newRefMonitor(n, bounded)
				if bounded {
					m = NewBoundedMonitor(n)
				}
				for p := 0; p < n; p++ {
					if rng.Intn(2) == 0 {
						v := rng.Intn(3)
						m.SetInitial(p, "a", v)
						ref.vals[p]["a"] = v
					}
				}
				type pair struct {
					ef  *EFWatch
					rEF *refEF
					ag  *AGWatch
					rAG *refAG
				}
				var pairs []pair
				for w := 0; w < 6; w++ {
					var locals []predicate.VarCmp
					for c := 1 + rng.Intn(4); c > 0; c-- {
						locals = append(locals, predicate.VarCmp{
							Proc: rng.Intn(n), Var: watched[rng.Intn(len(watched))],
							Op: ops[rng.Intn(len(ops))], K: rng.Intn(4),
						})
					}
					if w%2 == 0 {
						pairs = append(pairs, pair{ef: m.WatchEF(locals...), rEF: ref.watchEF(locals)})
					} else {
						pairs = append(pairs, pair{ag: m.WatchAG(locals...), rAG: ref.watchAG(locals)})
					}
				}
				check := func(at int) {
					t.Helper()
					latched := 0
					for i, p := range pairs {
						if p.ef != nil {
							if p.ef.Fired() != p.rEF.cur.Fired() || !reflect.DeepEqual(p.ef.Cut(), p.rEF.cur.Cut()) {
								t.Fatalf("event %d: EF watch %d fired=%v cut=%v, reference fired=%v cut=%v",
									at, i, p.ef.Fired(), p.ef.Cut(), p.rEF.cur.Fired(), p.rEF.cur.Cut())
							}
							if p.ef.Fired() {
								latched++
							}
							continue
						}
						cut, conjunct := p.ag.Counterexample()
						if p.ag.Violated() != p.rAG.violated || !reflect.DeepEqual(cut, p.rAG.cut) || conjunct != p.rAG.conjunct {
							t.Fatalf("event %d: AG watch %d violated=%v cut=%v conjunct=%q, reference violated=%v cut=%v conjunct=%q",
								at, i, p.ag.Violated(), cut, conjunct, p.rAG.violated, p.rAG.cut, p.rAG.conjunct)
						}
						if p.ag.Violated() {
							latched++
						}
					}
					if m.Latched() != latched {
						t.Fatalf("event %d: Latched() = %d, %d watches have latched", at, m.Latched(), latched)
					}
					if m.Retained() != ref.retained() {
						t.Fatalf("event %d: Retained() = %d, reference %d", at, m.Retained(), ref.retained())
					}
					for p := 0; p < n; p++ {
						for _, name := range []string{"a", "b", "late", "never", "ghost"} {
							if got, want := m.Value(p, name), ref.vals[p][name]; got != want {
								t.Fatalf("event %d: Value(%d, %q) = %d, reference %d", at, p, name, got, want)
							}
						}
					}
				}
				check(0)
				atZero := m.Latched()
				var inFlight []int // message ids, sent and not yet received
				const events = 80
				for e := 1; e <= events; e++ {
					proc := rng.Intn(n)
					names := []string{"a", "b"}
					if e > events/2 {
						names = append(names, "late")
					}
					var row []pir.VarSet
					for c := rng.Intn(4); c > 0; c-- {
						row = append(row, pir.VarSet{Name: names[rng.Intn(len(names))], Val: rng.Intn(4)})
					}
					kind := rng.Intn(3)
					recv := -1
					if kind == 2 {
						for i, id := range inFlight {
							if m.sends[id].proc != proc {
								recv = i
								break
							}
						}
					}
					switch {
					case kind == 1:
						id := e
						if err := m.Apply(proc, pir.EvSend, id, row); err != nil {
							t.Fatal(err)
						}
						ref.step(proc, row)
						ref.sends[id] = ref.clocks[proc].Copy()
						inFlight = append(inFlight, id)
					case recv >= 0:
						id := inFlight[recv]
						inFlight = append(inFlight[:recv], inFlight[recv+1:]...)
						if err := m.Apply(proc, pir.EvReceive, id, row); err != nil {
							t.Fatal(err)
						}
						ref.clocks[proc].MergeInto(ref.sends[id])
						ref.step(proc, row)
					default:
						if err := m.Apply(proc, pir.EvInternal, 0, row); err != nil {
							t.Fatal(err)
						}
						ref.step(proc, row)
					}
					check(e)
					if bounded {
						queued += m.Retained()
					}
				}
				midStream += m.Latched() - atZero
			})
		}
	}
	if midStream < 100 || queued == 0 {
		t.Fatalf("streams too tame to test anything: %d verdicts latched mid-stream, %d candidates held", midStream, queued)
	}
}

// TestAGInitialCounterexampleDeterministic: when two processes' initial
// states both violate an invariant, the counterexample names the lowest
// process's first failing conjunct — not whichever a map yielded last.
func TestAGInitialCounterexampleDeterministic(t *testing.T) {
	for i := 0; i < 200; i++ {
		m := NewMonitor(3)
		w := m.WatchAG(Cmp(2, "x", "==", 1), Cmp(1, "y", ">=", 0), Cmp(1, "x", "==", 1), Cmp(1, "x", "==", 2))
		cut, conjunct := w.Counterexample()
		if !w.Violated() || conjunct != "x@P2 == 1" || !reflect.DeepEqual(cut, computation.NewCut(3)) {
			t.Fatalf("run %d: violated=%v conjunct=%q cut=%v, want x@P2 == 1 at the empty cut", i, w.Violated(), conjunct, cut)
		}
	}
}

// TestPendingWatchesAllocateNothing: an event that latches nothing and
// offers no candidate costs a bounded monitor no allocation, whatever
// the number of watches still pending — here the serve-paced 64 EF + 1 AG.
func TestPendingWatchesAllocateNothing(t *testing.T) {
	const n = 4
	m := NewBoundedMonitor(n)
	for j := 0; j < 64; j++ {
		locals := make([]predicate.VarCmp, n)
		for p := range locals {
			locals[p] = Cmp(p, "step", ">=", 1<<40+j)
		}
		m.WatchEF(locals...)
	}
	m.WatchAG(Cmp(0, "step", ">=", 0), Cmp(1, "step", ">=", 0), Cmp(2, "step", ">=", 0), Cmp(3, "step", ">=", 0))
	row := []pir.VarSet{{Name: "step"}, {Name: "x"}}
	proc := 0
	step := func() {
		row[0].Val++
		m.Apply(proc, pir.EvInternal, 0, row) //nolint:errcheck // proc is in range
		proc = (proc + 1) % n
	}
	step() // interns "x"
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("%v allocations per event with 65 pending watches, want 0", allocs)
	}
	if m.Latched() != 0 || m.Retained() != 0 {
		t.Fatalf("latched %d, retained %d; want nothing", m.Latched(), m.Retained())
	}
}
