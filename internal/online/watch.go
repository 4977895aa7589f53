package online

import (
	"fmt"
	"slices"

	"repro/internal/computation"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/predicate"
	"repro/internal/slice"
)

// Cmp builds the conjunct "name@P(proc+1) op k" — what ParseConj yields
// for each comparison of a parsed watch.
func Cmp(proc int, name, op string, k int) predicate.VarCmp {
	return predicate.VarCmp{Proc: proc, Var: name, Op: predicate.Op(op), K: k}
}

// boundCmp is a conjunct bound to its monitor at registration, the
// on-line twin of pir's Bind: "vals[slot] op k" on the valuation row of
// the process it is grouped under, evaluated by predicate.Op.Holds.
type boundCmp struct {
	slot int
	op   predicate.Op
	k    int
}

// bind resolves the conjuncts' variables to slots and groups them by
// process (conj is indexed by process, nil where unconstrained); procs
// lists the constrained processes in order of first appearance.
func (m *Monitor) bind(locals []predicate.VarCmp) (conj [][]boundCmp, procs []int) {
	conj = make([][]boundCmp, m.n)
	for _, l := range locals {
		if l.Proc < 0 || l.Proc >= m.n {
			panic(fmt.Sprintf("online: local predicate on unknown process %d", l.Proc))
		}
		if conj[l.Proc] == nil {
			procs = append(procs, l.Proc)
		}
		conj[l.Proc] = append(conj[l.Proc], boundCmp{slot: m.slot(l.Var), op: l.Op, k: l.K})
	}
	return conj, procs
}

// firstFalse returns the index of the first conjunct that fails on a
// process's valuation row, or -1 when all hold.
func firstFalse(conj []boundCmp, vals []int) int {
	for i, c := range conj {
		if !c.op.Holds(vals[c.slot], c.k) {
			return i
		}
	}
	return -1
}

// efPending and agPending are a pending watch's entry in one process's
// dispatch list: its conjuncts on that process, held beside the watch so
// that step reads the watch itself only when it has something to tell it.
type efPending struct {
	conj []boundCmp
	w    *EFWatch
}

type agPending struct {
	conj []boundCmp
	w    *AGWatch
}

// dropLatched removes the watches that latched from the per-process
// dispatch lists, keeping registration order.
func (m *Monitor) dropLatched() {
	for p := range m.efOn {
		m.efOn[p] = slices.DeleteFunc(m.efOn[p], func(e efPending) bool { return e.w.cur.Fired() })
		m.agOn[p] = slices.DeleteFunc(m.agOn[p], func(e agPending) bool { return e.w.violated })
	}
}

// EFWatch incrementally detects EF(p) for a conjunctive predicate p — the
// Garg–Waldecker weak conjunctive predicate algorithm, with the queue and
// elimination machinery living in the slice.Online cursor so the watch
// retains O(slice) state (the queued candidates), never the raw prefix.
// The verdict latches: once a satisfying consistent cut exists in the
// observed prefix it exists in every extension.
type EFWatch struct {
	cur *slice.Online
}

// WatchEF registers a conjunctive predicate given by its local conjuncts.
// The returned watch fires as soon as some consistent cut of the observed
// prefix satisfies every conjunct. An empty conjunct list fires
// immediately (the empty conjunction holds at ∅).
func (m *Monitor) WatchEF(locals ...predicate.VarCmp) *EFWatch {
	if m.events > 0 {
		panic("online: WatchEF must be registered before events are observed")
	}
	conj, procs := m.bind(locals)
	w := &EFWatch{cur: slice.NewOnline(m.n, procs)}
	m.watches++
	// Seed with the initial states (before any event) of the constrained
	// processes whose conjuncts already hold.
	for _, proc := range procs {
		if firstFalse(conj[proc], m.vals[proc]) < 0 {
			w.cur.Offer(proc, 0, nil)
		}
	}
	w.settle(m, 0)
	if !w.cur.Fired() {
		for _, proc := range procs {
			m.efOn[proc] = append(m.efOn[proc], efPending{conj[proc], w})
		}
	}
	return w
}

// Fired reports whether a satisfying cut has been found; Cut returns it.
func (w *EFWatch) Fired() bool { return w.cur.Fired() }

// Cut returns the satisfying cut once Fired; nil before.
func (w *EFWatch) Cut() computation.Cut { return w.cur.Cut() }

// Retained returns the candidate local states the watch currently holds —
// its entire per-prefix memory (the slice frontier of the predicate).
func (w *EFWatch) Retained() int { return w.cur.Retained() }

// offer queues proc's new local state, in which the watch's conjuncts
// on proc hold, as a candidate.
func (w *EFWatch) offer(m *Monitor, proc int) {
	before := w.cur.Retained()
	w.cur.Offer(proc, m.lens[proc], m.startClock(proc))
	w.settle(m, before)
}

// settle runs cursor elimination to its fixed point if a head changed,
// then folds what the cursor gained or dropped since it held before
// candidates, and a newly latched verdict, into the monitor's totals.
func (w *EFWatch) settle(m *Monitor, before int) {
	if w.cur.Dirty() {
		w.cur.Step()
	}
	m.queued += w.cur.Retained() - before
	if w.cur.Fired() {
		m.latched++
		if m.met != nil {
			m.met.efFired.Inc()
		}
	}
}

// AGWatch incrementally detects violations of AG(p) for a conjunctive
// predicate p: the invariant is violated as soon as any conjunct is false
// in any local state, because every local state is exposed by a consistent
// cut (the down-set of its starting event). The violation verdict latches.
type AGWatch struct {
	violated bool
	badCut   computation.Cut
	badLocal string
}

// WatchAG registers an invariant given by its local conjuncts. The watch
// reports a violation the moment one exists in the observed prefix; when
// several initial states violate it, the counterexample is the lowest
// such process's first failing conjunct.
func (m *Monitor) WatchAG(locals ...predicate.VarCmp) *AGWatch {
	if m.events > 0 {
		panic("online: WatchAG must be registered before events are observed")
	}
	conj, procs := m.bind(locals)
	w := &AGWatch{}
	m.watches++
	for proc := 0; proc < m.n && !w.violated; proc++ {
		if i := firstFalse(conj[proc], m.vals[proc]); i >= 0 {
			w.violate(m, proc, conj[proc][i])
		}
	}
	if !w.violated {
		for _, proc := range procs {
			m.agOn[proc] = append(m.agOn[proc], agPending{conj[proc], w})
		}
	}
	return w
}

// Violated reports whether the invariant failed; Counterexample returns a
// consistent cut exposing the failure and the name of the failing
// conjunct.
func (w *AGWatch) Violated() bool { return w.violated }

// Counterexample returns the violating cut and the failing conjunct name.
func (w *AGWatch) Counterexample() (computation.Cut, string) { return w.badCut, w.badLocal }

// violate latches the violation: conjunct c is false in proc's current
// local state.
func (w *AGWatch) violate(m *Monitor, proc int, c boundCmp) {
	w.violated = true
	m.latched++
	if m.met != nil {
		m.met.agViolated.Inc()
	}
	w.badLocal = predicate.VarCmp{Proc: proc, Var: m.names[c.slot], Op: c.op, K: c.k}.String()
	cut := computation.NewCut(m.n)
	if start := m.startClock(proc); start != nil {
		copy(cut, start)
	}
	w.badCut = cut
}

// StableWatch evaluates a frontier predicate after every event; for a
// stable predicate, observing it at the frontier of any prefix is
// equivalent to global detection (the frontier is a consistent cut, and
// stability carries the verdict forward).
type StableWatch struct {
	Name  string
	holds func(m *Monitor) bool
	fired bool
	at    int // events observed when fired
}

// WatchStable registers a stable frontier predicate, e.g.
// func(m *Monitor) bool { return m.InFlight() == 0 && m.Value(0, "done") == 1 }.
func (m *Monitor) WatchStable(name string, holds func(m *Monitor) bool) *StableWatch {
	w := &StableWatch{Name: name, holds: holds}
	m.stableWatches = append(m.stableWatches, w)
	m.watches++
	w.observe(m)
	return w
}

// WatchQuiescent registers the frontier predicate "no message in flight
// and every conjunct holds" (hbserver's STABLE watch), its conjuncts bound
// to valuation slots as EF and AG watches bind theirs.
func (m *Monitor) WatchQuiescent(name string, locals ...predicate.VarCmp) *StableWatch {
	conj, procs := m.bind(locals)
	return m.WatchStable(name, func(m *Monitor) bool {
		if m.inFlight != 0 {
			return false
		}
		for _, p := range procs {
			if firstFalse(conj[p], m.vals[p]) >= 0 {
				return false
			}
		}
		return true
	})
}

// Fired reports detection; FiredAt returns the prefix length at detection.
func (w *StableWatch) Fired() bool { return w.fired }

// FiredAt returns the number of observed events when the watch fired.
func (w *StableWatch) FiredAt() int { return w.at }

func (w *StableWatch) observe(m *Monitor) {
	if w.fired {
		return
	}
	if w.holds(m) {
		w.fired = true
		w.at = m.Events()
		m.latched++
		if m.met != nil {
			m.met.stable.Inc()
		}
	}
}

// Detect runs the offline dispatcher on a snapshot of the observed prefix
// — the bridge from online monitoring to the full operator set (EG, AG
// final verdicts, until).
func (m *Monitor) Detect(f ctl.Formula) (core.Result, error) {
	return core.Detect(m.Snapshot(), f)
}
