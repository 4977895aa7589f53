package online

import (
	"fmt"

	"repro/internal/computation"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/predicate"
	"repro/internal/slice"
)

// LocalSpec is a local predicate for online detection, evaluated on a
// process's variable valuation at each new local state.
type LocalSpec struct {
	Proc  int
	Name  string
	Holds func(vals map[string]int) bool
}

// Cmp builds the LocalSpec of the comparison "name@P(proc+1) op k".
func Cmp(proc int, name, op string, k int) LocalSpec {
	return specOf(predicate.VarCmp{Proc: proc, Var: name, Op: predicate.Op(op), K: k})
}

// specOf is the online counterpart of a predicate.VarCmp: same name, and
// the same operator semantics (predicate.Op.Holds) on the live valuation.
func specOf(vc predicate.VarCmp) LocalSpec {
	return LocalSpec{
		Proc:  vc.Proc,
		Name:  vc.String(),
		Holds: func(vals map[string]int) bool { return vc.Op.Holds(vals[vc.Var], vc.K) },
	}
}

// HoldsNow reports whether the spec holds in its process's current local
// state — the frontier evaluation used by stable watches built from
// parsed conjuncts (hbserver's STABLE op).
func (l LocalSpec) HoldsNow(m *Monitor) bool {
	m.checkProc(l.Proc)
	return l.Holds(m.vals[l.Proc])
}

// EFWatch incrementally detects EF(p) for a conjunctive predicate p — the
// Garg–Waldecker weak conjunctive predicate algorithm, with the queue and
// elimination machinery living in the slice.Online cursor so the watch
// retains O(slice) state (the queued candidates), never the raw prefix.
// The verdict latches: once a satisfying consistent cut exists in the
// observed prefix it exists in every extension.
type EFWatch struct {
	specs map[int][]LocalSpec // conjuncts grouped by process
	cur   *slice.Online
}

// WatchEF registers a conjunctive predicate given by its local conjuncts.
// The returned watch fires as soon as some consistent cut of the observed
// prefix satisfies every conjunct. An empty conjunct list fires
// immediately (the empty conjunction holds at ∅).
func (m *Monitor) WatchEF(locals ...LocalSpec) *EFWatch {
	if m.Events() > 0 {
		panic("online: WatchEF must be registered before events are observed")
	}
	w := &EFWatch{specs: make(map[int][]LocalSpec)}
	var procs []int
	for _, l := range locals {
		if l.Proc < 0 || l.Proc >= m.n {
			panic(fmt.Sprintf("online: local predicate on unknown process %d", l.Proc))
		}
		if _, seen := w.specs[l.Proc]; !seen {
			procs = append(procs, l.Proc)
		}
		w.specs[l.Proc] = append(w.specs[l.Proc], l)
	}
	w.cur = slice.NewOnline(m.n, procs)
	m.efWatches = append(m.efWatches, w)
	// Seed with the initial states (before any event) of the constrained
	// processes whose conjuncts already hold.
	for _, proc := range procs {
		if m.lens[proc] == 0 && w.holdsAt(m, proc) {
			w.cur.Offer(proc, 0, nil)
		}
	}
	w.advance(m)
	return w
}

// Fired reports whether a satisfying cut has been found; Cut returns it.
func (w *EFWatch) Fired() bool { return w.cur.Fired() }

// Cut returns the satisfying cut once Fired; nil before.
func (w *EFWatch) Cut() computation.Cut { return w.cur.Cut() }

// Retained returns the candidate local states the watch currently holds —
// its entire per-prefix memory (the slice frontier of the predicate).
func (w *EFWatch) Retained() int { return w.cur.Retained() }

func (w *EFWatch) holdsAt(m *Monitor, proc int) bool {
	for _, l := range w.specs[proc] {
		if !l.Holds(m.vals[proc]) {
			return false
		}
	}
	return true
}

// observe is called by the monitor after each event.
func (w *EFWatch) observe(m *Monitor, proc int) {
	if w.cur.Fired() {
		return
	}
	if _, constrained := w.specs[proc]; constrained && w.holdsAt(m, proc) {
		w.cur.Offer(proc, m.lens[proc], m.startClock(proc))
	}
	if w.cur.Dirty() {
		w.advance(m)
	}
}

// advance runs cursor elimination to its fixed point and records a
// newly-latched verdict in the metrics.
func (w *EFWatch) advance(m *Monitor) {
	wasFired := w.cur.Fired()
	w.cur.Step()
	if !wasFired && w.cur.Fired() && m.met != nil {
		m.met.efFired.Inc()
	}
}

// AGWatch incrementally detects violations of AG(p) for a conjunctive
// predicate p: the invariant is violated as soon as any conjunct is false
// in any local state, because every local state is exposed by a consistent
// cut (the down-set of its starting event). The violation verdict latches.
type AGWatch struct {
	specs    map[int][]LocalSpec
	violated bool
	badCut   computation.Cut
	badLocal string
}

// WatchAG registers an invariant given by its local conjuncts. The watch
// reports a violation the moment one exists in the observed prefix.
func (m *Monitor) WatchAG(locals ...LocalSpec) *AGWatch {
	if m.Events() > 0 {
		panic("online: WatchAG must be registered before events are observed")
	}
	w := &AGWatch{specs: make(map[int][]LocalSpec)}
	for _, l := range locals {
		if l.Proc < 0 || l.Proc >= m.n {
			panic(fmt.Sprintf("online: local predicate on unknown process %d", l.Proc))
		}
		w.specs[l.Proc] = append(w.specs[l.Proc], l)
	}
	m.agWatches = append(m.agWatches, w)
	// Check the initial states.
	for proc := range w.specs {
		if m.lens[proc] == 0 {
			w.check(m, proc)
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

func (w *AGWatch) observe(m *Monitor, proc int) {
	if w.violated {
		return
	}
	w.check(m, proc)
}

func (w *AGWatch) check(m *Monitor, proc int) {
	for _, l := range w.specs[proc] {
		if l.Holds(m.vals[proc]) {
			continue
		}
		w.violated = true
		if m.met != nil {
			m.met.agViolated.Inc()
		}
		w.badLocal = l.Name
		cut := computation.NewCut(m.n)
		if start := m.startClock(proc); start != nil {
			copy(cut, start)
		}
		w.badCut = cut
		return
	}
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
	w.observe(m)
	return w
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
