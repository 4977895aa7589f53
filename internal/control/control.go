// Package control implements predicate control in the style of Tarafdar
// and Garg ("Predicate control for active debugging of distributed
// programs", SPDP 1998) — the work the paper's *controllable* (EG)
// operator is named after.
//
// EG(p) asks whether SOME execution consistent with the observed
// computation maintains p everywhere. Predicate control turns that
// existential answer into an enforcement: it synthesizes additional
// synchronizations (causal orderings) such that EVERY execution of the
// controlled computation maintains p — i.e. AG(p) holds after control.
// The predicate is controllable exactly when EG(p) holds, which Algorithm
// A1 decides in polynomial time for linear predicates; the witness path it
// produces induces the control strategy.
//
// Synchronizations are materialized as control messages (a send appended
// right after the earlier event, a receive right before the later event),
// so the controlled computation is again a plain happened-before model
// that every algorithm in this module — and the explicit-lattice ground
// truth — can check.
package control

import (
	"fmt"
	"sort"

	"repro/internal/computation"
	"repro/internal/core"
	"repro/internal/predicate"
)

// Sync is one synthesized synchronization: event (AfterProc, AfterIndex)
// must causally precede event (BeforeProc, BeforeIndex). Indices are
// 1-based, as in computation.Event.
type Sync struct {
	AfterProc, AfterIndex   int
	BeforeProc, BeforeIndex int
}

// String implements fmt.Stringer.
func (s Sync) String() string {
	return fmt.Sprintf("P%d:%d → P%d:%d", s.AfterProc+1, s.AfterIndex, s.BeforeProc+1, s.BeforeIndex)
}

// Synthesize decides whether p is controllable on comp (EG(p), Algorithm
// A1) and, if so, returns synchronizations that force every execution of
// the controlled computation to maintain p. The raw strategy is the chain
// of the A1 witness; orderings already implied by the computation or by
// transitivity through other synchronizations are pruned.
//
// p must depend only on per-process variable state (e.g. conjunctive
// predicates over VarCmp locals): control messages add channel traffic, so
// channel predicates change meaning under control.
func Synthesize(comp *computation.Computation, p predicate.Linear) ([]Sync, bool) {
	path, ok := core.EGLinear(comp, p)
	if !ok {
		return nil, false
	}
	// The event executed at each step of the witness.
	events := make([]*computation.Event, 0, len(path)-1)
	for t := 1; t < len(path); t++ {
		for i := range path[t] {
			if path[t][i] > path[t-1][i] {
				events = append(events, comp.Event(i, path[t][i]))
				break
			}
		}
	}
	// Chain synchronizations between consecutive events, skipping pairs
	// already ordered by the computation itself. The full chain makes
	// every execution follow the witness order, so AG(p) holds under it.
	var raw []Sync
	for t := 0; t+1 < len(events); t++ {
		a, b := events[t], events[t+1]
		if a.Proc == b.Proc || comp.HappenedBefore(a, b) {
			continue
		}
		raw = append(raw, Sync{a.Proc, a.Index, b.Proc, b.Index})
	}
	return prune(comp, p, raw), true
}

// prune greedily minimizes the strategy against its actual guarantee:
// an edge is dropped when AG(p) still holds on the computation controlled
// by the remaining edges (verified with Algorithm A2, so each attempt is
// polynomial). The result is minimal in the sense that removing any single
// remaining edge breaks the invariant.
func prune(comp *computation.Computation, p predicate.Linear, raw []Sync) []Sync {
	kept := append([]Sync(nil), raw...)
	for i := len(kept) - 1; i >= 0; i-- {
		candidate := append(append([]Sync(nil), kept[:i]...), kept[i+1:]...)
		controlled, err := Apply(comp, candidate)
		if err != nil {
			continue
		}
		if _, ok := core.AGLinear(controlled, p); ok {
			kept = candidate
		}
	}
	return kept
}

// Apply materializes the synchronizations as control messages, returning
// the controlled computation: for each sync the After process sends a
// control message immediately after its event and the Before process
// receives it immediately before its event. Variable valuations are
// preserved (control events assign nothing). It returns an error if the
// synchronizations are cyclic (cannot happen for Synthesize output).
func Apply(comp *computation.Computation, syncs []Sync) (*computation.Computation, error) {
	n := comp.N()
	b := computation.NewBuilder(n)
	for i := 0; i < n; i++ {
		for _, name := range comp.Vars(i) {
			if v, ok := comp.Value(i, 0, name); ok && v != 0 {
				b.SetInitial(i, name, v)
			}
		}
	}
	// Per-process schedules: original events interleaved with control
	// items. sendAfter[i][k] lists syncs whose send attaches after event
	// (i,k); recvBefore[j][l] lists syncs whose receive attaches before
	// event (j,l).
	sendAfter := make(map[[2]int][]int)
	recvBefore := make(map[[2]int][]int)
	for si, s := range syncs {
		if s.AfterProc < 0 || s.AfterProc >= n || s.AfterIndex < 1 || s.AfterIndex > comp.Len(s.AfterProc) {
			return nil, fmt.Errorf("control: sync %v references a missing event", s)
		}
		if s.BeforeProc < 0 || s.BeforeProc >= n || s.BeforeIndex < 1 || s.BeforeIndex > comp.Len(s.BeforeProc) {
			return nil, fmt.Errorf("control: sync %v references a missing event", s)
		}
		sendAfter[[2]int{s.AfterProc, s.AfterIndex}] = append(sendAfter[[2]int{s.AfterProc, s.AfterIndex}], si)
		recvBefore[[2]int{s.BeforeProc, s.BeforeIndex}] = append(recvBefore[[2]int{s.BeforeProc, s.BeforeIndex}], si)
	}
	// Per-process item schedules: for each original event, first the due
	// control receives, then the event, then the attached control sends.
	type item struct {
		kind string // "orig", "ctlSend", "ctlRecv"
		k    int    // original event index for "orig"
		si   int    // sync index for control items
	}
	items := make([][]item, n)
	for i := 0; i < n; i++ {
		for k := 1; k <= comp.Len(i); k++ {
			for _, si := range recvBefore[[2]int{i, k}] {
				items[i] = append(items[i], item{kind: "ctlRecv", si: si})
			}
			items[i] = append(items[i], item{kind: "orig", k: k})
			for _, si := range sendAfter[[2]int{i, k}] {
				items[i] = append(items[i], item{kind: "ctlSend", si: si})
			}
		}
	}
	// Ready-list replay.
	ptr := make([]int, n)
	ctrlMsgs := make(map[int]computation.Msg, len(syncs))
	origMsgs := make(map[int]computation.Msg)
	total := comp.TotalEvents() + 2*len(syncs)
	for built := 0; built < total; {
		progressed := false
		for i := 0; i < n; i++ {
			if ptr[i] >= len(items[i]) {
				continue
			}
			it := items[i][ptr[i]]
			switch it.kind {
			case "ctlRecv":
				m, sent := ctrlMsgs[it.si]
				if !sent {
					continue
				}
				ev := b.Receive(i, m)
				ev.Label = fmt.Sprintf("ctl%d", it.si)
			case "ctlSend":
				ev, m := b.Send(i)
				ev.Label = fmt.Sprintf("ctl%d", it.si)
				ctrlMsgs[it.si] = m
			case "orig":
				e := comp.Event(i, it.k)
				var ne *computation.Event
				switch e.Kind {
				case computation.Internal:
					ne = b.Internal(i)
				case computation.Send:
					var m computation.Msg
					ne, m = b.Send(i)
					origMsgs[e.Msg] = m
				case computation.Receive:
					m, sent := origMsgs[e.Msg]
					if !sent {
						continue
					}
					ne = b.Receive(i, m)
				}
				ne.Label = e.Label
				for _, a := range comp.AppendAssignments(nil, e) {
					computation.Set(ne, a.Name, a.Value)
				}
			}
			ptr[i]++
			built++
			progressed = true
		}
		if !progressed {
			return nil, fmt.Errorf("control: synchronizations are cyclic (deadlock after %d of %d events)", built, total)
		}
	}
	out, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("control: %w", err)
	}
	return out, nil
}

// Controlled runs the whole pipeline: decide controllability, synthesize,
// apply, and return the controlled computation together with the
// synchronizations. ok is false when EG(p) does not hold.
func Controlled(comp *computation.Computation, p predicate.Linear) (*computation.Computation, []Sync, bool) {
	syncs, ok := Synthesize(comp, p)
	if !ok {
		return nil, nil, false
	}
	controlled, err := Apply(comp, syncs)
	if err != nil {
		// Synthesize output is acyclic by construction; an error here is a
		// bug, surface it loudly.
		panic(err)
	}
	return controlled, syncs, true
}

// SortSyncs orders synchronizations deterministically for display.
func SortSyncs(syncs []Sync) {
	sort.Slice(syncs, func(a, b int) bool {
		x, y := syncs[a], syncs[b]
		if x.AfterProc != y.AfterProc {
			return x.AfterProc < y.AfterProc
		}
		if x.AfterIndex != y.AfterIndex {
			return x.AfterIndex < y.AfterIndex
		}
		if x.BeforeProc != y.BeforeProc {
			return x.BeforeProc < y.BeforeProc
		}
		return x.BeforeIndex < y.BeforeIndex
	})
}
