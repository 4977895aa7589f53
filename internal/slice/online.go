package slice

import (
	"repro/internal/computation"
	"repro/internal/vclock"
)

// Online is the incremental slice cursor for a conjunctive predicate over
// an unfolding computation — the online counterpart of the offline J
// tables. Instead of retaining the whole observed prefix, it retains, per
// constrained process, only the queue of candidate local states that may
// still head the predicate's least satisfying cut; pairwise vector-clock
// elimination (Garg–Waldecker) pops candidates that can never appear in
// one. The retained candidates are exactly the frontier of the slice, so
// a long-lived monitor holds O(slice) state instead of O(|E|).
//
// The cursor is fed by its owner: Offer pushes a local state in which the
// process's conjuncts hold, Step runs elimination to a fixed point. Once
// every constrained process has a pairwise-compatible head, the cursor
// fires with the least satisfying cut (the join of the head start
// clocks); the verdict latches.
type Online struct {
	n     int
	procs []int // constrained processes, registration order

	// queues[i] is process i's candidate local states, ascending; nil
	// for unconstrained processes. Candidates are popped exactly once —
	// deadness is monotone along a queue.
	queues [][]Candidate

	// Elimination worklist: processes whose queue head changed since the
	// last fixed point. Only heads on the worklist need re-comparing, so
	// elimination continues in place instead of restarting the full
	// pairwise scan after every push.
	dirty    []int
	inDirty  []bool // indexed by process
	cmps     int    // head comparisons performed (cost instrumentation)
	retained int    // candidates queued across all processes

	fired bool
	cut   computation.Cut
}

// Candidate is one queued local state: a state index on its process and
// the vector clock of the event that began it (nil for state 0, which
// began at -∞).
type Candidate struct {
	State int
	Start vclock.VC
}

// NewOnline returns a cursor over n processes constrained on procs (in
// registration order, without duplicates). With no constrained processes
// the empty conjunction holds at ∅ and the cursor fires immediately.
func NewOnline(n int, procs []int) *Online {
	o := &Online{
		n:       n,
		procs:   procs,
		queues:  make([][]Candidate, n),
		inDirty: make([]bool, n),
	}
	if len(procs) == 0 {
		o.fired = true
		o.cut = computation.NewCut(n)
	}
	return o
}

// Fired reports whether a satisfying cut has been found; Cut returns it.
func (o *Online) Fired() bool { return o.fired }

// Cut returns the least satisfying cut once Fired; nil before.
func (o *Online) Cut() computation.Cut { return o.cut }

// Retained returns the number of candidate local states currently queued
// — the events' worth of state the cursor holds. This is the O(slice)
// bound: everything else about the observed prefix has been discarded.
func (o *Online) Retained() int { return o.retained }

// Comparisons returns the head comparisons performed so far.
func (o *Online) Comparisons() int { return o.cmps }

// Dirty reports whether elimination work is pending (a queue head changed
// since the last Step).
func (o *Online) Dirty() bool { return len(o.dirty) > 0 }

// Offer pushes a candidate local state on proc: the process's conjuncts
// hold in state, which began at the event with clock start (nil for state
// 0). States must be offered in ascending order per process. Only a new
// HEAD can enable an elimination or a firing — a candidate queued behind
// an existing head changes neither — so the push is O(1) and Step after a
// non-head push is a no-op.
func (o *Online) Offer(proc, state int, start vclock.VC) {
	if o.fired {
		return
	}
	o.queues[proc] = append(o.queues[proc], Candidate{State: state, Start: start})
	o.retained++
	if len(o.queues[proc]) == 1 {
		o.markDirty(proc)
	}
}

// markDirty queues a process for head re-comparison.
func (o *Online) markDirty(proc int) {
	if !o.inDirty[proc] {
		o.inDirty[proc] = true
		o.dirty = append(o.dirty, proc)
	}
}

// Step continues head elimination from the processes whose heads changed
// since the last fixed point, then fires if every constrained process has
// a compatible head. Unlike a full pairwise rescan per pop, each pop
// costs O(n): only the popped process's new head (and heads it kills)
// re-enter the worklist, and a pair of unchanged heads is never
// re-compared — the amortized per-event cost is O(n · pops + 1).
//
// Head (i, k) is dead with respect to head (j, k') when state (i, k) ends
// before state (j, k') begins in every interleaving — i.e. event (i, k+1)
// happened-before event (j, k'), which the clocks express as
// start_j[i] ≥ k+1. Deadness is monotone along j's queue (later starts
// dominate), so popping is safe and each candidate is popped at most once.
func (o *Online) Step() {
	if o.fired {
		return
	}
	for len(o.dirty) > 0 {
		i := o.dirty[len(o.dirty)-1]
		o.dirty = o.dirty[:len(o.dirty)-1]
		o.inDirty[i] = false
		if len(o.queues[i]) == 0 {
			continue // no head to verify; a future candidate re-dirties i
		}
		hi := o.queues[i][0]
		dead := false
		for _, j := range o.procs {
			if j == i {
				continue
			}
			// Re-compare against j's head, following pops of j in place
			// (an empty queue j is skipped: the pair is verified from j's
			// side when j regains a head and is marked dirty).
			for len(o.queues[j]) > 0 {
				hj := o.queues[j][0]
				o.cmps++
				if hj.Start != nil && hj.Start[i] >= hi.State+1 {
					o.queues[i] = o.queues[i][1:]
					o.retained--
					dead = true
					break
				}
				if hi.Start != nil && hi.Start[j] >= hj.State+1 {
					o.queues[j] = o.queues[j][1:]
					o.retained--
					o.markDirty(j)
					continue // j's next head against the same hi
				}
				break // pair alive
			}
			if dead {
				break
			}
		}
		if dead {
			o.markDirty(i) // restart i with its new head
		}
	}
	// Fixed point: fire only if every constrained process has a head (all
	// verified pairwise alive above).
	for _, proc := range o.procs {
		if len(o.queues[proc]) == 0 {
			return
		}
	}
	// Pairwise compatible: the least cut exposing all heads is the join
	// of their start clocks; compatibility pins each constrained
	// coordinate to its head's state.
	cut := computation.NewCut(o.n)
	for _, proc := range o.procs {
		h := o.queues[proc][0]
		if h.Start == nil {
			continue
		}
		for j, x := range h.Start {
			if x > cut[j] {
				cut[j] = x
			}
		}
	}
	o.fired = true
	o.cut = cut
	// The verdict latches; the candidates have served their purpose, so a
	// fired cursor retains nothing.
	o.queues, o.retained = nil, 0
	o.dirty, o.inDirty = nil, nil
}
