// Package lattice materializes the finite distributive lattice
// L = (C(E), ⊆) of consistent cuts of a computation.
//
// Explicit construction is exponential in the number of processes — it is
// the state-explosion baseline the paper's algorithms avoid — but it is
// indispensable as ground truth: every structural detection algorithm in
// this module is cross-validated against it, and the predicate-class
// checkers (linearity, regularity, stability) are defined over it.
package lattice

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/computation"
	"repro/internal/obs"
	"repro/internal/predicate"
)

var (
	metBuilds = obs.Default().Counter("hb_lattice_builds_total",
		"Explicit lattice constructions completed.")
	metCutsEnumerated = obs.Default().Counter("hb_lattice_cuts_enumerated_total",
		"Consistent cuts enumerated by completed lattice constructions.")
)

// Lattice is the explicitly enumerated lattice of consistent cuts. Nodes
// are indexed 0..Size()-1 in BFS-from-∅ order (so node 0 is the initial
// cut); Final is the index of E.
type Lattice struct {
	comp  *computation.Computation
	cuts  []computation.Cut
	index *computation.CutIndex // cut → node index
	succs [][]int               // covers: succs[i] lists j with cuts[i] ▷ cuts[j]
	preds [][]int
	final int
}

// MaxSize bounds lattice construction; Build fails beyond it rather than
// exhausting memory. Exported so tests and the harness can reason about the
// explosion boundary.
const MaxSize = 2_000_000

// Build enumerates the lattice of comp. It returns an error if the lattice
// exceeds MaxSize cuts.
func Build(comp *computation.Computation) (*Lattice, error) {
	return BuildLimited(comp, MaxSize)
}

// BuildLimited is Build with an explicit cut-count bound.
func BuildLimited(comp *computation.Computation, maxCuts int) (*Lattice, error) {
	l := &Lattice{
		comp:  comp,
		index: computation.NewCutIndex(comp),
	}
	initial := comp.InitialCut()
	l.cuts = append(l.cuts, initial)
	l.index.Insert(initial)
	for head := 0; head < len(l.cuts); head++ {
		cur := l.cuts[head]
		var ss []int
		for _, next := range comp.Successors(cur) {
			idx, added := l.index.Insert(next)
			if added {
				if len(l.cuts) >= maxCuts {
					return nil, fmt.Errorf("lattice: more than %d consistent cuts", maxCuts)
				}
				l.cuts = append(l.cuts, next)
			}
			ss = append(ss, idx)
		}
		l.succs = append(l.succs, ss)
	}
	l.preds = make([][]int, len(l.cuts))
	for i, ss := range l.succs {
		for _, j := range ss {
			l.preds[j] = append(l.preds[j], i)
		}
	}
	l.final, _ = l.index.Lookup(comp.FinalCut())
	// One batched add per build keeps the enumeration loop free of atomics.
	metBuilds.Inc()
	metCutsEnumerated.Add(int64(len(l.cuts)))
	return l, nil
}

// MustBuild is Build that panics on error, for fixtures known to be small.
func MustBuild(comp *computation.Computation) *Lattice {
	l, err := Build(comp)
	if err != nil {
		panic(err)
	}
	return l
}

// Computation returns the underlying computation.
func (l *Lattice) Computation() *computation.Computation { return l.comp }

// Size returns the number of consistent cuts.
func (l *Lattice) Size() int { return len(l.cuts) }

// Cut returns the cut of node i.
func (l *Lattice) Cut(i int) computation.Cut { return l.cuts[i] }

// Cuts returns all cuts in node order. The slice must not be modified.
func (l *Lattice) Cuts() []computation.Cut { return l.cuts }

// Initial returns the node index of ∅ (always 0).
func (l *Lattice) Initial() int { return 0 }

// Final returns the node index of E.
func (l *Lattice) Final() int { return l.final }

// Index returns the node index of a cut, or -1 if the cut is not a
// consistent cut of the computation.
func (l *Lattice) Index(c computation.Cut) int {
	idx, _ := l.index.Lookup(c)
	return idx
}

// Succs returns the covers of node i (the cuts one event above).
func (l *Lattice) Succs(i int) []int { return l.succs[i] }

// Preds returns the co-covers of node i (the cuts one event below).
func (l *Lattice) Preds(i int) []int { return l.preds[i] }

// MeetIrreducibles returns the node indexes of the meet-irreducible
// elements: in a finite distributive lattice these are exactly the elements
// with a single upper cover (one outgoing edge), excluding the top.
func (l *Lattice) MeetIrreducibles() []int {
	var out []int
	for i, ss := range l.succs {
		if i != l.final && len(ss) == 1 {
			out = append(out, i)
		}
	}
	return out
}

// JoinIrreducibles returns the node indexes of the join-irreducible
// elements: the elements with a single lower cover, excluding the bottom.
func (l *Lattice) JoinIrreducibles() []int {
	var out []int
	for i, ps := range l.preds {
		if i != 0 && len(ps) == 1 {
			out = append(out, i)
		}
	}
	return out
}

// Sat returns the node indexes of the cuts satisfying p, in node order.
func (l *Lattice) Sat(p predicate.Predicate) []int {
	var out []int
	for i, c := range l.cuts {
		if p.Eval(l.comp, c) {
			out = append(out, i)
		}
	}
	return out
}

// CountPaths returns the number of maximal-cut-sequence prefixes from ∅ to
// each node, i.e. the number of paths from the initial cut. Counts saturate
// at MaxSize to avoid overflow on large lattices.
func (l *Lattice) CountPaths() []int64 {
	counts := make([]int64, len(l.cuts))
	counts[0] = 1
	// Nodes are in BFS order from ∅, which is a topological order of the
	// cover DAG (each edge adds one event).
	for i, ss := range l.succs {
		for _, j := range ss {
			counts[j] += counts[i]
		}
	}
	return counts
}

// Stats summarizes a lattice for reporting.
type Stats struct {
	Events           int
	Processes        int
	Cuts             int
	Edges            int
	MeetIrreducibles int
	JoinIrreducibles int
	Height           int   // length of every maximal chain = |E|
	MaximalPaths     int64 // number of maximal cut sequences ∅ → E
}

// ComputeStats gathers lattice statistics.
func (l *Lattice) ComputeStats() Stats {
	edges := 0
	for _, ss := range l.succs {
		edges += len(ss)
	}
	paths := l.CountPaths()
	return Stats{
		Events:           l.comp.TotalEvents(),
		Processes:        l.comp.N(),
		Cuts:             l.Size(),
		Edges:            edges,
		MeetIrreducibles: len(l.MeetIrreducibles()),
		JoinIrreducibles: len(l.JoinIrreducibles()),
		Height:           l.comp.TotalEvents(),
		MaximalPaths:     paths[l.final],
	}
}

// String implements fmt.Stringer for Stats.
func (s Stats) String() string {
	return fmt.Sprintf("n=%d |E|=%d cuts=%d edges=%d meet-irr=%d join-irr=%d paths=%d",
		s.Processes, s.Events, s.Cuts, s.Edges, s.MeetIrreducibles, s.JoinIrreducibles, s.MaximalPaths)
}

// DOT renders the lattice in Graphviz format. Nodes satisfying mark (if
// non-nil) are filled, mirroring the paper's figures.
func (l *Lattice) DOT(mark predicate.Predicate) string {
	var b strings.Builder
	b.WriteString("digraph lattice {\n  rankdir=BT;\n  node [shape=circle fontsize=10];\n")
	for i, c := range l.cuts {
		attrs := fmt.Sprintf("label=%q", c.String())
		if mark != nil && mark.Eval(l.comp, c) {
			attrs += " style=filled fillcolor=gray80"
		}
		fmt.Fprintf(&b, "  n%d [%s];\n", i, attrs)
	}
	// Deterministic edge order.
	for i, ss := range l.succs {
		sorted := append([]int(nil), ss...)
		sort.Ints(sorted)
		for _, j := range sorted {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", i, j)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
