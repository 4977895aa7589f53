package core

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pir"
)

// Stats records the work one Detect run performed — the paper's complexity
// claims as observed numbers. It is attached to every Result, aggregated
// across the boolean recursion of the formula.
//
// The collection discipline keeps the hot paths honest: algorithms thread
// a *Stats through unexported variants, every increment is a nil-checked
// plain add (one predictable branch — no locks, no atomics on the per-cut
// path), and the exported algorithm entry points pass nil, so direct
// callers (benchmarks included) pay only the nil check.
type Stats struct {
	// Algorithm is the dispatcher's choice, mirroring Result.Algorithm.
	Algorithm string `json:"algorithm"`
	// CutsVisited counts consistent cuts materialized, advanced through, or
	// expanded during search.
	CutsVisited int64 `json:"cuts_visited"`
	// PredicateEvals counts global-predicate evaluations, the unit of the
	// paper's O(n|E|) bounds. Local (per-state) conjunct evaluations count
	// here too — they are the evaluation unit of the interval algorithms.
	PredicateEvals int64 `json:"predicate_evals"`
	// ForbiddenCalls counts Forbidden/Retreat oracle calls (advancement
	// algorithms).
	ForbiddenCalls int64 `json:"forbidden_calls"`
	// AdvancementSteps counts cut advancements/retreats and interval
	// candidate eliminations — the progress steps the linearity proofs
	// bound by |E|.
	AdvancementSteps int64 `json:"advancement_steps"`
	// MemoHits counts memoized-failure hits in the exponential solvers.
	MemoHits int64 `json:"memo_hits"`
	// ShortCircuits counts boolean operands skipped because the other
	// operand already decided the combination — potentially-exponential
	// work the dispatcher provably never started.
	ShortCircuits int64 `json:"short_circuits"`
	// SliceBuild is the wall-clock time spent constructing computation
	// slices (KindSliceFactor dispatches; zero when no slice was built).
	SliceBuild time.Duration `json:"slice_build_ns"`
	// SliceEventsKept / SliceEventsEliminated count events that survived
	// in, respectively were removed by, the slices built this run. An
	// eliminated event appears in no satisfying cut of the regular factor,
	// so the sliced search provably never visits a cut containing it.
	SliceEventsKept       int64 `json:"slice_events_kept"`
	SliceEventsEliminated int64 `json:"slice_events_eliminated"`
	// SliceCutsEnumerated counts cuts of the slice sublattice the factored
	// search visited — the |slice| of its O(|slice|·n) bound, to compare
	// against the 2^|E| the unsliced cell would have searched.
	SliceCutsEnumerated int64 `json:"slice_cuts_enumerated"`
	// WitnessLength is the length of the returned witness path (0 when
	// none).
	WitnessLength int `json:"witness_length"`
	// Duration is the wall-clock time of the Detect run.
	Duration time.Duration `json:"duration_ns"`
	// Choice is the Table 1 dispatch decision of the run's first temporal
	// operator (nil for purely boolean/local formulas). Excluded from the
	// JSON form — the slow-detection log flattens the fields it needs.
	Choice *pir.Choice `json:"-"`
}

// choice records the first Table 1 dispatch of the run — the cell the
// slow-detection log attributes a slow run to.
func (s *Stats) choice(c pir.Choice) {
	if s != nil && s.Choice == nil {
		s.Choice = &c
	}
}

func (s *Stats) cuts(n int64) {
	if s != nil {
		s.CutsVisited += n
	}
}

func (s *Stats) evals(n int64) {
	if s != nil {
		s.PredicateEvals += n
	}
}

func (s *Stats) forbidden(n int64) {
	if s != nil {
		s.ForbiddenCalls += n
	}
}

func (s *Stats) advance(n int64) {
	if s != nil {
		s.AdvancementSteps += n
	}
}

func (s *Stats) memo(n int64) {
	if s != nil {
		s.MemoHits += n
	}
}

func (s *Stats) short(n int64) {
	if s != nil {
		s.ShortCircuits += n
	}
}

func (s *Stats) sliceBuild(d time.Duration) {
	if s != nil {
		s.SliceBuild += d
	}
}

func (s *Stats) sliceEvents(kept, eliminated int64) {
	if s != nil {
		s.SliceEventsKept += kept
		s.SliceEventsEliminated += eliminated
	}
}

func (s *Stats) sliceCuts(n int64) {
	if s != nil {
		s.SliceCutsEnumerated += n
	}
}

// Engine-wide metrics, fed once per Detect run (batched from the per-run
// Stats, so the per-cut loops never touch an atomic).
var (
	metDetectRuns  = obs.Default().Counter("hb_detect_runs_total", "Detect runs completed")
	metDetectCuts  = obs.Default().Counter("hb_detect_cuts_visited_total", "consistent cuts visited by detection algorithms")
	metDetectEvals = obs.Default().Counter("hb_detect_predicate_evals_total", "predicate evaluations performed by detection algorithms")
	metDetectDur   = obs.Default().Histogram("hb_detect_duration_seconds", "wall-clock duration of Detect runs", nil)
)

func (s *Stats) publish() {
	metDetectRuns.Inc()
	metDetectCuts.Add(s.CutsVisited)
	metDetectEvals.Add(s.PredicateEvals)
	metDetectDur.Observe(s.Duration.Seconds())
}

// tracer, when set, receives one span per top-level Detect run — the
// structured detection trace consumed by hbdetect -trace-jsonl.
var tracer atomic.Pointer[obs.Tracer]

// SetTracer installs (or, with nil, removes) the detection-trace sink.
func SetTracer(t *obs.Tracer) { tracer.Store(t) }

// slowLog, when set, receives one structured record per Detect run whose
// duration crosses the log's threshold: the formula, the Table 1 choice
// that routed it, and the full Stats — enough to aim computation slicing
// at the hot cells without re-running anything.
var slowLog atomic.Pointer[obs.SlowLog]

// SetSlowLog installs (or, with nil, removes) the slow-detection log.
func SetSlowLog(l *obs.SlowLog) { slowLog.Store(l) }

// slowDetection is the JSONL record of one over-threshold Detect run.
type slowDetection struct {
	TS         string `json:"ts"`
	Formula    string `json:"formula"`
	Algorithm  string `json:"algorithm"`
	Holds      bool   `json:"holds"`
	DurationUS int64  `json:"dur_us"`
	// The Table 1 dispatch that routed the run (empty for purely
	// boolean/local formulas).
	Cell       string `json:"cell,omitempty"`
	Complexity string `json:"complexity,omitempty"`
	Reason     string `json:"reason,omitempty"`
	// The run's work counters, cut counts included.
	Stats *Stats `json:"stats"`
}

// emitSlow records the run in the slow-detection log when its duration
// crosses the threshold. One atomic load plus a comparison on the fast
// path; the record is only built for genuinely slow runs.
func emitSlow(formula string, r Result, st *Stats) {
	sl := slowLog.Load()
	if !sl.Exceeds(st.Duration) {
		return
	}
	rec := slowDetection{
		TS:         time.Now().UTC().Format(time.RFC3339Nano),
		Formula:    formula,
		Algorithm:  st.Algorithm,
		Holds:      r.Holds,
		DurationUS: st.Duration.Microseconds(),
		Stats:      st,
	}
	if c := st.Choice; c != nil {
		rec.Cell, rec.Complexity, rec.Reason = c.Cell, c.Complexity, c.Reason
	}
	sl.Record(rec)
}

func emitSpan(formula string, r Result, st *Stats) {
	t := tracer.Load()
	if t == nil {
		return
	}
	sp := t.Start("detect")
	sp.Set("formula", formula)
	sp.Set("algorithm", st.Algorithm)
	sp.Set("holds", r.Holds)
	sp.Set("cuts_visited", st.CutsVisited)
	sp.Set("predicate_evals", st.PredicateEvals)
	sp.Set("forbidden_calls", st.ForbiddenCalls)
	sp.Set("advancement_steps", st.AdvancementSteps)
	sp.Set("memo_hits", st.MemoHits)
	sp.Set("short_circuits", st.ShortCircuits)
	sp.Set("slice_build_ns", int64(st.SliceBuild))
	sp.Set("slice_events_kept", st.SliceEventsKept)
	sp.Set("slice_events_eliminated", st.SliceEventsEliminated)
	sp.Set("slice_cuts_enumerated", st.SliceCutsEnumerated)
	sp.Set("witness_length", st.WitnessLength)
	sp.End()
}
