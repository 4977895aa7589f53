package main

import (
	"fmt"
	"strings"

	"repro/internal/server"
)

// metricDef is one row of BENCHMARK.json; Bound is set on end-to-end
// metrics only.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system pays for. Every workload
// reports every one of them on its own inputs. Failed operations are the
// "failed" of "attempted" on the result line, not a metric.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"detect_s", "s", "lower", 0.25},
	{"ingest_events_per_s", "1/s", "higher", 0.25},
	{"session_live_bytes_per_event", "B", "lower", 0.10},
	{"verdict_latency_p50_ms.lo", "ms", "lower", 0.25},
	{"verdict_latency_p50_ms.hi", "ms", "lower", 0.25},
	{"failover_outage_ms", "ms", "lower", 0.20},
}

// cells are the Table 1 cells core.detect_ms.<cell> is reported for.
var cells = []string{
	"ef_conj", "af_conj", "eg_a1", "ag_a2", "ef_disj", "af_disj", "eg_disj",
	"ag_disj", "eu_a3", "au_disj", "ef_channels", "eg_channels", "stable",
}

var stages = []string{server.StageDecode, server.StageEnqueue, server.StageApply, server.StageVerdict}

// perLayer lists the single-layer metrics of the traced run, each taken
// from outside by timing calls into the layer's public functions. A
// workload that does not exercise a layer reports 0 for it.
var perLayer = func() []metricDef {
	m := []metricDef{
		{Name: "trace.decode_ns_per_event", Unit: "ns", Better: "lower"},
		{Name: "ctl.parse_us_per_formula", Unit: "us", Better: "lower"},
		{Name: "pir.compile_us_per_formula", Unit: "us", Better: "lower"},
		{Name: "pir.bind_ns_per_event", Unit: "ns", Better: "lower"},
	}
	for _, c := range cells {
		m = append(m, metricDef{Name: "core.detect_ms." + c, Unit: "ms", Better: "lower"})
	}
	m = append(m,
		metricDef{Name: "core.cuts_visited", Unit: "count", Better: "lower"},
		metricDef{Name: "core.predicate_evals", Unit: "count", Better: "lower"},
		metricDef{Name: "core.forbidden_calls", Unit: "count", Better: "lower"},
		metricDef{Name: "core.advancement_steps", Unit: "count", Better: "lower"},
		metricDef{Name: "core.slice_build_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "core.slice_cuts_enumerated", Unit: "count", Better: "lower"},
		metricDef{Name: "core.slice_events_eliminated", Unit: "count", Better: "higher"},
		metricDef{Name: "slice.incremental_build_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "computation.build_ns_per_event", Unit: "ns", Better: "lower"},
		metricDef{Name: "vclock.merge_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "vclock.lesseq_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "pir.batch_encode_ns_per_event", Unit: "ns", Better: "lower"},
		metricDef{Name: "pir.batch_decode_ns_per_event", Unit: "ns", Better: "lower"},
		metricDef{Name: "pir.batch_bytes_per_event", Unit: "B", Better: "lower"},
		metricDef{Name: "server.scan_ns_per_frame", Unit: "ns", Better: "lower"},
		metricDef{Name: "server.ndjson_decode_ns_per_event", Unit: "ns", Better: "lower"},
		metricDef{Name: "server.session_ingest_ns_per_event", Unit: "ns", Better: "lower"},
		metricDef{Name: "server.dropped_events", Unit: "count", Better: "lower"},
	)
	for _, s := range stages {
		m = append(m, metricDef{Name: "server.stage_seconds." + s, Unit: "s", Better: "lower"})
	}
	m = append(m,
		metricDef{Name: "server.allocs_per_event", Unit: "count", Better: "lower"},
		metricDef{Name: "online.apply_ns_per_event", Unit: "ns", Better: "lower"},
		metricDef{Name: "online.apply_bounded_ns_per_event", Unit: "ns", Better: "lower"},
		metricDef{Name: "online.allocs_per_event", Unit: "count", Better: "lower"},
		metricDef{Name: "online.retained_events", Unit: "count", Better: "lower"},
		metricDef{Name: "online.snapshot_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "online.watch_check_ns_per_event_per_watch", Unit: "ns", Better: "lower"},
		metricDef{Name: "slice.online_ns_per_offer", Unit: "ns", Better: "lower"},
		metricDef{Name: "slice.online_comparisons_per_event", Unit: "count", Better: "lower"},
		metricDef{Name: "slice.online_retained", Unit: "count", Better: "lower"},
		metricDef{Name: "client.send_ns_per_event", Unit: "ns", Better: "lower"},
		metricDef{Name: "client.blocked_share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "cluster.standalone_events_per_s", Unit: "1/s", Better: "higher"},
		metricDef{Name: "cluster.repl_overhead_ratio", Unit: "ratio", Better: "lower"},
		metricDef{Name: "cluster.ack_stall_max_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "cluster.replayed_frames", Unit: "count", Better: "lower"},
		metricDef{Name: "cluster.reconnects", Unit: "count", Better: "lower"},
		// The p99s are measured like the p50s above, but their run-to-run
		// spread on the 2-core box (30% to 150% of the median) is wider than
		// any bound a metric may have, so they have none.
		metricDef{Name: "verdict_latency_p99_ms.lo", Unit: "ms", Better: "lower"},
		metricDef{Name: "verdict_latency_p99_ms.hi", Unit: "ms", Better: "lower"},
		metricDef{Name: "bench.generator_lag_p99_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "ingest.unexplained_share", Unit: "ratio", Better: "lower"},
	)
	return m
}()

// formula is one offline detection of a workload's batch.
type formula struct {
	src string
	// cell is the Table 1 cell whose core.detect_ms.<cell> the formula
	// is timed under; "" for formulas that only serve as oracles.
	cell string
	// want is the verdict the generator fixes by construction.
	want bool
	// same groups formulas that different Table 1 cells must decide
	// alike (dual pairs); "" for none.
	same string
	// sliced formulas must report a slice phase.
	sliced bool
}

// traceSpec is one trace of a workload's offline batch.
type traceSpec struct {
	label    string
	n        int
	events   int
	formulas func(f *feed) []formula
}

// workload fixes every input of one benchmark workload: the offline
// (trace × formula) batch, and the session shape, watches, encoding and
// topology its serving phases use. Sizes are scaled by the -scale flag.
type workload struct {
	name string
	why  string

	traces []traceSpec

	procs    int // processes of every session
	events   int // events of one closed-loop session
	watches  func(f *feed) []server.Watch
	encoding string
	batch    int // events per binary batch, and per paced tick
	bounded  bool
	cluster  bool // 3 nodes, 2 copies, keyed reconnecting sessions

	// The paced and recovery phases stream shorter sessions: pacedEvents
	// with pacedWatches staggered EF watches (so that verdicts are dense
	// enough for a p99), recoverEvents with the workload's own watches.
	pacedEvents   int
	recoverEvents int
	// rateLo and rateHi are the open-loop rates in events/s, summed over
	// both connections: about 5% and 15% of what the closed loop reaches
	// with this workload's paced sessions on the 2-core sizing box. The
	// box's memory speed swings by a factor of two with its neighbours,
	// and a paced session flushes every tick, so higher steps overload in
	// its slow spells.
	rateLo, rateHi float64
}

const pacedWatches = 64

// tokenBoth never holds on a consistent cut: the token is passed by
// message, so its two holders are causally ordered.
const tokenBoth = "conj(tok@P1 == 1, tok@P2 == 1)"

// stepsNonNegative holds in every state of n processes.
func stepsNonNegative(n int) string { return cmpAll("conj", "step", ">=", 0, allProcs(n)...) }

// characterWatches are the four watches of the ingest workloads: an EF
// that fires near the middle, an EF that fires in the last 1%, an EF
// whose conjuncts hold locally on about half the states but never
// jointly (its queues stay live for the whole session), and an AG that
// is never violated.
func characterWatches(f *feed) []server.Watch {
	all := allProcs(f.n)
	return []server.Watch{
		{Op: "EF", Pred: f.stepConj(0.5, all...)},
		{Op: "EF", Pred: f.stepConj(0.995, all...)},
		{Op: "EF", Pred: tokenBoth},
		{Op: "AG", Pred: stepsNonNegative(f.n)},
	}
}

// staggeredWatches are k EF watches that fire evenly spread over the
// session, plus one AG that never does.
func staggeredWatches(f *feed, k int) []server.Watch {
	all := allProcs(f.n)
	ws := make([]server.Watch, 0, k+1)
	for j := 1; j <= k; j++ {
		ws = append(ws, server.Watch{Op: "EF", Pred: f.stepConj(float64(j)/float64(k+1), all...)})
	}
	return append(ws, server.Watch{Op: "AG", Pred: stepsNonNegative(f.n)})
}

// table1Formulas are the polynomial cells of the paper's Table 1 as
// source strings. Thresholds make AG, EG, EU and the false EF sweep the
// whole trace. Formulas sharing a "same" label are duals decided by
// different cells.
func table1Formulas(f *feed) []formula {
	all := allProcs(f.n)
	nonNeg := stepsNonNegative(f.n)
	neg := cmpAll("disj", "step", "<", 0, all...)
	late := f.stepConj(0.995, all...)
	k := f.stepAt(0, 0.995)
	return []formula{
		{src: "EF(" + late + ")", cell: "ef_conj", want: true},
		{src: "!EF(" + tokenBoth + ")", cell: "ef_conj", want: true, same: "mutex"},
		{src: "AG(disj(tok@P1 == 0, tok@P2 == 0))", cell: "ag_disj", want: true, same: "mutex"},
		{src: "AG(" + nonNeg + ")", cell: "ag_a2", want: true, same: "inv"},
		{src: "!EF(" + neg + ")", cell: "ef_disj", want: true, same: "inv"},
		{src: "EG(" + nonNeg + ")", cell: "eg_a1", want: true, same: "path"},
		{src: "!AF(" + neg + ")", cell: "af_disj", want: true, same: "path"},
		{src: "AF(" + f.stepConj(0.5, all...) + ")", cell: "af_conj", want: true, same: "half"},
		{src: "!EG(" + f.stepPred("disj", "<", 0.5, all...) + ")", cell: "eg_disj", want: true, same: "half"},
		{src: "E[" + nonNeg + " U " + late + "]", cell: "eu_a3", want: true},
		{src: fmt.Sprintf("A[disj(step@P1 >= 0) U disj(step@P1 >= %d)]", k), cell: "au_disj", want: true, same: "until"},
		{src: fmt.Sprintf("!(E[conj(step@P1 < %d) U conj(step@P1 < %d, step@P1 < 0)] || EG(conj(step@P1 < %d)))", k, k, k), want: true, same: "until"},
		{src: "EF(terminated)", cell: "stable", want: true},
	}
}

// channelFormulas are the channelsEmpty cells, whose cost per cut grows
// with the messages of the trace: they run on short traces only.
func channelFormulas(f *feed) []formula {
	all := allProcs(f.n)
	return []formula{
		{src: "EF(channelsEmpty && " + f.stepConj(0.995, all...) + ")", cell: "ef_channels", want: true},
		{src: "EG(channelsEmpty && " + stepsNonNegative(f.n) + ")", cell: "eg_channels", want: false},
	}
}

// edgeConj returns the regular factors of the sliced formulas: top holds
// once every process has at most keep events left, bottom while every
// process has done at most keep.
func edgeConj(f *feed, keep int) (top, bottom string) {
	hi, lo := make([]string, f.n), make([]string, f.n)
	for p := 0; p < f.n; p++ {
		hi[p] = fmt.Sprintf("step@P%d >= %d", p+1, max(f.counts[p]-keep, 0))
		lo[p] = fmt.Sprintf("step@P%d <= %d", p+1, min(keep, f.counts[p]))
	}
	return "conj(" + strings.Join(hi, ", ") + ")", "conj(" + strings.Join(lo, ", ") + ")"
}

// slicedFormulas are arbitrary cells that route through the slice of a
// regular conjunctive factor. The factor leaves every process its last
// (or first) keep events, so the slice is a sublattice of a few thousand
// cuts, and a remainder that never holds makes the search visit all of
// it.
func slicedFormulas(keep int) func(f *feed) []formula {
	return func(f *feed) []formula {
		top, bottom := edgeConj(f, keep)
		const never = "(x@P1 < 0 || x@P2 < 0)"
		const held = "(tok@P1 == 1 || tok@P2 == 1)" // somebody holds the token at the final cut
		return []formula{
			{src: "!EF(" + top + " && " + never + ")", want: true, same: "top", sliced: true},
			{src: "AG(!(" + top + " && " + never + "))", want: true, same: "top", sliced: true},
			{src: "EF(" + top + " && " + held + ")", want: true, same: "held", sliced: true},
			{src: "!AG(!(" + top + " && " + held + "))", want: true, same: "held", sliced: true},
			{src: "!EF(" + bottom + " && " + never + ")", want: true, sliced: true},
		}
	}
}

// slicedWatches are the regular factors of the sliced formulas as online
// watches: one fires near the last event, one before the first.
func slicedWatches(keep int) func(f *feed) []server.Watch {
	return func(f *feed) []server.Watch {
		top, bottom := edgeConj(f, keep)
		return []server.Watch{
			{Op: "EF", Pred: top},
			{Op: "EF", Pred: bottom},
			{Op: "EF", Pred: tokenBoth},
			{Op: "AG", Pred: stepsNonNegative(f.n)},
		}
	}
}

// slicedTraces are the 48 short traces of offline-sliced: the size of a
// slice sublattice varies by a factor of five from one seed to the next,
// so the batch needs many traces for its total to be about the same on
// every seed.
func slicedTraces() []traceSpec {
	var ts []traceSpec
	for i := 0; i < 12; i++ {
		for _, shape := range []struct{ n, events, keep int }{{4, 48, 8}, {4, 96, 8}, {8, 48, 2}, {8, 96, 2}} {
			label := fmt.Sprintf("slice-%d-%d-%d", shape.n, shape.events, i)
			ts = append(ts, traceSpec{label, shape.n, shape.events, slicedFormulas(shape.keep)})
		}
	}
	return ts
}

// workloads are the six workloads of BENCHMARK.json. A workload with no
// traces of its own detects, offline, its session feed against its
// watches.
var workloads = []workload{
	{
		name: "offline-table1",
		why:  "Table 1's polynomial cells on long wide traces: stresses trace, computation, vclock, ctl, pir, core; serving runs wide (n=16) sessions; no slicing.",
		traces: []traceSpec{
			{"sweep-4a", 4, 25000, table1Formulas},
			{"sweep-4b", 4, 25000, table1Formulas},
			{"sweep-16a", 16, 25000, table1Formulas},
			{"sweep-16b", 16, 25000, table1Formulas},
			{"channels-4", 4, 2500, channelFormulas},
			{"channels-16", 16, 2500, channelFormulas},
		},
		procs: 16, events: 25000, watches: characterWatches,
		encoding: server.EncodingBinary, batch: 64,
		pacedEvents: 4000, recoverEvents: 20000,
		rateLo: 30e3, rateHi: 90e3,
	},
	{
		name:   "offline-sliced",
		why:    "Slice-routed arbitrary EF/AG cells on short traces: only here slice.NewIncremental and core's slice phase dominate; serving is session churn (96-event sessions).",
		traces: slicedTraces(),
		procs:  8, events: 96, watches: slicedWatches(2),
		encoding: server.EncodingBinary, batch: 64,
		pacedEvents: 960, recoverEvents: 960,
		rateLo: 15e3, rateHi: 50e3,
	},
	{
		name:  "ingest-binary",
		why:   "Saturating binary batched ingest of long unbounded sessions with 4 watches: pir.Batch codec, FrameScanner, session queue and monitor retention dominate; watch checks do not.",
		procs: 8, events: 100000, watches: characterWatches,
		encoding: server.EncodingBinary, batch: 64,
		pacedEvents: 5000, recoverEvents: 20000,
		rateLo: 40e3, rateHi: 115e3,
	},
	{
		name:  "ingest-ndjson",
		why:   "The same feed and watches, one JSON frame per event: DecodeClientFrame and handleEvent in place of DecodeBody and handleBatch; the control for codec changes.",
		procs: 8, events: 100000, watches: characterWatches,
		encoding: server.EncodingNDJSON, batch: 16,
		pacedEvents: 1500, recoverEvents: 20000,
		rateLo: 11e3, rateHi: 33e3,
	},
	{
		name:  "serve-paced",
		why:   "Bounded 10k-event sessions with 64 staggered EF watches and small batches: watch checks and slice.Online dominate and retention is bypassed; the latency workload.",
		procs: 4, events: 10000,
		watches:  func(f *feed) []server.Watch { return staggeredWatches(f, pacedWatches) },
		encoding: server.EncodingBinary, batch: 16, bounded: true,
		pacedEvents: 10000, recoverEvents: 10000,
		rateLo: 50e3, rateHi: 150e3,
	},
	{
		name:  "cluster-replicated",
		why:   "Keyed reconnecting sessions on 3 nodes with 2 copies, owner killed mid-session: only here replication links, the ack gate, the frame log and replay do most of the work.",
		procs: 8, events: 100000, watches: characterWatches,
		encoding: server.EncodingBinary, batch: 64, cluster: true,
		pacedEvents: 2500, recoverEvents: 20000,
		rateLo: 20e3, rateHi: 60e3,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
