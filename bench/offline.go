package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/computation"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/pir"
	"repro/internal/predicate"
	"repro/internal/slice"
	"repro/internal/trace"
)

// offlinePass is what hbdetect does for the workload's whole batch:
// decode each trace once, then parse and detect every formula on it.
// Every detection is one operation, checked against the set-up oracle.
func (r *run) offlinePass() time.Duration {
	start := time.Now()
	for ti := range r.in.traces {
		t := &r.in.traces[ti]
		comp, err := trace.Decode(bytes.NewReader(t.json))
		if err != nil {
			for range t.formulas {
				r.op(fmt.Errorf("decode trace %s: %w", t.label, err))
			}
			continue
		}
		for fi := range t.formulas {
			res, err := detectSource(comp, t.formulas[fi].src)
			r.op(t.checkPass(fi, res, err))
		}
	}
	return time.Since(start)
}

// checkPass compares one measured detection with the set-up oracle.
func (t *traceInput) checkPass(fi int, res core.Result, err error) error {
	if err != nil {
		return err
	}
	if err := t.formulas[fi].check(res); err != nil {
		return fmt.Errorf("trace %s: %w", t.label, err)
	}
	if res.Algorithm != t.algorithm[fi] {
		return fmt.Errorf("trace %s: %s took %q, at set-up %q", t.label, t.formulas[fi].src, res.Algorithm, t.algorithm[fi])
	}
	return nil
}

// runOffline repeats the pass for the phase's share of the run, at
// least three times, and reports the quick quartile of the pass times.
func (r *run) runOffline(budget time.Duration) {
	deadline := time.Now().Add(budget)
	var passes []float64
	for len(passes) < 3 || time.Now().Add(time.Duration(quantile(passes, quickTime)*float64(time.Second))).Before(deadline) {
		passes = append(passes, r.offlinePass().Seconds())
	}
	r.set("detect_s", quantile(passes, quickTime), len(passes))
}

// bodies returns the non-temporal operands of f, the formulas core.Detect
// compiles and binds.
func bodies(f ctl.Formula) []ctl.Formula {
	switch g := f.(type) {
	case ctl.Not:
		return bodies(g.F)
	case ctl.And:
		return append(bodies(g.L), bodies(g.R)...)
	case ctl.Or:
		return append(bodies(g.L), bodies(g.R)...)
	case ctl.EF:
		return []ctl.Formula{g.F}
	case ctl.AF:
		return []ctl.Formula{g.F}
	case ctl.EG:
		return []ctl.Formula{g.F}
	case ctl.AG:
		return []ctl.Formula{g.F}
	case ctl.EU:
		return []ctl.Formula{g.P, g.Q}
	case ctl.AU:
		return []ctl.Formula{g.P, g.Q}
	}
	return []ctl.Formula{f}
}

// offlineLayers is the traced pass: the same batch, with every call into
// a layer timed from outside and recorded as a span of the detection's
// trace. core.detect_ms.<cell> is core.Detect's wall time minus the
// compile and bind the bench timed on the same operands. The counts come
// from Result.Stats and repeat exactly for a seed.
func (r *run) offlineLayers() {
	var decode, parse, compile, bind, build time.Duration
	var decodedEvents, boundEvents, builtEvents, formulas int
	cell := make(map[string]time.Duration)
	var stats core.Stats
	var sliceBuilds []time.Duration

	for ti := range r.in.traces {
		t := &r.in.traces[ti]
		tid := r.rec.newTrace()
		root := r.rec.start("offline.trace", -1, tid)

		var comp *computation.Computation
		var file trace.File
		var err error
		decode += r.timed("trace.Decode", root, tid, func() {
			comp, err = trace.Decode(bytes.NewReader(t.json))
		})
		decodedEvents += t.events
		if err != nil {
			r.op(fmt.Errorf("decode trace %s: %w", t.label, err))
			r.rec.end(root)
			continue
		}
		// Build is the last step of Decode; time it alone on the same file.
		file = trace.FileFrom(comp)
		build += r.timed("computation.Build", root, tid, func() { _, err = trace.Build(file) })
		builtEvents += t.events

		for fi := range t.formulas {
			f := &t.formulas[fi]
			dspan := r.rec.start("offline.detect", root, tid)
			var fl ctl.Formula
			parse += r.timed("ctl.Parse", dspan, tid, func() { fl, err = ctl.Parse(f.src) })
			formulas++
			if err != nil {
				r.op(err)
				r.rec.end(dspan)
				continue
			}
			var lowering time.Duration
			for _, body := range bodies(fl) {
				var pr *pir.Pred
				d := r.timed("pir.Compile", dspan, tid, func() { pr, err = pir.Compile(body) })
				compile += d
				lowering += d
				if err != nil {
					continue // not every operand compiles alone; Detect decides
				}
				d = r.timed("pir.Bind", dspan, tid, func() { pr.Bind(comp) })
				bind += d
				lowering += d
				boundEvents += t.events
				if f.sliced {
					if factor, _, ok := sliceFactor(pr); ok {
						var d time.Duration
						d = r.timed("slice.NewIncremental", dspan, tid, func() { slice.NewIncremental(comp, factor) })
						sliceBuilds = append(sliceBuilds, d)
					}
				}
			}
			var res core.Result
			d := r.timed("core.Detect", dspan, tid, func() { res, err = core.Detect(comp, fl) })
			r.rec.end(dspan)
			r.op(t.checkPass(fi, res, err))
			if err != nil {
				continue
			}
			if f.cell != "" {
				cell[f.cell] += max(d-lowering, 0)
			}
			s := res.Stats
			stats.CutsVisited += s.CutsVisited
			stats.PredicateEvals += s.PredicateEvals
			stats.ForbiddenCalls += s.ForbiddenCalls
			stats.AdvancementSteps += s.AdvancementSteps
			stats.SliceBuild += s.SliceBuild
			stats.SliceCutsEnumerated += s.SliceCutsEnumerated
			stats.SliceEventsEliminated += s.SliceEventsEliminated
		}
		r.rec.end(root)
	}

	r.set("trace.decode_ns_per_event", nsPer(decode, decodedEvents), decodedEvents)
	r.set("computation.build_ns_per_event", nsPer(build, builtEvents), builtEvents)
	r.set("ctl.parse_us_per_formula", nsPer(parse, formulas)/1e3, formulas)
	r.set("pir.compile_us_per_formula", nsPer(compile, formulas)/1e3, formulas)
	r.set("pir.bind_ns_per_event", nsPer(bind, boundEvents), boundEvents)
	for _, c := range cells {
		r.set("core.detect_ms."+c, ms(cell[c]), 1)
	}
	r.set("core.cuts_visited", float64(stats.CutsVisited), 1)
	r.set("core.predicate_evals", float64(stats.PredicateEvals), 1)
	r.set("core.forbidden_calls", float64(stats.ForbiddenCalls), 1)
	r.set("core.advancement_steps", float64(stats.AdvancementSteps), 1)
	r.set("core.slice_build_ms", ms(stats.SliceBuild), 1)
	r.set("core.slice_cuts_enumerated", float64(stats.SliceCutsEnumerated), 1)
	r.set("core.slice_events_eliminated", float64(stats.SliceEventsEliminated), 1)
	var total time.Duration
	for _, d := range sliceBuilds {
		total += d
	}
	r.set("slice.incremental_build_ms", ms(total), len(sliceBuilds))
}

// sliceFactor returns the regular factor core's slice phase builds the
// slice of, under EF or (negated) under AG.
func sliceFactor(pr *pir.Pred) (predicate.Linear, predicate.Predicate, bool) {
	if factor, rest, ok := pr.SliceFactor(); ok {
		return factor, rest, true
	}
	return pr.NegatedSliceFactor()
}

// timed runs fn inside a span and returns how long it took.
func (r *run) timed(name string, parent, trace int, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	r.rec.add(name, start, d, parent, trace)
	return d
}
