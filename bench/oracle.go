package main

import (
	"fmt"

	"repro/internal/computation"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/online"
	"repro/internal/pir"
	"repro/internal/server"
)

// verdict is one latched verdict frame a session must deliver.
type verdict struct {
	watch int
	event int
	cut   []int
}

// sessionInput is one session shape of a workload with its oracle.
type sessionInput struct {
	feed     *feed
	watches  []server.Watch
	verdicts []verdict
}

// traceInput is one trace of the offline batch with its oracle.
type traceInput struct {
	label     string
	events    int
	json      []byte
	formulas  []formula
	algorithm []string // Result.Algorithm of each formula at set-up
}

// inputs is everything a run feeds the program, made from the seed.
type inputs struct {
	traces               []traceInput
	main, paced, recover sessionInput
}

// applyTo feeds one event to an in-process monitor; ids maps the feed's
// message ids to the monitor's, and scratch is reused for the
// assignments (the monitor copies what it keeps).
func (e *event) applyTo(m *online.Monitor, ids map[int32]int, scratch map[string]int) error {
	sets := e.sets(scratch)
	switch e.kind {
	case pir.EvInternal:
		m.Internal(int(e.proc), sets)
	case pir.EvSend:
		ids[e.msg] = m.Send(int(e.proc), sets)
	case pir.EvReceive:
		id := ids[e.msg]
		delete(ids, e.msg)
		return m.Receive(int(e.proc), id, sets)
	}
	return nil
}

// monitorWatch is one watch registered on an in-process monitor.
type monitorWatch struct {
	ef   *online.EFWatch
	ag   *online.AGWatch
	done bool
}

func (w *monitorWatch) latched() (computation.Cut, bool) {
	switch {
	case w.ef != nil && w.ef.Fired():
		return w.ef.Cut(), true
	case w.ag != nil && w.ag.Violated():
		cut, _ := w.ag.Counterexample()
		return cut, true
	}
	return nil, false
}

func registerWatches(m *online.Monitor, ws []server.Watch) ([]*monitorWatch, error) {
	out := make([]*monitorWatch, len(ws))
	for i, w := range ws {
		locals, err := online.ParseConj(w.Pred)
		if err != nil {
			return nil, err
		}
		switch w.Op {
		case "EF":
			out[i] = &monitorWatch{ef: m.WatchEF(locals...)}
		case "AG":
			out[i] = &monitorWatch{ag: m.WatchAG(locals...)}
		default:
			return nil, fmt.Errorf("watch op %q", w.Op)
		}
	}
	return out, nil
}

// expectVerdicts drives an in-process monitor with the feed the way a
// session does (inits, watches, then one check per event) and returns
// the verdict frames a session over the same feed must latch.
func expectVerdicts(f *feed, ws []server.Watch) ([]verdict, error) {
	m := online.NewMonitor(f.n)
	for _, iv := range f.inits {
		m.SetInitial(iv.proc, iv.name, iv.val)
	}
	watches, err := registerWatches(m, ws)
	if err != nil {
		return nil, err
	}
	var out []verdict
	check := func(seen int) {
		for i, w := range watches {
			if w.done {
				continue
			}
			if cut, ok := w.latched(); ok {
				w.done = true
				out = append(out, verdict{watch: i, event: seen, cut: cut})
			}
		}
	}
	check(0)
	ids, scratch := make(map[int32]int), make(map[string]int, 3)
	for i := range f.events {
		if err := f.events[i].applyTo(m, ids, scratch); err != nil {
			return nil, err
		}
		check(i + 1)
	}
	return out, nil
}

// newSessionInput generates one session shape and its oracle, and
// cross-checks the online verdicts against offline detection on the
// Builder-built computation: an EF watch fires iff EF(pred) holds, an AG
// watch is violated iff AG(pred) does not.
func newSessionInput(seed int64, n, events int, watches func(*feed) []server.Watch) (sessionInput, *computation.Computation, error) {
	f := genFeed(seed, n, events)
	in := sessionInput{feed: f, watches: watches(f)}
	var err error
	if in.verdicts, err = expectVerdicts(f, in.watches); err != nil {
		return in, nil, fmt.Errorf("online oracle: %w", err)
	}
	comp, err := f.computation()
	if err != nil {
		return in, nil, fmt.Errorf("build computation: %w", err)
	}
	for i, fl := range in.watchFormulas() {
		res, err := detectSource(comp, fl.src)
		if err != nil {
			return in, nil, err
		}
		if res.Holds != fl.want {
			return in, nil, fmt.Errorf("oracles disagree on watch %d: online says %s is %v, core.Detect says %v (%s)",
				i, fl.src, fl.want, res.Holds, res.Algorithm)
		}
	}
	return in, comp, nil
}

// watchFormulas are the offline formulas that ask the watches' questions
// of the whole feed; their expected verdicts are the online oracle's.
func (in *sessionInput) watchFormulas() []formula {
	latched := make(map[int]bool)
	for _, v := range in.verdicts {
		latched[v.watch] = true
	}
	cell := map[string]string{"EF": "ef_conj", "AG": "ag_a2"} // watches are conjunctive
	fs := make([]formula, len(in.watches))
	for i, w := range in.watches {
		fs[i] = formula{src: w.Op + "(" + w.Pred + ")", cell: cell[w.Op], want: latched[i] == (w.Op == "EF")}
	}
	return fs
}

func detectSource(comp *computation.Computation, src string) (core.Result, error) {
	fl, err := ctl.Parse(src)
	if err != nil {
		return core.Result{}, fmt.Errorf("parse %s: %w", src, err)
	}
	res, err := core.Detect(comp, fl)
	if err != nil {
		return res, fmt.Errorf("detect %s: %w", src, err)
	}
	return res, nil
}

// newTraceInput encodes comp (built by computation.Builder, so not by
// the decoder under test) as a trace file and decides every formula once: the verdict must be the one the generator fixed, formulas with
// the same label must agree, and a sliced formula must report a slice
// phase. The Algorithm strings are kept so that a pass that takes
// another route is a failed operation.
func newTraceInput(label string, comp *computation.Computation, formulas []formula) (traceInput, error) {
	t := traceInput{label: label, events: comp.TotalEvents(), formulas: formulas}
	var err error
	if t.json, err = traceJSON(comp); err != nil {
		return t, fmt.Errorf("encode trace %s: %w", label, err)
	}
	agreed := make(map[string]bool)
	for _, f := range formulas {
		res, err := detectSource(comp, f.src)
		if err != nil {
			return t, err
		}
		if err := f.check(res); err != nil {
			return t, fmt.Errorf("trace %s: %w", label, err)
		}
		if prev, ok := agreed[f.same]; f.same != "" && ok && prev != res.Holds {
			return t, fmt.Errorf("trace %s: duals %q disagree at %s", label, f.same, f.src)
		}
		agreed[f.same] = res.Holds
		t.algorithm = append(t.algorithm, res.Algorithm)
	}
	return t, nil
}

// check compares one detection with what the generator fixed.
func (f *formula) check(res core.Result) error {
	if res.Holds != f.want {
		return fmt.Errorf("%s is %v, want %v (%s)", f.src, res.Holds, f.want, res.Algorithm)
	}
	if f.sliced && res.Stats.SliceBuild <= 0 {
		return fmt.Errorf("%s reported no slice phase (%s)", f.src, res.Algorithm)
	}
	return nil
}

// newInputs makes every input of workload w from the seed; scale
// divides the sizes (1 in a benchmark run).
func newInputs(w *workload, seed int64, scale int) (*inputs, error) {
	in := &inputs{}
	shrink := func(events int) int { return max(events/scale, 4*w.procs) }
	var mainComp *computation.Computation
	var err error
	if in.main, mainComp, err = newSessionInput(derive(seed, "main"), w.procs, shrink(w.events), w.watches); err != nil {
		return nil, fmt.Errorf("main feed: %w", err)
	}
	staggered := func(f *feed) []server.Watch { return staggeredWatches(f, pacedWatches) }
	if in.paced, _, err = newSessionInput(derive(seed, "paced"), w.procs, shrink(w.pacedEvents), staggered); err != nil {
		return nil, fmt.Errorf("paced feed: %w", err)
	}
	if in.recover, _, err = newSessionInput(derive(seed, "recover"), w.procs, shrink(w.recoverEvents), w.watches); err != nil {
		return nil, fmt.Errorf("recover feed: %w", err)
	}
	if len(w.traces) == 0 {
		t, err := newTraceInput("main", mainComp, in.main.watchFormulas())
		if err != nil {
			return nil, err
		}
		in.traces = []traceInput{t}
		return in, nil
	}
	for _, ts := range w.traces {
		events := ts.events
		if ts.events > 1000 { // the sliced traces are already as small as they can be
			events = max(ts.events/scale, 8*ts.n)
		}
		f := genFeed(derive(seed, ts.label), ts.n, events)
		comp, err := f.computation()
		if err != nil {
			return nil, fmt.Errorf("trace %s: %w", ts.label, err)
		}
		t, err := newTraceInput(ts.label, comp, ts.formulas(f))
		if err != nil {
			return nil, err
		}
		in.traces = append(in.traces, t)
	}
	return in, nil
}
