// Package cli implements the non-interactive command-line tools
// (hbdetect, tracegen, latticeviz) as testable functions; the cmd mains
// are thin wrappers. Each Run* function parses its own flags and returns a
// process exit code: 0 success (for hbdetect: property holds), 1 property
// does not hold, 2 usage or input error.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/buildinfo"
	"repro/internal/computation"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/explore"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/pir"
	"repro/internal/predicate"
	"repro/internal/sim"
	"repro/internal/spanhb"
	"repro/internal/trace"
)

// load reads a computation from a trace file, an OTel-style span JSONL
// file (lowered onto the HB model), or a workload spec; exactly one of
// the three must be non-empty. When lowering spans, the service →
// process mapping is printed to info (formulas name processes, so the
// user needs it), along with how much causality survived.
func load(traceFile, spansFile, workload string, info io.Writer) (*computation.Computation, error) {
	set := 0
	for _, s := range []string{traceFile, spansFile, workload} {
		if s != "" {
			set++
		}
	}
	if set != 1 {
		return nil, fmt.Errorf("need exactly one of -trace, -spans, or -workload")
	}
	switch {
	case traceFile != "":
		f, err := os.Open(traceFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.Decode(f)
	case spansFile != "":
		f, err := os.Open(spansFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		spans, err := spanhb.Decode(f)
		if err != nil {
			return nil, err
		}
		r, err := spanhb.Lower(spans, spanhb.Options{})
		if err != nil {
			return nil, err
		}
		if info != nil {
			fmt.Fprintf(info, "spanhb: %d spans, %d causal edges (%d dropped as skew) → %d processes:",
				r.Spans, r.Edges, r.SkewDropped, len(r.Services))
			for i, svc := range r.Services {
				fmt.Fprintf(info, " P%d=%s", i+1, svc)
			}
			fmt.Fprintln(info)
		}
		return r.Comp, nil
	default:
		return sim.FromSpec(workload)
	}
}

// RunDetect is the hbdetect command.
func RunDetect(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hbdetect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		traceFile = fs.String("trace", "", "JSON trace file to analyze")
		spansFile = fs.String("spans", "", "OTel-style span JSONL file to lower onto the HB model (services become processes; see internal/spanhb)")
		workload  = fs.String("workload", "", "generate a workload instead of reading a trace (see internal/sim.FromSpec)")
		formula   = fs.String("formula", "", "CTL formula to detect")
		formulas  = fs.String("formulas", "", "file with one formula per line ('#' comments); overrides -formula")
		witness   = fs.Bool("witness", false, "print the witness path / counterexample cut")
		check     = fs.Bool("check", false, "cross-check against the explicit-lattice model checker")
		nested    = fs.Bool("nested", false, "allow nested temporal operators (explicit-lattice evaluation, exponential)")
		quiet     = fs.Bool("q", false, "print only true/false")
		stats     = fs.Bool("stats", false, "print per-run detection statistics (cuts visited, predicate evaluations, ...)")
		explain   = fs.Bool("explain", false, "print the inferred predicate class, Table 1 cell, chosen algorithm and bitset-lowering stats")
		traceOut  = fs.String("trace-jsonl", "", "append one JSON line per Detect run (a detection span) to this file")
		slow      = fs.Duration("slow", 0, "log Detect runs slower than this as structured JSONL (0 disables)")
		slowOut   = fs.String("slow-jsonl", "", "slow-detection log destination (default stderr)")
		version   = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		buildinfo.Print(stdout, "hbdetect")
		return 0
	}
	if *slow > 0 {
		w := io.Writer(stderr)
		if *slowOut != "" {
			f, err := os.OpenFile(*slowOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fmt.Fprintln(stderr, "hbdetect:", err)
				return 2
			}
			defer f.Close()
			w = f
		}
		core.SetSlowLog(obs.NewSlowLog(64, *slow, w))
		defer core.SetSlowLog(nil)
	}
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(stderr, "hbdetect:", err)
			return 2
		}
		defer f.Close()
		core.SetTracer(obs.NewTracer(f))
		defer core.SetTracer(nil)
	}
	if *formula == "" && *formulas == "" {
		fmt.Fprintln(stderr, "hbdetect: -formula or -formulas is required")
		return 2
	}
	comp, err := load(*traceFile, *spansFile, *workload, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "hbdetect:", err)
		return 2
	}
	if *formulas != "" {
		return runDetectBatch(comp, *formulas, *nested, *stats, stdout, stderr)
	}
	f, err := ctl.Parse(*formula)
	if err != nil {
		fmt.Fprintln(stderr, "hbdetect:", err)
		return 2
	}
	if *explain && !*nested {
		text, err := pir.Explain(comp, f)
		if err != nil {
			fmt.Fprintln(stderr, "hbdetect:", err)
			return 2
		}
		fmt.Fprint(stdout, "explain:\n"+indentLines(text, "  "))
	}
	var res core.Result
	if *nested {
		res, err = core.DetectNested(comp, f, 0)
	} else {
		res, err = core.Detect(comp, f)
	}
	if err != nil {
		fmt.Fprintln(stderr, "hbdetect:", err)
		return 2
	}

	if *quiet {
		fmt.Fprintln(stdout, res.Holds)
	} else {
		fmt.Fprintf(stdout, "computation: %s\n", sim.Describe(comp))
		fmt.Fprintf(stdout, "formula:     %s\n", f)
		fmt.Fprintf(stdout, "algorithm:   %s\n", res.Algorithm)
		fmt.Fprintf(stdout, "holds:       %v\n", res.Holds)
		if *stats && res.Stats != nil {
			fmt.Fprintf(stdout, "stats:       %s\n", formatStats(res.Stats))
		}
		if *witness {
			if len(res.Witness) > 0 {
				fmt.Fprintln(stdout, "witness path:")
				for _, cut := range res.Witness {
					fmt.Fprintf(stdout, "  %v\n", cut)
				}
			}
			if res.Counterexample != nil {
				fmt.Fprintf(stdout, "counterexample cut: %v\n", res.Counterexample)
			}
		}
	}

	if *check {
		l, err := lattice.Build(comp)
		if err != nil {
			fmt.Fprintln(stderr, "hbdetect: lattice check skipped:", err)
		} else {
			want := checkTop(l, f)
			if want != res.Holds {
				fmt.Fprintf(stderr, "hbdetect: MISMATCH: structural=%v lattice=%v\n", res.Holds, want)
				return 2
			}
			if !*quiet {
				fmt.Fprintf(stdout, "lattice:     %d cuts, verdict confirmed\n", l.Size())
			}
		}
	}
	if res.Holds {
		return 0
	}
	return 1
}

// formatStats renders a Stats line for human output.
// indentLines prefixes every non-empty line of s with prefix.
func indentLines(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		if l != "" {
			lines[i] = prefix + l
		}
	}
	return strings.Join(lines, "\n") + "\n"
}

func formatStats(s *core.Stats) string {
	return fmt.Sprintf("cuts=%d evals=%d forbidden=%d advance=%d memo=%d short=%d witness=%d time=%s",
		s.CutsVisited, s.PredicateEvals, s.ForbiddenCalls, s.AdvancementSteps,
		s.MemoHits, s.ShortCircuits, s.WitnessLength, s.Duration)
}

// runDetectBatch runs every formula from a file and prints a result
// table. Exit 0 when all hold, 1 when any fails, 2 on errors.
func runDetectBatch(comp *computation.Computation, path string, nested, stats bool, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "hbdetect:", err)
		return 2
	}
	allHold := true
	ran := 0
	for lineNo, line := range strings.Split(string(data), "\n") {
		src := strings.TrimSpace(line)
		if src == "" || strings.HasPrefix(src, "#") {
			continue
		}
		f, err := ctl.Parse(src)
		if err != nil {
			fmt.Fprintf(stderr, "hbdetect: line %d: %v\n", lineNo+1, err)
			return 2
		}
		var res core.Result
		if nested {
			res, err = core.DetectNested(comp, f, 0)
		} else {
			res, err = core.Detect(comp, f)
		}
		if err != nil {
			fmt.Fprintf(stderr, "hbdetect: line %d: %v\n", lineNo+1, err)
			return 2
		}
		ran++
		allHold = allHold && res.Holds
		if stats && res.Stats != nil {
			fmt.Fprintf(stdout, "%-5v  %-50s  %-24s  %s\n", res.Holds, src, res.Algorithm, formatStats(res.Stats))
		} else {
			fmt.Fprintf(stdout, "%-5v  %-50s  %s\n", res.Holds, src, res.Algorithm)
		}
	}
	if ran == 0 {
		fmt.Fprintln(stderr, "hbdetect: no formulas in", path)
		return 2
	}
	if allHold {
		return 0
	}
	return 1
}

// checkTop mirrors core.Detect's top-level boolean handling over the
// lattice checker.
func checkTop(l *lattice.Lattice, f ctl.Formula) bool {
	switch g := f.(type) {
	case ctl.Not:
		return !checkTop(l, g.F)
	case ctl.And:
		return checkTop(l, g.L) && checkTop(l, g.R)
	case ctl.Or:
		return checkTop(l, g.L) || checkTop(l, g.R)
	default:
		return explore.Holds(l, f)
	}
}

// RunTraceGen is the tracegen command.
func RunTraceGen(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "workload spec (see internal/sim.FromSpec)")
		spansFile = fs.String("spans", "", "convert an OTel-style span JSONL file into a trace instead of generating a workload")
		out       = fs.String("o", "", "output file (default stdout)")
		version   = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		buildinfo.Print(stdout, "tracegen")
		return 0
	}
	if *workload == "" && *spansFile == "" {
		fmt.Fprintln(stderr, "tracegen: -workload or -spans is required")
		return 2
	}
	comp, err := load("", *spansFile, *workload, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 2
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 2
		}
		defer f.Close()
		w = f
	}
	if err := trace.Encode(w, comp); err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 2
	}
	if *out != "" {
		fmt.Fprintf(stderr, "tracegen: wrote %s (%s)\n", *out, sim.Describe(comp))
	}
	return 0
}

// RunLatticeViz is the latticeviz command.
func RunLatticeViz(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("latticeviz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		traceFile = fs.String("trace", "", "JSON trace file")
		spansFile = fs.String("spans", "", "OTel-style span JSONL file to lower onto the HB model")
		workload  = fs.String("workload", "", "workload spec (see internal/sim.FromSpec)")
		mark      = fs.String("mark", "", "non-temporal predicate; satisfying cuts are filled in the DOT output")
		dotFile   = fs.String("dot", "", "write Graphviz DOT to this file ('-' for stdout)")
		stats     = fs.Bool("stats", false, "print lattice statistics")
		classify  = fs.String("classify", "", "non-temporal predicate to classify empirically (classes + applicable Table 1 algorithms)")
		version   = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		buildinfo.Print(stdout, "latticeviz")
		return 0
	}
	comp, err := load(*traceFile, *spansFile, *workload, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "latticeviz:", err)
		return 2
	}
	l, err := lattice.Build(comp)
	if err != nil {
		fmt.Fprintln(stderr, "latticeviz:", err)
		return 2
	}
	if *stats || (*dotFile == "" && *classify == "") {
		fmt.Fprintf(stdout, "computation: %s, width %d\n", sim.Describe(comp), comp.Width())
		fmt.Fprintf(stdout, "lattice:     %s\n", l.ComputeStats())
	}
	if *classify != "" {
		f, err := ctl.Parse(*classify)
		if err != nil {
			fmt.Fprintln(stderr, "latticeviz:", err)
			return 2
		}
		if ctl.IsTemporal(f) {
			fmt.Fprintln(stderr, "latticeviz: -classify must be non-temporal")
			return 2
		}
		p, err := core.Compile(f)
		if err != nil {
			fmt.Fprintln(stderr, "latticeviz:", err)
			return 2
		}
		cls := explore.Classify(l, p)
		classes := cls.Classes()
		if len(classes) == 0 {
			classes = []string{"arbitrary"}
		}
		fmt.Fprintf(stdout, "predicate:   %s\n", p)
		fmt.Fprintf(stdout, "classes:     %s (on this computation)\n", strings.Join(classes, ", "))
		poly := cls.PolynomialOperators()
		if len(poly) == 0 {
			fmt.Fprintln(stdout, "polynomial:  none — exponential detection for every operator")
		} else {
			fmt.Fprintf(stdout, "polynomial:  %s\n", strings.Join(poly, ", "))
		}
	}
	if *dotFile != "" {
		var p predicate.Predicate
		if *mark != "" {
			f, err := ctl.Parse(*mark)
			if err != nil {
				fmt.Fprintln(stderr, "latticeviz:", err)
				return 2
			}
			if ctl.IsTemporal(f) {
				fmt.Fprintln(stderr, "latticeviz: -mark must be non-temporal")
				return 2
			}
			if p, err = core.Compile(f); err != nil {
				fmt.Fprintln(stderr, "latticeviz:", err)
				return 2
			}
		}
		dot := l.DOT(p)
		if *dotFile == "-" {
			fmt.Fprint(stdout, dot)
		} else if err := os.WriteFile(*dotFile, []byte(dot), 0o644); err != nil {
			fmt.Fprintln(stderr, "latticeviz:", err)
			return 2
		}
	}
	return 0
}
