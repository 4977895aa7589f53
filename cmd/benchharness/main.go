// Command benchharness regenerates the paper's tables and figures:
//
//	table1      Table 1: detection algorithm per (predicate class × operator)
//	fig1        Fig. 1: Algorithms A1 and A2 — correctness and scaling
//	fig2        Fig. 2: example computation, lattice, meet-irreducibles
//	fig3        Fig. 3: NP/co-NP-hardness constructions (Theorems 5 & 6)
//	fig4        Fig. 4: the E[p U q] example detected by Algorithm A3
//	fig5        Fig. 5: Algorithm A3 and the AU composition — scaling
//	ingest      ingest encodings: NDJSON frame-per-event vs binary batched
//	faults      flaky-proxy ingest: resume/replay cost under faults
//	cluster     multi-node cluster: replication overhead and failover cost
//	complexity  §5/§7 complexity claims: structural vs lattice baseline
//	ablation    design-choice ablations from DESIGN.md
//	compile     predicate IR: compile/dispatch cost and bitset-lowering payoff
//	spanhb      OTel-style span ingest: decode, HB lowering, detection
//	slice       computation slicing: construction, routed detection, bounded state
//
// Usage: benchharness [-experiment all|table1|fig1|...]
//
// Absolute numbers are machine-dependent; the shapes (who wins, how the
// cost grows) are what reproduce the paper. See EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"

	"repro/internal/buildinfo"
	"repro/internal/obs"
)

var experiments = []struct {
	name string
	desc string
	run  func()
}{
	{"table1", "Table 1: algorithm per (class × operator)", runTable1},
	{"fig1", "Fig. 1: Algorithms A1 and A2", runFig1},
	{"fig2", "Fig. 2: computation, lattice, meet-irreducibles", runFig2},
	{"fig3", "Fig. 3: hardness constructions", runFig3},
	{"fig4", "Fig. 4: the until example", runFig4},
	{"fig5", "Fig. 5: Algorithm A3 scaling", runFig5},
	{"complexity", "structural algorithms vs lattice baseline", runComplexity},
	{"ablation", "design-choice ablations", runAblation},
	{"control", "predicate control: EG witness → enforced AG", runControl},
	{"online", "on-line detection: latency and ingest overhead", runOnline},
	{"server", "hbserver: loopback ingest throughput and verdict latency", runServer},
	{"ingest", "ingest encodings: NDJSON frame-per-event vs binary batched", runIngest},
	{"faults", "flaky-proxy ingest: resume/replay cost under injected faults", runFaults},
	{"cluster", "detection cluster: replication overhead and failover cost", runCluster},
	{"compile", "predicate IR: compile cost and bitset-lowering payoff", runCompile},
	{"slice", "computation slicing: construction, slice-routed detection, bounded online state", runSlice},
	{"spanhb", "OTel-style span ingest: decode, HB lowering, detection", runSpanhb},
}

func main() {
	which := flag.String("experiment", "all", "experiment id or 'all'")
	jsonOut := flag.Bool("json", false, "emit measurements as JSON on stdout (human tables go to stderr)")
	pprof := flag.Bool("pprof", false, "serve /debug/pprof (and /metrics) on an ephemeral localhost port for the run")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "benchharness")
		return
	}
	if *pprof {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchharness:", err)
			os.Exit(2)
		}
		defer ln.Close()
		mux := obs.NewMux(obs.Default())
		obs.RegisterPprof(mux)
		go http.Serve(ln, mux) //nolint:errcheck // closed on exit
		fmt.Fprintf(os.Stderr, "benchharness: pprof on http://%s/debug/pprof/\n", ln.Addr())
	}
	realStdout := os.Stdout
	if *jsonOut {
		var recs []Record
		recorder = &recs
		// Experiments print their tables with fmt.Printf; divert them so
		// stdout carries only the JSON document.
		os.Stdout = os.Stderr
	}
	ran := false
	for _, e := range experiments {
		if *which == "all" || *which == e.name {
			fmt.Printf("==== %s — %s ====\n", e.name, e.desc)
			e.run()
			fmt.Println()
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "benchharness: unknown experiment %q\n", *which)
		for _, e := range experiments {
			fmt.Fprintf(os.Stderr, "  %-11s %s\n", e.name, e.desc)
		}
		os.Exit(2)
	}
	if *jsonOut {
		os.Stdout = realStdout
		if err := dumpJSON(realStdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchharness:", err)
			os.Exit(2)
		}
	}
}
