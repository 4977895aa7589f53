package cli

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/computation"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/pir"
)

// rowKind maps a trace event's kind to the kind of the row the monitor
// applies.
var rowKind = [...]byte{computation.Internal: pir.EvInternal, computation.Send: pir.EvSend, computation.Receive: pir.EvReceive}

// RunMonitor is the hbmon command: it replays a trace event by event
// through the online monitor and reports, as the stream progresses, the
// exact events at which EF watches fire and AG watches are violated.
// Watches take conjunctive predicates in the conj(...) syntax.
func RunMonitor(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hbmon", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		traceFile = fs.String("trace", "", "JSON trace file to replay")
		spansFile = fs.String("spans", "", "OTel-style span JSONL file to lower onto the HB model and replay")
		workload  = fs.String("workload", "", "generate a workload instead of reading a trace")
		listen    = fs.String("listen", "", "serve live telemetry on this address (/metrics, /debug/vars, /healthz, /debug/obs)")
		pprof     = fs.Bool("pprof", false, "also serve /debug/pprof on the -listen address")
		delay     = fs.Duration("delay", 0, "sleep between replayed events (useful with -listen to watch metrics move)")
		version   = fs.Bool("version", false, "print version and exit")
		efSrcs    = multiFlag{}
		agSrcs    = multiFlag{}
	)
	fs.Var(&efSrcs, "ef", "conjunctive predicate for an EF watch (repeatable)")
	fs.Var(&agSrcs, "ag", "conjunctive predicate for an AG watch (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		buildinfo.Print(stdout, "hbmon")
		return 0
	}
	comp, err := load(*traceFile, *spansFile, *workload, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "hbmon:", err)
		return 2
	}
	if len(efSrcs) == 0 && len(agSrcs) == 0 {
		fmt.Fprintln(stderr, "hbmon: at least one -ef or -ag watch is required")
		return 2
	}

	m := online.NewMonitor(comp.N())
	if *listen != "" {
		m.Instrument(obs.Default())
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintln(stderr, "hbmon:", err)
			return 2
		}
		defer ln.Close()
		mux := obs.NewMux(obs.Default())
		(&obs.Debug{Registry: obs.Default()}).Register(mux)
		if *pprof {
			obs.RegisterPprof(mux)
		}
		srv := &http.Server{Handler: mux}
		go srv.Serve(ln) //nolint:errcheck // closed on exit
		defer srv.Close()
		fmt.Fprintf(stderr, "hbmon: telemetry on http://%s/metrics\n", ln.Addr())
	}
	for i := 0; i < comp.N(); i++ {
		for _, name := range comp.Vars(i) {
			if v, _ := comp.Value(i, 0, name); v != 0 {
				m.SetInitial(i, name, v)
			}
		}
	}
	type efEntry struct {
		src   string
		watch *online.EFWatch
		done  bool
		at    int // events ingested when the verdict latched
	}
	type agEntry struct {
		src   string
		watch *online.AGWatch
		done  bool
		at    int
	}
	var efs []*efEntry
	var ags []*agEntry
	for _, src := range efSrcs {
		locals, err := online.ParseConj(src)
		if err != nil {
			fmt.Fprintln(stderr, "hbmon:", err)
			return 2
		}
		efs = append(efs, &efEntry{src: src, watch: m.WatchEF(locals...)})
	}
	for _, src := range agSrcs {
		locals, err := online.ParseConj(src)
		if err != nil {
			fmt.Fprintln(stderr, "hbmon:", err)
			return 2
		}
		ags = append(ags, &agEntry{src: src, watch: m.WatchAG(locals...)})
	}

	// Replay along a linearization with the trace's own message ids,
	// reporting watch transitions.
	var (
		asg  []computation.Assignment
		sets []pir.VarSet
	)
	seen := 0
	violations := 0
	report := func() {
		for _, e := range efs {
			if !e.done && e.watch.Fired() {
				e.done = true
				e.at = seen
				fmt.Fprintf(stdout, "event %4d: EF %s FIRED at cut %v\n", seen, e.src, e.watch.Cut())
			}
		}
		for _, a := range ags {
			if !a.done && a.watch.Violated() {
				a.done = true
				a.at = seen
				violations++
				cut, local := a.watch.Counterexample()
				fmt.Fprintf(stdout, "event %4d: AG %s VIOLATED (conjunct %s) at cut %v\n", seen, a.src, local, cut)
			}
		}
	}
	report()
	// Graceful shutdown: SIGINT/SIGTERM stops the replay after the event
	// in flight, so latched verdicts and the summary table still flush
	// (and, with -listen, the telemetry server closes via its defers). A
	// second signal kills the process through the default disposition.
	sig, stopSignals := shutdownSignal()
	defer stopSignals()
	interrupted := false
replay:
	for _, e := range comp.Linearization() {
		select {
		case sg := <-sig:
			fmt.Fprintf(stderr, "hbmon: %v, stopping after %d events\n", sg, seen)
			stopSignals()
			interrupted = true
			break replay
		default:
		}
		asg, sets = comp.AppendAssignments(asg[:0], e), sets[:0]
		for _, a := range asg {
			sets = append(sets, pir.VarSet{Name: a.Name, Val: a.Value})
		}
		if err := m.Apply(e.Proc, rowKind[e.Kind], e.Msg, sets); err != nil {
			fmt.Fprintln(stderr, "hbmon:", err)
			return 2
		}
		seen++
		report()
		if *delay > 0 {
			time.Sleep(*delay)
		}
	}
	endMsg := "end of trace"
	if interrupted {
		endMsg = "interrupted"
	}
	for _, e := range efs {
		if !e.done {
			fmt.Fprintf(stdout, "%s: EF %s never fired\n", endMsg, e.src)
		}
	}
	for _, a := range ags {
		if !a.done {
			fmt.Fprintf(stdout, "%s: AG %s held throughout\n", endMsg, a.src)
		}
	}

	// Per-watch summary: verdict, the event index at which it latched, and
	// how many events were ingested before the verdict was known.
	fmt.Fprintf(stdout, "\nsummary (%d events replayed):\n", seen)
	fmt.Fprintf(stdout, "  %-4s  %-44s  %-12s  %7s  %9s\n", "OP", "WATCH", "VERDICT", "EVENT", "INGESTED")
	row := func(op, src, verdict string, done bool, at int) {
		ev := "-"
		ingested := seen
		if done {
			ev = fmt.Sprint(at)
			ingested = at
		}
		fmt.Fprintf(stdout, "  %-4s  %-44s  %-12s  %7s  %9d\n", op, src, verdict, ev, ingested)
	}
	for _, e := range efs {
		v := "pending"
		if e.done {
			v = "fired"
		}
		row("EF", e.src, v, e.done, e.at)
	}
	for _, a := range ags {
		v := "held"
		if a.done {
			v = "violated"
		}
		row("AG", a.src, v, a.done, a.at)
	}
	if violations > 0 {
		return 1
	}
	return 0
}

// multiFlag collects repeatable string flags.
type multiFlag []string

// String implements flag.Value.
func (m *multiFlag) String() string { return fmt.Sprint([]string(*m)) }

// Set implements flag.Value.
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}
