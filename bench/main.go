// Command bench is the benchmark of this repository: six seeded
// workloads, each reporting every end-to-end metric of BENCHMARK.json on
// its own inputs (tracing off), or every per-layer metric (traced run),
// with every output of the program checked against an oracle.
//
//	bench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//	bench -workload all -seed <n>
//	bench -agree a.json b.json
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; everything else goes
// to standard error. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

var processStart = time.Now()

// ballast keeps the collector's pace from depending on how much of the
// benchmark's own inputs happens to be live: generator, oracle and
// servers share one heap, and with a live heap of a few MB the collector
// would run every few MB allocated, which halves the throughput and
// doubles its spread. The ballast holds no pointers and is never
// touched, so it costs no marking and no resident memory.
var ballast []byte

// run is one benchmark run of one workload.
type run struct {
	w   *workload
	in  *inputs
	fl  *fleet
	rec *recorder // nil with tracing off
	// scale divides input sizes, and the paced rates with them, so that a
	// smoke run opens sessions at the rate a benchmark run does.
	scale int

	mu        sync.Mutex
	attempted int
	failed    int // operations that failed, wrong or late
	wrong     int // of those, the ones whose output was not the oracle's
	failures  []string
	metrics   map[string]float64
	samples   map[string]int
}

// lateError marks an operation that failed by being late or overloaded:
// it counts as failed, but its output was not wrong.
type lateError struct{ error }

// op counts one operation (one detection, or one session) and, when err
// is non-nil, its failure.
func (r *run) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if !errors.As(err, &lateError{}) {
			r.wrong++
		}
		if len(r.failures) < 10 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// set reports a metric with the number of samples behind it.
func (r *run) set(name string, value float64, samples int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = value
	r.samples[name] = samples
}

// setUp makes the inputs and their oracles from the seed and starts the
// servers: everything between process start and the first measured
// operation.
func setUp(w *workload, seed int64, scale int) (*inputs, *fleet, error) {
	in, err := newInputs(w, seed, scale)
	if err != nil {
		return nil, nil, err
	}
	nodes := 1
	if w.cluster {
		nodes = 3
	}
	fl, err := startFleet(nodes, w.cluster)
	if err != nil {
		return nil, nil, err
	}
	return in, fl, nil
}

// phase shares of the measured seconds, the same for every workload, so
// that every metric has enough samples on every workload.
const (
	shareOffline  = 0.20
	shareIngest   = 0.30
	sharePaced    = 0.30
	shareRecovery = 0.20
)

// measure runs workload w once and returns the run with its metrics.
func measure(w *workload, seed int64, seconds float64, scale int, traced bool, spanFile string) (*run, error) {
	r := &run{w: w, scale: scale, metrics: make(map[string]float64), samples: make(map[string]int)}

	// Set up three times and report the median; the first run's process
	// start-up is part of its set-up. The last set-up is the one measured.
	var setups []float64
	start := processStart
	for i := 0; i < 3; i++ {
		if r.fl != nil {
			r.fl.shutdown()
		}
		var err error
		if r.in, r.fl, err = setUp(w, seed, scale); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		start = time.Now()
	}
	defer r.fl.shutdown()
	r.set("setup_s", median(setups), len(setups))

	budget := func(share float64) time.Duration {
		return time.Duration(share * seconds * float64(time.Second))
	}
	if traced {
		r.rec = newRecorder(1 << 20)
		r.runLayers(budget)
		if spanFile != "" {
			if err := os.MkdirAll(filepath.Dir(spanFile), 0o755); err != nil {
				return nil, err
			}
			if err := r.rec.writeFile(spanFile); err != nil {
				return nil, fmt.Errorf("write spans: %w", err)
			}
			logf("spans: %d written to %s", len(r.rec.spans), spanFile)
		}
		return r, nil
	}

	r.runOffline(budget(shareOffline))
	ing := r.runIngest("ingest", &r.in.main, budget(shareIngest), nil)
	r.set("ingest_events_per_s", ing.eventsPerSec, int(ing.events))
	r.runLiveBytes()
	r.runPaced(budget(sharePaced))
	rec := r.runRecovery(budget(shareRecovery), false)
	r.set("failover_outage_ms", quantile(rec.outages, quickTime), len(rec.outages))
	return r, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result assembles the result line. "correct" says that every output was
// the oracle's; late and overloaded operations are in "failed" only. A
// metric the run did not produce makes the run incorrect: a benchmark
// that cannot measure must not look like one that measured zero.
func (r *run) result(defs []metricDef) result {
	res := result{Correct: r.wrong == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			res.Correct = false
			logf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// stamp is the machine stamp printed with every run.
func stamp(seed int64) map[string]any {
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"go":         runtime.Version(),
		"seed":       seed,
		"commit":     os.Getenv("HB_BENCH_COMMIT"),
	}
}

// report prints the human-readable side of a run to standard error.
func (r *run) report(defs []metricDef, seed int64) {
	st, _ := json.Marshal(stamp(seed))
	logf("workload %s  %s", r.w.name, st)
	for _, d := range defs {
		logf("  %-44s %16.6g %-6s (%d samples)", d.Name, r.metrics[d.Name], d.Unit, r.samples[d.Name])
	}
	logf("  attempted %d, failed %d", r.attempted, r.failed)
	for _, f := range r.failures {
		logf("  FAILED: %s", f)
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or all")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 15, "seconds of measurement")
		trace   = flag.Int("trace", 0, "1: traced run, per-layer metrics and a span file")
		agree   = flag.Bool("agree", false, "compare two run sets: bench -agree a.json b.json")
		sets    = flag.Int("runs", 0, "print a run set as JSON: this many runs of every workload, and one traced")
	)
	flag.Parse()
	// The sizing box has two cores; pin the scheduler so that a larger
	// machine measures the same configuration.
	runtime.GOMAXPROCS(2)
	ballast = make([]byte, 128<<20)

	if *agree {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -agree a.json b.json")
			os.Exit(2)
		}
		os.Exit(runAgree(flag.Arg(0), flag.Arg(1)))
	}
	if *sets > 0 {
		if err := printRunSet(*seed, *seconds, *sets); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	var todo []*workload
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := findWorkload(*name); w != nil {
		todo = []*workload{w}
	} else {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q; have %v and all\n", *name, names)
		os.Exit(2)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	for _, w := range todo {
		spanFile := ""
		if *trace == 1 {
			spanFile = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", w.name, *seed))
		}
		r, err := measure(w, *seed, *seconds, 1, *trace == 1, spanFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		r.report(defs, *seed)
		line, err := json.Marshal(r.result(defs))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
}
