package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
)

// exactCounts are the per-layer metrics that must repeat exactly for a
// seed: counts the program makes of its own work, and the size of the
// encoded feed.
var exactCounts = []string{
	"core.cuts_visited",
	"core.predicate_evals",
	"core.forbidden_calls",
	"core.advancement_steps",
	"core.slice_cuts_enumerated",
	"core.slice_events_eliminated",
	"pir.batch_bytes_per_event",
}

// series is one end-to-end metric of one workload over the runs of a
// set.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// workloadSet is what a run set holds for one workload.
type workloadSet struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]series  `json:"end_to_end"`
	Exact     map[string]float64 `json:"exact_counts"`
}

// runSet is several runs of every workload at one commit and one seed:
// the unit -agree compares, and the format of baseline/*.json.
type runSet struct {
	Stamp     map[string]any         `json:"stamp"`
	Seconds   float64                `json:"seconds"`
	Runs      int                    `json:"runs"`
	Workloads map[string]workloadSet `json:"workloads"`
}

// printRunSet measures every workload runs times (tracing off) and once
// traced for the exact counts, each run in a process of its own as the
// driver runs them, and prints the set as JSON.
func printRunSet(seed int64, seconds float64, runs int) error {
	set := runSet{Stamp: stamp(seed), Seconds: seconds, Runs: runs, Workloads: make(map[string]workloadSet)}
	for _, w := range workloads {
		ws := workloadSet{EndToEnd: make(map[string]series), Exact: make(map[string]float64)}
		values := make(map[string][]float64)
		for k := 0; k <= runs; k++ {
			traced := k == runs
			res, err := runItself(w.name, seed, seconds, traced)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.name, k, err)
			}
			ws.Attempted += res.Attempted
			ws.Failed += res.Failed
			if traced {
				for _, name := range exactCounts {
					ws.Exact[name] = res.Metrics[name].Value
				}
				break
			}
			for _, d := range endToEnd {
				values[d.Name] = append(values[d.Name], res.Metrics[d.Name].Value)
			}
		}
		for _, d := range endToEnd {
			v := values[d.Name]
			ws.EndToEnd[d.Name] = series{Unit: d.Unit, Values: v,
				Median: median(v), Q1: quantile(v, 0.25), Q3: quantile(v, 0.75)}
		}
		set.Workloads[w.name] = ws
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	return enc.Encode(set)
}

// runItself runs one benchmark run in a child process and returns its
// result line; the child's report goes to standard error.
func runItself(workload string, seed int64, seconds float64, traced bool) (result, error) {
	var res result
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("result line: %w", err)
	}
	return res, nil
}

func readRunSet(path string) (runSet, error) {
	var set runSet
	data, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(data, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// spread is the within-set spread of a series: (max - min) / median.
func (s series) spread() float64 {
	if len(s.Values) == 0 || s.Median == 0 {
		return 0
	}
	lo, hi := s.Values[0], s.Values[0]
	for _, v := range s.Values {
		lo, hi = min(lo, v), max(hi, v)
	}
	return (hi - lo) / s.Median
}

// runAgree compares two run sets metric by metric against the bounds of
// BENCHMARK.json and returns the exit code: 0 when every pair of medians
// lies within the metric's bound of each other, every exact count is
// identical and no operation failed. A metric whose own runs spread
// wider than the bound is reported as unresolved, not as agreeing.
func runAgree(pathA, pathB string) int {
	a, err := readRunSet(pathA)
	if err == nil {
		var b runSet
		if b, err = readRunSet(pathB); err == nil {
			return compareSets(os.Stdout, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareSets(out io.Writer, a, b runSet) int {
	disagree := 0
	fmt.Fprintf(out, "%-20s %-30s %14s %14s %8s %8s %8s  %s\n", "workload", "metric", "median a", "median b", "diff", "spread", "bound", "")
	for i := range workloads {
		name := workloads[i].name
		wa, okA := a.Workloads[name]
		wb, okB := b.Workloads[name]
		if !okA || !okB {
			fmt.Fprintf(out, "%-20s missing from a run set\n", name)
			disagree++
			continue
		}
		if wa.Failed+wb.Failed > 0 {
			fmt.Fprintf(out, "%-20s failed operations: %d and %d\n", name, wa.Failed, wb.Failed)
			disagree++
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			diff := 0.0
			if sa.Median != 0 {
				diff = (sb.Median - sa.Median) / sa.Median
			}
			spread := max(sa.spread(), sb.spread())
			verdict := "agree"
			switch {
			case diff > d.Bound || -diff > d.Bound:
				verdict = "DISAGREE"
				disagree++
			case spread > d.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(out, "%-20s %-30s %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%%  %s\n",
				name, d.Name, sa.Median, sb.Median, 100*diff, 100*spread, 100*d.Bound, verdict)
		}
		for _, c := range exactCounts {
			if wa.Exact[c] != wb.Exact[c] {
				fmt.Fprintf(out, "%-20s %-30s %14.6g %14.6g  exact count differs: DISAGREE\n", name, c, wa.Exact[c], wb.Exact[c])
				disagree++
			}
		}
	}
	if disagree > 0 {
		fmt.Fprintf(out, "%d disagreements\n", disagree)
		return 1
	}
	fmt.Fprintln(out, "the run sets agree")
	return 0
}
