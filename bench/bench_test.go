package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesBench: BENCHMARK.json and the bench name the same
// workloads and metrics, with the same units, directions and bounds.
func TestManifestMatchesBench(t *testing.T) {
	m := readManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the bench %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the bench %q (%q)", i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name, or a why of %d characters", w.name, len(w.why))
		}
	}
	seen := make(map[string]bool)
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the bench %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the bench %+v", kind, i, got[i], want[i])
			}
			if !name.MatchString(want[i].Name) || seen[want[i].Name] {
				t.Errorf("%s metric %q: bad or repeated name", kind, want[i].Name)
			}
			seen[want[i].Name] = true
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
	if endToEnd[0].Name != "setup_s" {
		t.Error("the first end-to-end metric must be setup_s")
	}
}

// smoke runs a workload at a hundredth of its size.
func smoke(t *testing.T, w *workload, seed int64, seconds float64, traced bool) *run {
	t.Helper()
	r, err := measure(w, seed, seconds, 100, traced, "")
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if r.failed != 0 || r.attempted == 0 {
		t.Errorf("%s (traced %v): %d of %d operations failed: %v", w.name, traced, r.failed, r.attempted, r.failures)
	}
	return r
}

// TestEveryWorkloadReportsEveryMetric: at 1/100 size every workload
// produces every metric of BENCHMARK.json, with no failed operation, and
// the traced run's spans add up.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			r := smoke(t, w, 1, 0.7, false)
			for _, d := range endToEnd {
				if v, ok := r.metrics[d.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v (measured: %v)", d.Name, v, ok)
				}
			}
			if res := r.result(endToEnd); !res.Correct || len(res.Metrics) != len(endToEnd) {
				t.Errorf("result line: correct %v with %d metrics", res.Correct, len(res.Metrics))
			}
			r = smoke(t, w, 1, 0.7, true)
			for _, d := range perLayer {
				if _, ok := r.metrics[d.Name]; !ok {
					t.Errorf("per-layer metric %s was not measured", d.Name)
				}
			}
			if len(r.rec.spans) == 0 {
				t.Fatal("the traced run recorded no spans")
			}
			for i, s := range r.rec.spans {
				if s.EndNs < s.StartNs || s.Parent >= i {
					t.Fatalf("span %d (%s) is malformed: %+v", i, s.Name, s)
				}
			}
			for name, self := range selfTimes(r.rec.spans) {
				if self < 0 {
					t.Errorf("self time of %s is %v: children outlast their parent", name, self)
				}
			}
		})
	}
}

// TestExactCountsRepeat: the counts a change may claim a gain by repeat
// exactly for a seed and move with the seed.
func TestExactCountsRepeat(t *testing.T) {
	for _, name := range []string{"offline-sliced", "ingest-binary"} {
		w := findWorkload(name)
		a, b, c := smoke(t, w, 1, 0.3, true), smoke(t, w, 1, 0.3, true), smoke(t, w, 2, 0.3, true)
		moved := false
		for _, m := range exactCounts {
			if a.metrics[m] != b.metrics[m] {
				t.Errorf("%s: %s is %v, then %v, on the same seed", name, m, a.metrics[m], b.metrics[m])
			}
			moved = moved || a.metrics[m] != c.metrics[m]
		}
		if !moved {
			t.Errorf("%s: no exact count moved between seeds 1 and 2", name)
		}
	}
}

// TestFeedIsAFunctionOfTheSeed: the generator gives the same feed for
// the same seed and another for another.
func TestFeedIsAFunctionOfTheSeed(t *testing.T) {
	a, b, c := genFeed(7, 8, 5000), genFeed(7, 8, 5000), genFeed(8, 8, 5000)
	if len(a.events) != 5000 || len(b.events) != 5000 {
		t.Fatalf("feeds of %d and %d events, want 5000", len(a.events), len(b.events))
	}
	same := true
	for i := range a.events {
		if a.events[i] != b.events[i] {
			t.Fatalf("event %d differs between two feeds of one seed", i)
		}
		same = same && a.events[i] == c.events[i]
	}
	if same {
		t.Error("seeds 7 and 8 give the same feed")
	}
}

// TestAgree: a run set agrees with itself, and not with a copy whose
// throughput fell by more than the bound or whose count moved.
func TestAgree(t *testing.T) {
	set := runSet{Workloads: make(map[string]workloadSet)}
	for _, w := range workloads {
		ws := workloadSet{EndToEnd: make(map[string]series), Exact: map[string]float64{"core.cuts_visited": 10}}
		for _, d := range endToEnd {
			ws.EndToEnd[d.Name] = series{Unit: d.Unit, Values: []float64{99, 100, 101}, Median: 100}
		}
		set.Workloads[w.name] = ws
	}
	if code := compareSets(io.Discard, set, set); code != 0 {
		t.Errorf("a run set disagrees with itself: exit %d", code)
	}
	change := func(edit func(ws *workloadSet)) runSet {
		out := runSet{Workloads: make(map[string]workloadSet)}
		for name, ws := range set.Workloads {
			cp := workloadSet{EndToEnd: make(map[string]series), Exact: make(map[string]float64)}
			for k, v := range ws.EndToEnd {
				cp.EndToEnd[k] = v
			}
			for k, v := range ws.Exact {
				cp.Exact[k] = v
			}
			if name == "ingest-binary" {
				edit(&cp)
			}
			out.Workloads[name] = cp
		}
		return out
	}
	slower := change(func(ws *workloadSet) {
		ws.EndToEnd["ingest_events_per_s"] = series{Unit: "1/s", Values: []float64{59, 60, 61}, Median: 60}
	})
	if code := compareSets(io.Discard, set, slower); code != 1 {
		t.Errorf("a 40%% fall of ingest_events_per_s agrees: exit %d", code)
	}
	counted := change(func(ws *workloadSet) { ws.Exact["core.cuts_visited"] = 11 })
	if code := compareSets(io.Discard, set, counted); code != 1 {
		t.Errorf("a moved exact count agrees: exit %d", code)
	}
}
