package trace

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/computation"
	"repro/internal/sim"
)

// sameComputation compares two computations structurally: dimensions,
// event kinds/labels, vector clocks, per-event assignments, all
// local-state valuations, and which send each receive consumes (message
// ids may differ: the format renumbers messages in its own event order).
func sameComputation(t *testing.T, a, b *computation.Computation) {
	t.Helper()
	if a.N() != b.N() {
		t.Fatalf("process counts differ: %d vs %d", a.N(), b.N())
	}
	for i := 0; i < a.N(); i++ {
		if a.Len(i) != b.Len(i) {
			t.Fatalf("P%d event counts differ: %d vs %d", i+1, a.Len(i), b.Len(i))
		}
		for k := 1; k <= a.Len(i); k++ {
			ea, eb := a.Event(i, k), b.Event(i, k)
			if ea.Kind != eb.Kind || ea.Label != eb.Label {
				t.Errorf("event (%d,%d): %v/%q vs %v/%q", i, k, ea.Kind, ea.Label, eb.Kind, eb.Label)
			}
			if !ea.Clock.Equal(eb.Clock) {
				t.Errorf("event (%d,%d) clocks differ: %v vs %v", i, k, ea.Clock, eb.Clock)
			}
			if sa, sb := a.AppendAssignments(nil, ea), b.AppendAssignments(nil, eb); !slices.Equal(sa, sb) {
				t.Errorf("event (%d,%d) assignments differ: %v vs %v", i, k, sa, sb)
			}
		}
		va, vb := a.Vars(i), b.Vars(i)
		if len(va) != len(vb) {
			t.Fatalf("P%d vars differ: %v vs %v", i+1, va, vb)
		}
		for vi, name := range va {
			if vb[vi] != name {
				t.Fatalf("P%d vars differ: %v vs %v", i+1, va, vb)
			}
			for k := 0; k <= a.Len(i); k++ {
				x, _ := a.Value(i, k, name)
				y, _ := b.Value(i, k, name)
				if x != y {
					t.Errorf("value %s@P%d state %d: %d vs %d", name, i+1, k, x, y)
				}
			}
		}
	}
	// Message structure.
	ma, mb := a.Messages(), b.Messages()
	if len(ma) != len(mb) {
		t.Fatalf("message counts differ: %d vs %d", len(ma), len(mb))
	}
	for _, id := range ma {
		s, r := a.SendOf(id), a.RecvOf(id)
		sb := b.Event(s.Proc, s.Index)
		rb := b.RecvOf(sb.Msg)
		if b.SendOf(sb.Msg) != sb || (r == nil) != (rb == nil) || r != nil && (r.Proc != rb.Proc || r.Index != rb.Index) {
			t.Errorf("message %d (%v → %v) differs: %v → %v", id, s, r, b.SendOf(sb.Msg), rb)
		}
	}
}

func TestRoundTripFixtures(t *testing.T) {
	for name, comp := range map[string]*computation.Computation{
		"fig2": sim.Fig2(),
		"fig4": sim.Fig4(),
	} {
		var buf bytes.Buffer
		if err := Encode(&buf, comp); err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		back, err := Decode(&buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		sameComputation(t, comp, back)
	}
}

func TestRoundTripRandom(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		comp := sim.Random(sim.DefaultRandomConfig(4, 30), seed)
		var buf bytes.Buffer
		if err := Encode(&buf, comp); err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		back, err := Decode(&buf)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		sameComputation(t, comp, back)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"bad version", `{"version":99,"processes":1,"events":[]}`},
		{"no processes", `{"version":1,"processes":0,"events":[]}`},
		{"bad proc", `{"version":1,"processes":1,"events":[{"proc":2,"kind":"internal"}]}`},
		{"bad kind", `{"version":1,"processes":1,"events":[{"proc":1,"kind":"warp"}]}`},
		{"recv before send", `{"version":1,"processes":2,"events":[{"proc":1,"kind":"receive","msg":1}]}`},
		{"duplicate send id", `{"version":1,"processes":2,"events":[{"proc":1,"kind":"send","msg":1},{"proc":1,"kind":"send","msg":1}]}`},
		{"self receive", `{"version":1,"processes":2,"events":[{"proc":1,"kind":"send","msg":1},{"proc":1,"kind":"receive","msg":1}]}`},
		{"unknown field", `{"version":1,"processes":1,"events":[],"bogus":3}`},
		{"bad initial proc", `{"version":1,"processes":1,"initial":[{"proc":9,"var":"x","value":1}],"events":[]}`},
		{"not json", `hello`},
	}
	for _, c := range cases {
		if _, err := Decode(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: decode succeeded", c.name)
		}
	}
}

func TestEncodeOmitsZeroInitials(t *testing.T) {
	b := computation.NewBuilder(1)
	b.SetInitial(0, "x", 0)
	computation.Set(b.Internal(0), "x", 1)
	var buf bytes.Buffer
	if err := Encode(&buf, b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"initial"`) {
		t.Errorf("zero initial values should be omitted:\n%s", buf.String())
	}
}

// TestEncodeMatchesReflection: Encode writes exactly the reflection
// encoder's bytes, on simulated computations and on one with initial
// values, labels and names that need escaping, and with no events at all.
func TestEncodeMatchesReflection(t *testing.T) {
	b := computation.NewBuilder(3)
	b.SetInitial(0, "a<b", 3)
	b.SetInitial(2, "z", -1)
	e, m := b.Send(0)
	computation.Set(computation.WithLabel(e, "s\"&\n\x01\x7f\u2028\xff"), "x\u2029", 1)
	computation.Set(computation.Set(b.Receive(1, m), "\xc3\x28", 2), "b", 0)
	b.Internal(2)
	comps := []*computation.Computation{
		b.MustBuild(), sim.Fig2(), sim.Fig4(), sim.TokenRingMutex(3, 2),
		computation.NewBuilder(2).MustBuild(),
	}
	for seed := int64(0); seed < 10; seed++ {
		comps = append(comps, sim.Random(sim.DefaultRandomConfig(5, 200), seed))
	}
	for ci, comp := range comps {
		var got bytes.Buffer
		if err := Encode(&got, comp); err != nil {
			t.Fatal(err)
		}
		if want := refEncode(comp); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("comp %d: Encode differs from the reflection encoder:\n%s\nwant\n%s", ci, got.Bytes(), want)
		}
	}
}

// TestDecodeWideHeader: a header naming the most processes allowed and no
// events decodes in a few MiB, not a clock per process.
func TestDecodeWideHeader(t *testing.T) {
	in := fmt.Sprintf(`{"version":1,"processes":%d,"events":[]}`, MaxProcesses)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	comp, err := Decode(strings.NewReader(in))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if comp.N() != MaxProcesses {
		t.Fatalf("N = %d", comp.N())
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if alloc > 16<<20 {
		t.Errorf("decoding %d idle processes allocated %d MiB, want ≤ 16", MaxProcesses, alloc>>20)
	}
	t.Logf("%d idle processes: %.1f MiB allocated", MaxProcesses, float64(alloc)/(1<<20))
}

// benchTrace is a 100k-event, 8-process simulated trace.
func benchTrace(b *testing.B) (*computation.Computation, []byte) {
	comp := sim.Random(sim.DefaultRandomConfig(8, 100000), 1)
	var buf bytes.Buffer
	if err := Encode(&buf, comp); err != nil {
		b.Fatal(err)
	}
	return comp, buf.Bytes()
}

// perEvent runs fn b.N times and reports its time and allocations per
// event of comp.
func perEvent(b *testing.B, comp *computation.Computation, fn func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	events := float64(b.N * comp.TotalEvents())
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/events, "allocs/event")
}

func BenchmarkDecode(b *testing.B) {
	comp, data := benchTrace(b)
	perEvent(b, comp, func() {
		if _, err := Decode(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkEncode(b *testing.B) {
	comp, data := benchTrace(b)
	var out bytes.Buffer
	out.Grow(len(data))
	perEvent(b, comp, func() {
		out.Reset()
		if err := Encode(&out, comp); err != nil {
			b.Fatal(err)
		}
	})
}
