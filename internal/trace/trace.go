// Package trace serializes computations to a versioned JSON format and
// loads them back, so traces can be generated once (cmd/tracegen), shipped,
// and analyzed by the CLI tools (cmd/hbdetect, cmd/latticeviz).
//
// The format lists events in a valid global order (every receive after its
// send); vector clocks are not stored — they are recomputed on load, which
// also revalidates the trace.
package trace

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/computation"
	"repro/internal/jsonscan"
)

// Version is the current trace format version.
const Version = 1

// MaxProcesses bounds the process count a trace may declare. Traces also
// arrive from untrusted network peers (hbserver snapshots, fuzzed inputs);
// a process without events costs O(1) words, so a header naming this many
// decodes in a few MiB, while every event still carries an n-wide clock.
const MaxProcesses = 1 << 16

// File is the on-disk representation of a computation.
type File struct {
	Version   int        `json:"version"`
	Processes int        `json:"processes"`
	Initial   []InitVar  `json:"initial,omitempty"`
	Events    []EventRec `json:"events"`
}

// InitVar records an initial variable value; processes are 1-based in the
// format, matching the paper's notation.
type InitVar struct {
	Proc  int    `json:"proc"`
	Var   string `json:"var"`
	Value int    `json:"value"`
}

// EventRec is one event. Kind is "internal", "send" or "receive"; Msg links
// sends to receives.
type EventRec struct {
	Proc  int            `json:"proc"`
	Kind  string         `json:"kind"`
	Msg   int            `json:"msg,omitempty"`
	Label string         `json:"label,omitempty"`
	Sets  map[string]int `json:"sets,omitempty"`
}

// FileFrom converts comp to its serialized form: initial values plus the
// events of one valid linearization. Useful on its own when a computation
// produced in memory (e.g. a lowered span trace) must be persisted or
// re-streamed without an intermediate encode/decode round-trip.
func FileFrom(comp *computation.Computation) File {
	f := File{Version: Version, Processes: comp.N(), Initial: initials(comp)}
	var sets []computation.Assignment
	for _, e := range comp.Linearization() {
		rec := EventRec{Proc: e.Proc + 1, Kind: e.Kind.String(), Label: e.Label}
		if e.Kind != computation.Internal {
			rec.Msg = e.Msg
		}
		if sets = comp.AppendAssignments(sets[:0], e); len(sets) > 0 {
			rec.Sets = make(map[string]int, len(sets))
			for _, a := range sets {
				rec.Sets[a.Name] = a.Value
			}
		}
		f.Events = append(f.Events, rec)
	}
	return f
}

// initials lists comp's non-zero initial values, by process then name.
func initials(comp *computation.Computation) []InitVar {
	var out []InitVar
	for i := 0; i < comp.N(); i++ {
		for _, name := range comp.Vars(i) {
			if v, _ := comp.Value(i, 0, name); v != 0 {
				out = append(out, InitVar{Proc: i + 1, Var: name, Value: v})
			}
		}
	}
	return out
}

// Build constructs the computation described by a File.
func Build(f File) (*computation.Computation, error) {
	l, err := newLoader(f.Version, f.Processes)
	if err != nil {
		return nil, err
	}
	for _, iv := range f.Initial {
		if err := l.initial(iv); err != nil {
			return nil, err
		}
	}
	var r evRec
	for idx, rec := range f.Events {
		r = evRec{proc: rec.Proc, kind: rec.Kind, msg: rec.Msg, label: rec.Label, sets: r.sets[:0]}
		for name, v := range rec.Sets {
			r.sets = append(r.sets, computation.Assignment{Name: name, Value: v})
		}
		// Apply variable assignments in deterministic order.
		slices.SortFunc(r.sets, func(a, b computation.Assignment) int { return strings.Compare(a.Name, b.Name) })
		if err := l.event(idx, &r); err != nil {
			return nil, err
		}
	}
	return l.build()
}

// loader applies trace records to a Builder, making every check of the
// format; Build and Decode both go through it, so they accept the same
// records with the same errors.
type loader struct {
	b    *computation.Builder
	n    int
	msgs map[int]computation.Msg // trace message id → builder handle
}

// evRec is one event record on its way to the loader.
type evRec struct {
	proc  int
	kind  string
	msg   int
	label string
	sets  []computation.Assignment // in input order; the last of a name wins
}

func newLoader(version, processes int) (*loader, error) {
	if version != Version {
		return nil, fmt.Errorf("trace: unsupported version %d (want %d)", version, Version)
	}
	if processes < 1 || processes > MaxProcesses {
		return nil, fmt.Errorf("trace: %d processes (want 1..%d)", processes, MaxProcesses)
	}
	return &loader{b: computation.NewBuilder(processes), n: processes, msgs: make(map[int]computation.Msg)}, nil
}

func (l *loader) initial(iv InitVar) error {
	if iv.Proc < 1 || iv.Proc > l.n {
		return fmt.Errorf("trace: initial value for unknown process %d", iv.Proc)
	}
	l.b.SetInitial(iv.Proc-1, iv.Var, iv.Value)
	return nil
}

// event applies record idx; it keeps no reference to r.
func (l *loader) event(idx int, r *evRec) error {
	if r.proc < 1 || r.proc > l.n {
		return fmt.Errorf("trace: event %d on unknown process %d", idx, r.proc)
	}
	proc := r.proc - 1
	var e *computation.Event
	switch r.kind {
	case "internal", "":
		e = l.b.Internal(proc)
	case "send":
		if _, dup := l.msgs[r.msg]; dup {
			return fmt.Errorf("trace: event %d resends message %d", idx, r.msg)
		}
		var m computation.Msg
		e, m = l.b.Send(proc)
		l.msgs[r.msg] = m
	case "receive":
		m, ok := l.msgs[r.msg]
		if !ok {
			return fmt.Errorf("trace: event %d receives message %d before its send", idx, r.msg)
		}
		e = l.b.Receive(proc, m)
	default:
		return fmt.Errorf("trace: event %d has unknown kind %q", idx, r.kind)
	}
	e.Label = r.label
	for _, a := range r.sets {
		computation.Set(e, a.Name, a.Value)
	}
	return nil
}

func (l *loader) build() (*computation.Computation, error) {
	comp, err := l.b.Build()
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return comp, nil
}

// Decode reads a JSON trace from r, validates it, and rebuilds the
// computation (including vector clocks). It reads r whole, then scans the
// format in one pass that drives the loader as it goes: no reflection, no
// intermediate File, no map per event. It accepts exactly what
// encoding/json decoding a File with DisallowUnknownFields accepts —
// duplicate keys, null for any field (a no-op on a number or string; it
// empties sets, initial or events), string escapes with U+FFFD for
// invalid UTF-8 and lone surrogates, integers only — except that object
// keys must match exactly (no case folding) and nothing but whitespace may
// follow the top-level object. Syntax errors carry a byte offset.
func Decode(r io.Reader) (*computation.Computation, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	d := decoder{Scanner: jsonscan.Scanner{Prefix: "trace: "}}
	d.Reset(data)
	comp, err := d.decode()
	if err == errGeneral {
		d = decoder{Scanner: d.Scanner, general: true}
		d.Reset(data)
		comp, err = d.decode()
	}
	return comp, err
}
