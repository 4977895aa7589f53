// Package diagram renders computations as ASCII space-time diagrams: one
// line per process, events in a global topological order, message edges
// drawn by id, and (optionally) the current cut of a debugging session
// marked — the textbook picture of a distributed computation.
package diagram

import (
	"fmt"
	"strings"

	"repro/internal/computation"
)

// Options controls rendering.
type Options struct {
	// Cut, when non-nil, draws a cut marker: events inside the cut render
	// in brackets.
	Cut computation.Cut
	// ShowVars appends each event's variable assignments.
	ShowVars bool
	// Width is the per-event column width (minimum 4; default 8).
	Width int
}

// Render draws comp. Layout: events are placed into columns following one
// linearization (so causality always flows left to right); each process
// occupies one row; sends and receives show the message id (s1/r1).
func Render(comp *computation.Computation, opts Options) string {
	width := opts.Width
	if width == 0 {
		width = 8
	}
	if width < 4 {
		width = 4
	}
	// Column per event from a linearization.
	seq := comp.SomeLinearization()
	cols := make([][]placed, comp.N())
	for s := 1; s < len(seq); s++ {
		prev, cur := seq[s-1], seq[s]
		for i := range cur {
			if cur[i] > prev[i] {
				cols[i] = append(cols[i], placed{col: s - 1, e: comp.Event(i, cur[i])})
				break
			}
		}
	}
	totalCols := comp.TotalEvents()
	var b strings.Builder
	for i := 0; i < comp.N(); i++ {
		fmt.Fprintf(&b, "P%-3d", i+1)
		line := make([]string, totalCols)
		for c := range line {
			line[c] = strings.Repeat("-", width)
		}
		for _, pl := range cols[i] {
			line[pl.col] = cell(comp, pl.e, opts, width)
		}
		b.WriteString(strings.Join(line, ""))
		b.WriteByte('\n')
	}
	if opts.Cut != nil {
		b.WriteString(cutLine(comp, cols, opts.Cut, width, totalCols))
	}
	b.WriteString(legend(comp))
	return b.String()
}

// cell renders one event into a fixed-width column.
func cell(comp *computation.Computation, e *computation.Event, opts Options, width int) string {
	label := e.Label
	if label == "" {
		switch e.Kind {
		case computation.Send:
			label = fmt.Sprintf("s%d", e.Msg)
		case computation.Receive:
			label = fmt.Sprintf("r%d", e.Msg)
		default:
			label = "o"
		}
	}
	if opts.ShowVars {
		if sets := comp.AppendAssignments(nil, e); len(sets) > 0 {
			parts := make([]string, len(sets))
			for i, a := range sets {
				parts[i] = fmt.Sprintf("%s=%d", a.Name, a.Value)
			}
			label += "{" + strings.Join(parts, ",") + "}"
		}
	}
	inCut := opts.Cut != nil && opts.Cut[e.Proc] >= e.Index
	if inCut {
		label = "[" + label + "]"
	}
	if len(label) > width {
		label = label[:width]
	}
	pad := width - len(label)
	left := pad / 2
	return strings.Repeat("-", left) + label + strings.Repeat("-", pad-left)
}

// placed is an event assigned to a diagram column.
type placed struct {
	col int
	e   *computation.Event
}

// cutLine draws a frontier marker row: a caret under the last included
// event of each process.
func cutLine(comp *computation.Computation, cols [][]placed, cut computation.Cut, width, totalCols int) string {
	line := make([]byte, 4+totalCols*width)
	for i := range line {
		line[i] = ' '
	}
	copy(line, "cut ")
	for i, k := range cut {
		if k == 0 {
			continue
		}
		for _, pl := range cols[i] {
			if pl.e.Index == k {
				pos := 4 + pl.col*width + width/2
				if pos < len(line) {
					line[pos] = '^'
				}
			}
		}
	}
	return strings.TrimRight(string(line), " ") + "\n"
}

// legend summarizes the message endpoints.
func legend(comp *computation.Computation) string {
	ids := comp.Messages()
	if len(ids) == 0 {
		return ""
	}
	parts := make([]string, 0, len(ids))
	for _, id := range ids {
		s := comp.SendOf(id)
		r := comp.RecvOf(id)
		dst := "∅"
		if r != nil {
			dst = fmt.Sprintf("P%d", r.Proc+1)
		}
		parts = append(parts, fmt.Sprintf("m%d: P%d→%s", id, s.Proc+1, dst))
	}
	return "msgs " + strings.Join(parts, "  ") + "\n"
}
