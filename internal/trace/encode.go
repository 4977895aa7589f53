package trace

import (
	"io"
	"strconv"

	"repro/internal/computation"
	"repro/internal/jsonscan"
)

// Encode writes comp as JSON to w: byte for byte what json.Encoder with a
// two-space indent writes for FileFrom(comp), written straight from the
// computation without building the File.
func Encode(w io.Writer, comp *computation.Computation) error {
	b := make([]byte, 0, 64<<10)
	b = append(b, "{\n  \"version\": "...)
	b = strconv.AppendInt(b, Version, 10)
	b = append(b, ",\n  \"processes\": "...)
	b = strconv.AppendInt(b, int64(comp.N()), 10)
	if ivs := initials(comp); len(ivs) > 0 {
		b = append(b, ",\n  \"initial\": ["...)
		for j, iv := range ivs {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    {\n      \"proc\": "...)
			b = strconv.AppendInt(b, int64(iv.Proc), 10)
			b = append(b, ",\n      \"var\": "...)
			b = jsonscan.AppendString(b, iv.Var)
			b = append(b, ",\n      \"value\": "...)
			b = strconv.AppendInt(b, int64(iv.Value), 10)
			b = append(b, "\n    }"...)
		}
		b = append(b, "\n  ]"...)
	}
	b = append(b, ",\n  \"events\": "...)
	evs := comp.Linearization()
	if len(evs) == 0 {
		b = append(b, "null"...) // FileFrom leaves Events nil
	}
	var sets []computation.Assignment
	for j, e := range evs {
		if j == 0 {
			b = append(b, '[')
		} else {
			b = append(b, ',')
		}
		b = append(b, "\n    {\n      \"proc\": "...)
		b = strconv.AppendInt(b, int64(e.Proc+1), 10)
		b = append(b, ",\n      \"kind\": "...)
		b = jsonscan.AppendString(b, e.Kind.String())
		if e.Kind != computation.Internal && e.Msg != 0 {
			b = append(b, ",\n      \"msg\": "...)
			b = strconv.AppendInt(b, int64(e.Msg), 10)
		}
		if e.Label != "" {
			b = append(b, ",\n      \"label\": "...)
			b = jsonscan.AppendString(b, e.Label)
		}
		if sets = comp.AppendAssignments(sets[:0], e); len(sets) > 0 {
			b = append(b, ",\n      \"sets\": {"...)
			for k, a := range sets {
				if k > 0 {
					b = append(b, ',')
				}
				b = append(b, "\n        "...)
				b = jsonscan.AppendString(b, a.Name)
				b = append(b, ": "...)
				b = strconv.AppendInt(b, int64(a.Value), 10)
			}
			b = append(b, "\n      }"...)
		}
		b = append(b, "\n    }"...)
		if len(b) >= 60<<10 {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	if len(evs) > 0 {
		b = append(b, "\n  ]"...)
	}
	b = append(b, "\n}\n"...)
	_, err := w.Write(b)
	return err
}
