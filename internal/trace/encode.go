package trace

import (
	"io"
	"strconv"
	"unicode/utf8"

	"repro/internal/computation"
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
			b = appendString(b, iv.Var)
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
		b = appendString(b, e.Kind.String())
		if e.Kind != computation.Internal && e.Msg != 0 {
			b = append(b, ",\n      \"msg\": "...)
			b = strconv.AppendInt(b, int64(e.Msg), 10)
		}
		if e.Label != "" {
			b = append(b, ",\n      \"label\": "...)
			b = appendString(b, e.Label)
		}
		if sets = comp.AppendAssignments(sets[:0], e); len(sets) > 0 {
			b = append(b, ",\n      \"sets\": {"...)
			for k, a := range sets {
				if k > 0 {
					b = append(b, ',')
				}
				b = append(b, "\n        "...)
				b = appendString(b, a.Name)
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

// appendString appends s as encoding/json quotes it: <, > and & escaped
// for HTML, invalid UTF-8 as \ufffd, U+2028 and U+2029 escaped.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
