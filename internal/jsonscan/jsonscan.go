// Package jsonscan reads and writes JSON for fixed schemas without
// reflection. A decoder walks its schema with a Scanner: Object calls back
// with each key, Array with each element, and the typed field readers
// consume one value each. The accepted language is encoding/json's
// (duplicate keys, null as a no-op on scalars, escapes with U+FFFD for
// invalid UTF-8 and lone surrogates, integers in int64 range), so a
// schema decoder can match what encoding/json with DisallowUnknownFields
// accepts, except that keys must match exactly: encoding/json's case
// folding is left to the caller's switch, which does not fold.
package jsonscan

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// Interning is bounded, so a scanner reused across hostile inputs keeps
// little: longer strings are not interned, and a full table is cleared.
const maxInterned, maxInternLen = 4096, 64

// maxDepth is encoding/json's nesting limit: the outermost value is at
// depth 1.
const maxDepth = 10000

// Scanner reads JSON values from one input. Its errors carry Prefix and
// the byte offset.
type Scanner struct {
	Prefix  string
	data    []byte
	pos     int
	scratch []byte            // unescaped strings
	names   map[string]string // interned strings
}

// Reset starts scanning data from its first byte, keeping the scratch
// buffer and the interned strings.
func (s *Scanner) Reset(data []byte) { s.data, s.pos = data, 0 }

// Rest returns the unscanned input.
func (s *Scanner) Rest() []byte { return s.data[s.pos:] }

// Skip advances past n bytes of the unscanned input.
func (s *Scanner) Skip(n int) { s.pos += n }

// Done skips whitespace and reports whether the input is consumed.
func (s *Scanner) Done() bool {
	s.WS()
	return s.pos >= len(s.data)
}

// Errorf formats an error at the current offset.
func (s *Scanner) Errorf(format string, args ...any) error {
	return fmt.Errorf(s.Prefix+format+" at offset %d", append(args, s.pos)...)
}

// Syntax reports the byte at the current position as unexpected.
func (s *Scanner) Syntax() error {
	if s.pos >= len(s.data) {
		return s.Errorf("unexpected end of input")
	}
	return s.Errorf("invalid character %q", s.data[s.pos])
}

// Unknown reports key as a field the schema does not have.
func (s *Scanner) Unknown(key []byte) error { return s.Errorf("unknown field %q", key) }

// WS skips JSON whitespace.
func (s *Scanner) WS() {
	data, i := s.data, s.pos
	for i < len(data) && (data[i] == ' ' || data[i] == '\n' || data[i] == '\t' || data[i] == '\r') {
		i++
	}
	s.pos = i
}

// Null consumes a null literal if one is next.
func (s *Scanner) Null() bool {
	if len(s.data)-s.pos >= 4 && string(s.data[s.pos:s.pos+4]) == "null" {
		s.pos += 4
		return true
	}
	return false
}

// Object scans an object, calling field with each key and the scanner at
// its value. The key is valid until the next string is scanned.
func (s *Scanner) Object(field func(key []byte) error) error {
	return s.list('{', '}', func() error {
		key, err := s.Str()
		if err != nil {
			return err
		}
		if s.WS(); s.pos >= len(s.data) || s.data[s.pos] != ':' {
			return s.Syntax()
		}
		s.pos++
		s.WS()
		return field(key)
	})
}

// Array scans an array, calling elem with the scanner at each element.
func (s *Scanner) Array(elem func() error) error { return s.list('[', ']', elem) }

// list scans a bracketed, comma-separated sequence, calling elem with the
// scanner at each element.
func (s *Scanner) list(open, close byte, elem func() error) error {
	if s.pos >= len(s.data) || s.data[s.pos] != open {
		return s.Errorf("want %q", open)
	}
	s.pos++
	if s.WS(); s.pos < len(s.data) && s.data[s.pos] == close {
		s.pos++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if s.WS(); s.pos >= len(s.data) {
			return s.Syntax()
		}
		switch s.data[s.pos] {
		case ',':
			s.pos++
			s.WS()
		case close:
			s.pos++
			return nil
		default:
			return s.Syntax()
		}
	}
}

// Into decodes an array into *dst the way encoding/json decodes into a
// slice it holds already: element i decodes over whatever the backing
// array holds at i — the i-th element an earlier array decoded, whose
// fields the new one omits keep their values — an empty array leaves an
// empty slice that forgets them, and null leaves nil.
func Into[T any](s *Scanner, dst *[]T, elem func(*T) error) error {
	if s.Null() {
		*dst = nil
		return nil
	}
	v, n := *dst, 0
	err := s.Array(func() error {
		if n == cap(v) {
			v = append(v, *new(T))
		} else if n == len(v) {
			v = v[:n+1]
		}
		n++
		return elem(&v[n-1])
	})
	if n == 0 {
		v = []T{}
	}
	*dst = v[:n]
	return err
}

// Value skips one value of any type, checked as encoding/json checks its
// input, the nesting limit included. depth is the number of arrays and
// objects open around the value: 1 for a field of a top-level object. A
// decoder that ignores unknown fields skips their values with it.
func (s *Scanner) Value(depth int) error {
	if s.pos >= len(s.data) {
		return s.Syntax()
	}
	switch c := s.data[s.pos]; {
	case c == '{' || c == '[':
		if depth >= maxDepth {
			return s.Errorf("exceeded max depth")
		}
		if c == '[' {
			return s.Array(func() error { return s.Value(depth + 1) })
		}
		return s.Object(func([]byte) error { return s.Value(depth + 1) })
	case c == '"':
		_, err := s.Str()
		return err
	case c == '-' || c >= '0' && c <= '9':
		return s.number()
	}
	for _, lit := range [...]string{"true", "false", "null"} {
		if bytes.HasPrefix(s.data[s.pos:], []byte(lit)) {
			s.pos += len(lit)
			return nil
		}
	}
	return s.Syntax()
}

// number skips a JSON number: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
func (s *Scanner) number() error {
	data, i := s.data, s.pos
	digits := func() bool {
		start := i
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(data) && data[i] == '-' {
		i++
	}
	if i < len(data) && data[i] == '0' {
		i++
	} else if !digits() {
		s.pos = i
		return s.Syntax()
	}
	if i < len(data) && data[i] == '.' {
		if i++; !digits() {
			s.pos = i
			return s.Syntax()
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if !digits() {
			s.pos = i
			return s.Syntax()
		}
	}
	s.pos = i
	return nil
}

// IntField scans an integer into dst; null leaves dst alone.
func (s *Scanner) IntField(dst *int) error {
	if s.Null() {
		return nil
	}
	v, err := s.int64()
	*dst = int(v)
	return err
}

// Int64Field is IntField for an int64.
func (s *Scanner) Int64Field(dst *int64) error {
	v := int(*dst)
	err := s.IntField(&v)
	*dst = int64(v)
	return err
}

// BoolField scans true or false into dst; null leaves dst alone.
func (s *Scanner) BoolField(dst *bool) error {
	switch rest := s.data[s.pos:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		*dst, s.pos = true, s.pos+4
	case bytes.HasPrefix(rest, []byte("false")):
		*dst, s.pos = false, s.pos+5
	case !s.Null():
		return s.Errorf("want a boolean")
	}
	return nil
}

// StrField scans a string into dst, interned; null leaves dst alone.
func (s *Scanner) StrField(dst *string) error {
	if s.Null() {
		return nil
	}
	b, err := s.Str()
	*dst = s.Intern(b)
	return err
}

// TextField scans a string into dst without interning it, for values
// unique to one input (keys, formulas, messages); null leaves dst alone.
func (s *Scanner) TextField(dst *string) error {
	if s.Null() {
		return nil
	}
	b, err := s.Str()
	*dst = string(b)
	return err
}

// int64 scans a JSON number that is an integer in int64 range; a
// fraction or exponent is an error, as it is for encoding/json decoding
// an integer.
func (s *Scanner) int64() (int64, error) {
	i, limit := s.pos, uint64(1<<63-1)
	if i < len(s.data) && s.data[i] == '-' {
		i, limit = i+1, 1<<63
	}
	digits := i
	var u uint64
	for ; i < len(s.data) && s.data[i] >= '0' && s.data[i] <= '9'; i++ {
		d := uint64(s.data[i] - '0')
		if u > (limit-d)/10 {
			return 0, s.Errorf("integer out of range")
		}
		u = u*10 + d
	}
	if i == digits || (s.data[digits] == '0' && i > digits+1) {
		return 0, s.Errorf("want an integer")
	}
	if i < len(s.data) && (s.data[i] == '.' || s.data[i] == 'e' || s.data[i] == 'E') {
		return 0, s.Errorf("want an integer")
	}
	s.pos = i
	if limit == 1<<63 {
		return int64(-u), nil
	}
	return int64(u), nil
}

// Str scans a string literal and returns its unescaped bytes, which alias
// the input or the scratch buffer: valid until the next Str.
func (s *Scanner) Str() ([]byte, error) {
	if s.pos >= len(s.data) || s.data[s.pos] != '"' {
		return nil, s.Errorf("want a string")
	}
	data, start := s.data, s.pos+1
	for i := start; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			s.pos = i + 1
			return data[start:i], nil
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return s.unescape(start)
		}
	}
	s.pos = len(s.data)
	return nil, s.Syntax()
}

// unescape is Str's slow path, unquoting as encoding/json does.
func (s *Scanner) unescape(i int) ([]byte, error) {
	out := s.data[s.pos+1 : i : i]
	out = append(s.scratch[:0], out...)
	for i < len(s.data) {
		c := s.data[i]
		switch {
		case c == '"':
			s.pos, s.scratch = i+1, out
			return out, nil
		case c < ' ':
			s.pos = i
			return nil, s.Syntax()
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(s.data[i:])
			out = utf8.AppendRune(out, r)
			i += size
			continue
		case c != '\\':
			out = append(out, c)
			i++
			continue
		}
		s.pos = i
		if i+1 >= len(s.data) {
			return nil, s.Errorf("unexpected end of input")
		}
		if j := strings.IndexByte("\"\\/bfnrt", s.data[i+1]); j >= 0 {
			out = append(out, "\"\\/\b\f\n\r\t"[j])
			i += 2
			continue
		}
		r := hex4(s.data[i:])
		if r < 0 {
			return nil, s.Errorf("invalid escape")
		}
		if i += 6; utf16.IsSurrogate(r) {
			if pair := utf16.DecodeRune(r, hex4(s.data[i:])); pair != utf8.RuneError {
				r, i = pair, i+6
			} else {
				r = utf8.RuneError
			}
		}
		out = utf8.AppendRune(out, r)
	}
	s.pos = len(s.data)
	return nil, s.Syntax()
}

// hex4 decodes the \uXXXX escape at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	v, err := strconv.ParseUint(string(b[2:6]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(v)
}

// Intern returns the one string equal to b, allocated on first sight.
func (s *Scanner) Intern(b []byte) string {
	if len(b) > maxInternLen {
		return string(b)
	}
	if name, ok := s.names[string(b)]; ok {
		return name
	}
	if s.names == nil {
		s.names = make(map[string]string)
	} else if len(s.names) >= maxInterned {
		clear(s.names)
	}
	name := string(b)
	s.names[name] = name
	return name
}

// AppendNonEmpty appends key and v quoted unless v is empty: a string
// field tagged omitempty, key carrying its comma, quotes and colon.
func AppendNonEmpty(b []byte, key, v string) []byte {
	if v == "" {
		return b
	}
	return AppendString(append(b, key...), v)
}

// AppendNonZero appends key and v unless v is 0: an integer field tagged
// omitempty.
func AppendNonZero(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), v, 10)
}

// AppendString appends s as encoding/json quotes it: <, > and & escaped
// for HTML, invalid UTF-8 as \ufffd, U+2028 and U+2029 escaped.
func AppendString(b []byte, s string) []byte {
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
