package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/computation"
)

// The decoder applies events while it scans them when "version" and
// "processes" come first, as Encode writes them. Otherwise, and whenever a
// later key could change the outcome (a second header key or "events"
// array, or a record the loader rejects), Decode scans the input again in
// general mode, which parses every record before applying any and
// reproduces encoding/json's treatment of a repeated array: the later one
// decodes into the elements of the earlier one.

// errGeneral asks Decode to scan again in general mode.
var errGeneral = errors.New("trace: rescan in general mode")

// decoder holds the top-level state of one scan.
type decoder struct {
	scanner
	general            bool
	version, processes int
	initial            []InitVar // every element decoded so far; the first nInitial are live
	nInitial           int
	events             []evRec // as initial, in general mode
	nEvents            int
	l                  *loader // set once events are applied while scanned
	rec                evRec   // the streamed event
}

func (d *decoder) decode() (*computation.Computation, error) {
	d.ws()
	err := d.object(func(key []byte) error {
		switch string(key) {
		case "version", "processes":
			if d.l != nil {
				return errGeneral
			}
			if key[0] == 'v' {
				return d.intField(&d.version)
			}
			return d.intField(&d.processes)
		case "initial":
			var err error
			d.nInitial, err = into(d, &d.initial, d.initVar)
			return err
		case "events":
			return d.eventList()
		}
		return d.unknown(key)
	})
	if err != nil {
		return nil, err
	}
	if d.ws(); d.pos < len(d.data) {
		return nil, d.errorf("data after the top-level object")
	}
	l := d.l
	if l == nil {
		if l, err = newLoader(d.version, d.processes); err != nil {
			return nil, err
		}
	}
	for _, iv := range d.initial[:d.nInitial] {
		if err := l.initial(iv); err != nil {
			return nil, err
		}
	}
	for idx := range d.events[:d.nEvents] {
		if err := l.event(idx, &d.events[idx]); err != nil {
			return nil, err
		}
	}
	return l.build()
}

func (d *decoder) initVar(iv *InitVar) error {
	if d.null() {
		return nil
	}
	return d.object(func(key []byte) error {
		switch string(key) {
		case "proc":
			return d.intField(&iv.Proc)
		case "var":
			return d.strField(&iv.Var)
		case "value":
			return d.intField(&iv.Value)
		}
		return d.unknown(key)
	})
}

func (d *decoder) eventList() (err error) {
	if d.l != nil {
		return errGeneral
	}
	if !d.general && len(d.events) == 0 && d.version == Version && d.processes >= 1 && d.processes <= MaxProcesses {
		return d.stream()
	}
	d.nEvents, err = into(d, &d.events, d.event)
	return err
}

// into decodes an array the way encoding/json decodes into a slice it
// holds already: element i over the i-th element ever decoded, whose
// fields the new one omits keep their values; an empty array or null
// drops them all. It returns the array's length.
func into[T any](d *decoder, all *[]T, elem func(*T) error) (int, error) {
	if d.null() {
		*all = nil
		return 0, nil
	}
	n := 0
	err := d.array(func() error {
		if n == len(*all) {
			*all = append(*all, *new(T))
		}
		n++
		return elem(&(*all)[n-1])
	})
	if n == 0 {
		*all = nil
	}
	return n, err
}

// stream applies each event as soon as it is scanned.
func (d *decoder) stream() error {
	l, err := newLoader(d.version, d.processes)
	if err != nil {
		return err
	}
	d.l = l
	if d.null() {
		return nil
	}
	idx := 0
	return d.array(func() error {
		d.rec = evRec{sets: d.rec.sets[:0]}
		if err := d.event(&d.rec); err != nil {
			return err
		}
		if l.event(idx, &d.rec) != nil {
			return errGeneral // a later header key may yet make it valid
		}
		idx++
		return nil
	})
}

// event scans one event object into r, over whatever r holds already.
func (d *decoder) event(r *evRec) error {
	if d.null() {
		return nil
	}
	return d.object(func(key []byte) error {
		switch string(key) {
		case "proc":
			return d.intField(&r.proc)
		case "kind":
			return d.strField(&r.kind)
		case "msg":
			return d.intField(&r.msg)
		case "label":
			return d.strField(&r.label)
		case "sets":
			if d.null() {
				r.sets = r.sets[:0]
				return nil
			}
			return d.object(func(key []byte) error {
				a := computation.Assignment{Name: d.intern(key)}
				err := d.intField(&a.Value) // null assigns 0
				r.sets = append(r.sets, a)
				return err
			})
		}
		return d.unknown(key)
	})
}

// scanner reads JSON values from data. Its errors carry the byte offset.
type scanner struct {
	data    []byte
	pos     int
	scratch []byte            // unescaped strings
	names   map[string]string // interned strings: variable names, kinds, labels
}

// readAll reads r whole, sized up front when r knows its length.
func readAll(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

func (s *scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("trace: "+format+" at offset %d", append(args, s.pos)...)
}

func (s *scanner) syntax() error {
	if s.pos >= len(s.data) {
		return s.errorf("unexpected end of input")
	}
	return s.errorf("invalid character %q", s.data[s.pos])
}

func (s *scanner) unknown(key []byte) error { return s.errorf("unknown field %q", key) }

func (s *scanner) ws() {
	data, i := s.data, s.pos
	for i < len(data) && (data[i] == ' ' || data[i] == '\n' || data[i] == '\t' || data[i] == '\r') {
		i++
	}
	s.pos = i
}

// null consumes a null literal if one is next.
func (s *scanner) null() bool {
	if len(s.data)-s.pos >= 4 && string(s.data[s.pos:s.pos+4]) == "null" {
		s.pos += 4
		return true
	}
	return false
}

// object scans an object, calling field with each key and the scanner at
// its value. The key is valid until the next string is scanned.
func (s *scanner) object(field func(key []byte) error) error {
	return s.list('{', '}', func() error {
		key, err := s.str()
		if err != nil {
			return err
		}
		if s.ws(); s.pos >= len(s.data) || s.data[s.pos] != ':' {
			return s.syntax()
		}
		s.pos++
		s.ws()
		return field(key)
	})
}

func (s *scanner) array(elem func() error) error { return s.list('[', ']', elem) }

// list scans a bracketed, comma-separated sequence, calling elem with the
// scanner at each element.
func (s *scanner) list(open, close byte, elem func() error) error {
	if s.pos >= len(s.data) || s.data[s.pos] != open {
		return s.errorf("want %q", open)
	}
	s.pos++
	if s.ws(); s.pos < len(s.data) && s.data[s.pos] == close {
		s.pos++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if s.ws(); s.pos >= len(s.data) {
			return s.syntax()
		}
		switch s.data[s.pos] {
		case ',':
			s.pos++
			s.ws()
		case close:
			s.pos++
			return nil
		default:
			return s.syntax()
		}
	}
}

// intField scans an integer into dst; null leaves dst alone.
func (s *scanner) intField(dst *int) error {
	if s.null() {
		return nil
	}
	v, err := s.int()
	*dst = v
	return err
}

// strField scans a string into dst, interned; null leaves dst alone.
func (s *scanner) strField(dst *string) error {
	if s.null() {
		return nil
	}
	b, err := s.str()
	*dst = s.intern(b)
	return err
}

// int scans a JSON number that is an integer in int64 range; a fraction
// or exponent is an error, as it is for encoding/json decoding an int.
func (s *scanner) int() (int, error) {
	i, limit := s.pos, uint64(1<<63-1)
	if i < len(s.data) && s.data[i] == '-' {
		i, limit = i+1, 1<<63
	}
	digits := i
	var u uint64
	for ; i < len(s.data) && s.data[i] >= '0' && s.data[i] <= '9'; i++ {
		d := uint64(s.data[i] - '0')
		if u > (limit-d)/10 {
			return 0, s.errorf("integer out of range")
		}
		u = u*10 + d
	}
	if i == digits || (s.data[digits] == '0' && i > digits+1) {
		return 0, s.errorf("want an integer")
	}
	if i < len(s.data) && (s.data[i] == '.' || s.data[i] == 'e' || s.data[i] == 'E') {
		return 0, s.errorf("want an integer")
	}
	s.pos = i
	if limit == 1<<63 {
		return int(-u), nil
	}
	return int(u), nil
}

// str scans a string literal and returns its unescaped bytes, which alias
// the input or the scratch buffer: valid until the next str.
func (s *scanner) str() ([]byte, error) {
	if s.pos >= len(s.data) || s.data[s.pos] != '"' {
		return nil, s.errorf("want a string")
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
	return nil, s.syntax()
}

// unescape is str's slow path, unquoting as encoding/json does.
func (s *scanner) unescape(i int) ([]byte, error) {
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
			return nil, s.syntax()
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
			return nil, s.errorf("unexpected end of input")
		}
		if j := strings.IndexByte("\"\\/bfnrt", s.data[i+1]); j >= 0 {
			out = append(out, "\"\\/\b\f\n\r\t"[j])
			i += 2
			continue
		}
		r := hex4(s.data[i:])
		if r < 0 {
			return nil, s.errorf("invalid escape")
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
	return nil, s.syntax()
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

// intern returns the one string equal to b, allocated on first sight.
func (s *scanner) intern(b []byte) string {
	if name, ok := s.names[string(b)]; ok {
		return name
	}
	if s.names == nil {
		s.names = make(map[string]string)
	}
	name := string(b)
	s.names[name] = name
	return name
}
