package trace

import (
	"bytes"
	"errors"
	"io"

	"repro/internal/computation"
	"repro/internal/jsonscan"
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
	jsonscan.Scanner
	general            bool
	version, processes int
	initial            []InitVar // jsonscan.Into keeps earlier elements past len
	events             []evRec   // as initial, in general mode
	l                  *loader   // set once events are applied while scanned
	rec                evRec     // the streamed event
}

func (d *decoder) decode() (*computation.Computation, error) {
	d.WS()
	err := d.Object(func(key []byte) error {
		switch string(key) {
		case "version", "processes":
			if d.l != nil {
				return errGeneral
			}
			if key[0] == 'v' {
				return d.IntField(&d.version)
			}
			return d.IntField(&d.processes)
		case "initial":
			return jsonscan.Into(&d.Scanner, &d.initial, d.initVar)
		case "events":
			return d.eventList()
		}
		return d.Unknown(key)
	})
	if err != nil {
		return nil, err
	}
	if !d.Done() {
		return nil, d.Errorf("data after the top-level object")
	}
	l := d.l
	if l == nil {
		if l, err = newLoader(d.version, d.processes); err != nil {
			return nil, err
		}
	}
	for _, iv := range d.initial {
		if err := l.initial(iv); err != nil {
			return nil, err
		}
	}
	for idx := range d.events {
		if err := l.event(idx, &d.events[idx]); err != nil {
			return nil, err
		}
	}
	return l.build()
}

func (d *decoder) initVar(iv *InitVar) error {
	if d.Null() {
		return nil
	}
	return d.Object(func(key []byte) error {
		switch string(key) {
		case "proc":
			return d.IntField(&iv.Proc)
		case "var":
			return d.StrField(&iv.Var)
		case "value":
			return d.IntField(&iv.Value)
		}
		return d.Unknown(key)
	})
}

func (d *decoder) eventList() error {
	if d.l != nil {
		return errGeneral
	}
	if !d.general && len(d.events) == 0 && d.version == Version && d.processes >= 1 && d.processes <= MaxProcesses {
		return d.stream()
	}
	return jsonscan.Into(&d.Scanner, &d.events, d.event)
}

// stream applies each event as soon as it is scanned.
func (d *decoder) stream() error {
	l, err := newLoader(d.version, d.processes)
	if err != nil {
		return err
	}
	d.l = l
	if d.Null() {
		return nil
	}
	idx := 0
	return d.Array(func() error {
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
	if d.Null() {
		return nil
	}
	return d.Object(func(key []byte) error {
		switch string(key) {
		case "proc":
			return d.IntField(&r.proc)
		case "kind":
			return d.StrField(&r.kind)
		case "msg":
			return d.IntField(&r.msg)
		case "label":
			return d.StrField(&r.label)
		case "sets":
			if d.Null() {
				r.sets = r.sets[:0]
				return nil
			}
			return d.Object(func(key []byte) error {
				a := computation.Assignment{Name: d.Intern(key)}
				err := d.IntField(&a.Value) // null assigns 0
				r.sets = append(r.sets, a)
				return err
			})
		}
		return d.Unknown(key)
	})
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
