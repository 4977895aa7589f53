package client

import (
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/jsonscan"
	"repro/internal/pir"
	"repro/internal/server"
)

// newScanner returns the shared bounded frame scanner — the same
// constructor the server, the cluster links, and the fuzz harness use,
// so every path enforces the same MaxFrameBytes bound. Server → client
// traffic is NDJSON-only, but the shared scanner keeps the bound (and
// its typed too-long error) in one place.
func newScanner(r io.Reader) *server.FrameScanner {
	return server.NewFrameScanner(r)
}

// writeClientFrame writes f as one NDJSON line, encoded into *buf.
func writeClientFrame(w io.Writer, buf *[]byte, f server.ClientFrame) error {
	*buf = appendClientFrame((*buf)[:0], f)
	_, err := w.Write(*buf)
	return err
}

// appendClientFrame appends f and a newline to b: byte for byte what
// json.Marshal writes for f, fields in declaration order, empty ones
// omitted, sets keys sorted, strings escaped as encoding/json escapes
// them. Batch frames never come here: writeWire sends them in binary.
func appendClientFrame(b []byte, f server.ClientFrame) []byte {
	b = jsonscan.AppendString(append(b, `{"type":`...), f.Type)
	b = jsonscan.AppendNonZero(b, `,"processes":`, int64(f.Processes))
	for i, w := range f.Watches {
		if i == 0 {
			b = append(b, `,"watches":[`...)
		} else {
			b = append(b, ',')
		}
		b = jsonscan.AppendString(append(b, `{"op":`...), w.Op)
		b = jsonscan.AppendString(append(b, `,"pred":`...), w.Pred)
		b = append(b, '}')
		if i == len(f.Watches)-1 {
			b = append(b, ']')
		}
	}
	if f.Resumable {
		b = append(b, `,"resumable":true`...)
	}
	if f.Bounded {
		b = append(b, `,"bounded":true`...)
	}
	b = jsonscan.AppendNonEmpty(b, `,"encoding":`, f.Encoding)
	b = jsonscan.AppendNonEmpty(b, `,"durability":`, f.Durability)
	b = jsonscan.AppendNonEmpty(b, `,"session":`, f.Session)
	b = jsonscan.AppendNonZero(b, `,"seq":`, f.Seq)
	b = jsonscan.AppendNonZero(b, `,"proc":`, int64(f.Proc))
	b = jsonscan.AppendNonEmpty(b, `,"var":`, f.Var)
	b = jsonscan.AppendNonZero(b, `,"value":`, int64(f.Value))
	b = jsonscan.AppendNonEmpty(b, `,"kind":`, f.Kind)
	b = jsonscan.AppendNonZero(b, `,"msg":`, int64(f.Msg))
	if len(f.Sets) > 0 {
		sets := make([]pir.VarSet, 0, 8)
		for name, v := range f.Sets {
			sets = append(sets, pir.VarSet{Name: name, Val: v})
		}
		slices.SortFunc(sets, func(x, y pir.VarSet) int { return strings.Compare(x.Name, y.Name) })
		for i, vs := range sets {
			if i == 0 {
				b = append(b, `,"sets":{`...)
			} else {
				b = append(b, ',')
			}
			b = strconv.AppendInt(append(jsonscan.AppendString(b, vs.Name), ':'), int64(vs.Val), 10)
		}
		b = append(b, '}')
	}
	b = jsonscan.AppendNonZero(b, `,"id":`, int64(f.ID))
	b = jsonscan.AppendNonEmpty(b, `,"formula":`, f.Formula)
	return append(b, "}\n"...)
}

// decodeServerFrame parses one server frame into *fr. It accepts what
// json.Unmarshal accepts and decodes the same frame, with two
// differences: keys must match exactly (encoding/json also takes a
// case-folded key), and unknown keys are skipped, so a newer server may
// add fields.
func decodeServerFrame(line []byte, fr *server.ServerFrame) error {
	d := serverDecoders.Get().(*serverDecoder)
	d.Reset(line)
	err := d.frame(fr)
	if err == nil && !d.Done() {
		err = d.Errorf("trailing data after frame")
	}
	d.Reset(nil)
	serverDecoders.Put(d)
	return err
}

// serverDecoder is one server-frame scanner, pooled like the server's
// client-frame decoders, so its interned strings (types, session ids,
// codes) outlive a connection.
type serverDecoder struct{ jsonscan.Scanner }

var serverDecoders = sync.Pool{New: func() any {
	return &serverDecoder{jsonscan.Scanner{Prefix: "bad server frame: "}}
}}

func (d *serverDecoder) frame(fr *server.ServerFrame) error {
	if d.WS(); d.Null() {
		return nil
	}
	return d.Object(func(key []byte) error {
		switch string(key) {
		case "type":
			return d.StrField(&fr.Type)
		case "session":
			return d.StrField(&fr.Session)
		case "processes":
			return d.IntField(&fr.Processes)
		case "watches":
			return d.IntField(&fr.Watches)
		case "watch":
			return d.IntField(&fr.Watch)
		case "op":
			return d.StrField(&fr.Op)
		case "pred":
			return d.TextField(&fr.Pred)
		case "event":
			return d.IntField(&fr.Event)
		case "cut":
			return jsonscan.Into(&d.Scanner, &fr.Cut, d.IntField)
		case "conjunct":
			return d.TextField(&fr.Conjunct)
		case "id":
			return d.IntField(&fr.ID)
		case "holds":
			return d.holds(&fr.Holds)
		case "algorithm":
			return d.StrField(&fr.Algorithm)
		case "events":
			return d.IntField(&fr.Events)
		case "dropped":
			return d.IntField(&fr.Dropped)
		case "seq":
			return d.Int64Field(&fr.Seq)
		case "idx":
			return d.IntField(&fr.Idx)
		case "resumed":
			return d.BoolField(&fr.Resumed)
		case "encoding":
			return d.StrField(&fr.Encoding)
		case "error":
			return d.TextField(&fr.Error)
		case "code":
			return d.StrField(&fr.Code)
		case "owner":
			return d.StrField(&fr.Owner)
		}
		return d.Value(1)
	})
}

// holds scans a boolean into a fresh *dst, as encoding/json fills a
// pointer field; null sets it nil.
func (d *serverDecoder) holds(dst **bool) error {
	if d.Null() {
		*dst = nil
		return nil
	}
	v := new(bool)
	if *dst != nil {
		*v = **dst
	}
	*dst = v
	return d.BoolField(v)
}
