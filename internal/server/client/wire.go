package client

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

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
	b = appendInt(b, `,"processes":`, int64(f.Processes))
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
	b = appendStr(b, `,"encoding":`, f.Encoding)
	b = appendStr(b, `,"durability":`, f.Durability)
	b = appendStr(b, `,"session":`, f.Session)
	b = appendInt(b, `,"seq":`, f.Seq)
	b = appendInt(b, `,"proc":`, int64(f.Proc))
	b = appendStr(b, `,"var":`, f.Var)
	b = appendInt(b, `,"value":`, int64(f.Value))
	b = appendStr(b, `,"kind":`, f.Kind)
	b = appendInt(b, `,"msg":`, int64(f.Msg))
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
	b = appendInt(b, `,"id":`, int64(f.ID))
	b = appendStr(b, `,"formula":`, f.Formula)
	return append(b, "}\n"...)
}

// appendStr appends the key and v unless v is empty.
func appendStr(b []byte, key, v string) []byte {
	if v == "" {
		return b
	}
	return jsonscan.AppendString(append(b, key...), v)
}

// appendInt appends the key and v unless v is 0.
func appendInt(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), v, 10)
}

func decodeServerFrame(line []byte, fr *server.ServerFrame) error {
	if err := json.Unmarshal(line, fr); err != nil {
		return fmt.Errorf("bad server frame: %v", err)
	}
	return nil
}
