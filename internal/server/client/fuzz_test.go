package client

import (
	"encoding/binary"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/server"
)

// caseFolded reports whether line is an object with a key that
// encoding/json would case-fold onto a ServerFrame field: the one input
// on which json.Unmarshal and decodeServerFrame may differ, because the
// decoder matches keys exactly and skips the rest.
func caseFolded(line []byte) bool {
	var keys map[string]json.RawMessage
	if json.Unmarshal(line, &keys) != nil {
		return false
	}
	typ := reflect.TypeOf(server.ServerFrame{})
	for key := range keys {
		for i := 0; i < typ.NumField(); i++ {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			if name != key && strings.EqualFold(name, key) {
				return true
			}
		}
	}
	return false
}

// frameGen draws a ServerFrame's fields from fuzz bytes; past the end it
// draws zeros, which leaves the field empty.
type frameGen struct{ b []byte }

func (g *frameGen) next(n int) []byte {
	out := make([]byte, n)
	g.b = g.b[copy(out, g.b):]
	return out
}

// int draws small values most of the time and any int64 otherwise.
func (g *frameGen) int() int {
	sel := g.next(1)[0]
	v := int64(binary.LittleEndian.Uint64(g.next(8)))
	if sel%4 != 0 {
		v %= 1000
	}
	return int(v)
}

// str draws up to 15 raw bytes, so quotes, controls, HTML characters and
// invalid UTF-8 all come up.
func (g *frameGen) str() string { return string(g.next(int(g.next(1)[0] % 16))) }

func (g *frameGen) frame() server.ServerFrame {
	fr := server.ServerFrame{Type: g.str(), Session: g.str(), Processes: g.int(), Watches: g.int(),
		Watch: g.int(), Op: g.str(), Pred: g.str(), Event: g.int()}
	if n := g.next(1)[0] % 6; n > 0 {
		fr.Cut = make([]int, n-1) // n == 1: an empty cut, omitted like a nil one
		for i := range fr.Cut {
			fr.Cut[i] = g.int()
		}
	}
	fr.Conjunct, fr.ID = g.str(), g.int()
	if h := g.next(1)[0] % 3; h > 0 {
		holds := h == 2
		fr.Holds = &holds
	}
	fr.Algorithm, fr.Events, fr.Dropped, fr.Seq, fr.Idx = g.str(), g.int(), g.int(), int64(g.int()), g.int()
	fr.Resumed = g.next(1)[0]%2 == 1
	fr.Encoding, fr.Error, fr.Code, fr.Owner = g.str(), g.str(), g.str(), g.str()
	return fr
}

// FuzzDecodeServerFrame is differential against encoding/json in both
// directions. On arbitrary bytes, decodeServerFrame accepts exactly what
// json.Unmarshal accepts, but for case-folded keys, and decodes the same
// frame. For a ServerFrame drawn from the same bytes, the server's
// server.AppendFrame writes json.Marshal's bytes and a newline, and the
// decoder reads them back as json.Unmarshal does.
func FuzzDecodeServerFrame(f *testing.F) {
	for _, fr := range []server.ServerFrame{
		{Type: server.FrameWelcome, Session: "s-0001", Processes: 8, Watches: 4, Encoding: server.EncodingBinary},
		{Type: server.FrameVerdict, Session: "s-0001", Watch: 2, Op: "EF", Pred: "conj(x@P1 == 1, y@P2 >= 2)", Event: 17, Cut: []int{3, 0, 5}, Idx: 1},
		{Type: server.FrameVerdict, Op: "AG", Pred: "conj(x@P1 <= 2)", Event: 9, Cut: []int{1, 1}, Conjunct: "x@P1 <= 2", Idx: 2},
		{Type: server.FrameSnapshot, ID: 3, Holds: new(bool), Algorithm: "A2", Event: 40, Events: 40},
		{Type: server.FrameAck, Session: "k", Seq: 64, Event: 64},
		{Type: server.FrameGoodbye, Session: "s-0002", Events: 96, Dropped: 3, Error: "idle timeout"},
		{Type: server.FrameWelcome, Session: "k-1", Seq: 9223372036854775807, Resumed: true},
		{Type: server.FrameError, Code: server.CodeNotOwner, Owner: "127.0.0.1:7001", Error: "server: session key \"k\" is not placed here; dial <x> &  \xff"},
	} {
		line := server.AppendFrame(nil, &fr)
		if want, _ := json.Marshal(fr); string(line) != string(want)+"\n" {
			f.Fatalf("AppendFrame wrote\n %s\njson.Marshal writes\n %s", line, want)
		}
		f.Add(line)
	}
	f.Add([]byte(`{"type":"verdict","watch":0,"event":0,"extra":{"a":[1,-2.5e+3,true,false,null,"é"]},"cut":[1,2]}`))
	f.Add([]byte(`{"type":"ack","seq":1,"seq":null,"cut":[1,2],"cut":[3],"holds":true,"holds":null}`))
	f.Add([]byte(`{"Type":"ack","SEQ":3}`))          // case-folded keys
	f.Add([]byte(`{"type":"ack","ſeq":3}`))          // a long s folds onto s
	f.Add([]byte(`{"type":"ack","x":01}`))           // a leading zero, skipped or not
	f.Add([]byte(`{"type":"ack","x":1.}`))           // a fraction without digits
	f.Add([]byte(`{"type":"ack","x":[[[[[]]]]]}{}`)) // trailing data
	f.Add([]byte(`{"type":"ack","x":"\ud800A"}`))    // a lone surrogate
	f.Add([]byte(`{"watch":1.5}`))
	f.Add([]byte(`{"holds":"true"}`))
	f.Add([]byte(` null `))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Add([]byte(`{"x":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`))
	f.Add([]byte(`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want server.ServerFrame
		err := decodeServerFrame(data, &got)
		refErr := json.Unmarshal(data, &want)
		switch {
		case caseFolded(data):
		case (err == nil) != (refErr == nil):
			t.Fatalf("decoding %q: error %v, encoding/json's %v", data, err, refErr)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("decoded %q as\n %#v\nencoding/json decodes\n %#v", data, got, want)
		}

		fr := (&frameGen{data}).frame()
		line := server.AppendFrame(nil, &fr)
		marshaled, err := json.Marshal(fr)
		if err != nil {
			t.Fatal(err)
		}
		if string(line) != string(marshaled)+"\n" {
			t.Fatalf("AppendFrame wrote\n %s\njson.Marshal writes\n %s", line, marshaled)
		}
		got, want = server.ServerFrame{}, server.ServerFrame{}
		if err := decodeServerFrame(line, &got); err != nil {
			t.Fatalf("decoding %s: %v", line, err)
		}
		if err := json.Unmarshal(line, &want); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded %s as\n %#v\nencoding/json decodes\n %#v (%v)", line, got, want, err)
		}
	})
}
