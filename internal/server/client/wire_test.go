package client

import (
	"encoding/json"
	"io"
	"testing"

	"repro/internal/server"
)

// ndjsonEvent is one event frame of the ingest-ndjson benchmark workload:
// a sequenced send carrying its three assignments.
var ndjsonEvent = server.ClientFrame{Type: server.FrameEvent, Seq: 4242, Proc: 3, Kind: "send", Msg: 1234,
	Sets: map[string]int{"step": 812, "x": 5, "tok": 2}}

// TestAppendClientFrameMatchesMarshal: every frame the client writes
// encodes to the bytes json.Marshal writes for it, so the wire is the
// reflection encoder's.
func TestAppendClientFrameMatchesMarshal(t *testing.T) {
	frames := map[string]server.ClientFrame{
		"hello": {Type: server.FrameHello, Processes: 3, Resumable: true, Bounded: true, Encoding: server.EncodingBinary,
			Durability: "durable", Session: "k-1",
			Watches: []server.Watch{{Op: "EF", Pred: `conj(a<b@P1 == 1, x&y@P2 >= "2")`}, {Op: "AG", Pred: "naïve@P1 != 1 \u2028 \xff\t"}}},
		"hello minimal":       {Type: server.FrameHello, Processes: 1},
		"hello empty watches": {Type: server.FrameHello, Processes: 1, Watches: []server.Watch{}},
		"resume":              {Type: server.FrameResume, Session: "s-0001", Seq: 42, Encoding: server.EncodingNDJSON},
		"init":                {Type: server.FrameInit, Seq: 1, Proc: 2, Var: "x", Value: -7},
		"init value 0":        {Type: server.FrameInit, Proc: 1, Var: "x"},
		"event":               ndjsonEvent,
		"event without sets":  {Type: server.FrameEvent, Proc: 1, Kind: "internal"},
		"event empty sets":    {Type: server.FrameEvent, Proc: 1, Kind: "internal", Sets: map[string]int{}},
		"event msg 0":         {Type: server.FrameEvent, Seq: 9, Proc: 2, Kind: "receive", Sets: map[string]int{"<b>": 0, "é": -1, "a\"b": 1 << 62}},
		"event many sets":     {Type: server.FrameEvent, Proc: 1, Sets: map[string]int{"j": 1, "i": 2, "h": 3, "g": 4, "f": 5, "e": 6, "d": 7, "c": 8, "b": 9, "a": 10}},
		"snapshot":            {Type: server.FrameSnapshot, ID: 3, Formula: "EF(x@P1 == 1 && y@P2 < 0)"},
		"bye":                 {Type: server.FrameBye},
		"bye sequenced":       {Type: server.FrameBye, Seq: 17},
	}
	for name, f := range frames {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendClientFrame(nil, f); string(got) != string(want)+"\n" {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
}

// TestAppendClientFrameAllocs: with a warm buffer an event frame encodes
// and writes without allocating.
func TestAppendClientFrameAllocs(t *testing.T) {
	var buf []byte
	if allocs := testing.AllocsPerRun(200, func() {
		writeClientFrame(io.Discard, &buf, ndjsonEvent) //nolint:errcheck // io.Discard
	}); allocs != 0 {
		t.Fatalf("%v allocations per event frame, want 0", allocs)
	}
}

func BenchmarkAppendClientFrame(b *testing.B) {
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = appendClientFrame(buf[:0], ndjsonEvent)
	}
}
