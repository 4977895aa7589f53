package server_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/pir"
	"repro/internal/server"
)

// TestSameEventVerdictOrder pins the order of verdict frames for watches
// that latch on one event: ascending watch index with consecutive Idx,
// whatever order the monitor got to them in (it tells EF watches before
// AG watches) and however the event travelled. Watches 0–2 all latch on
// event 3; watches 3 and 4 are decided by the initial values alone and
// latch at Event 0, before them.
func TestSameEventVerdictOrder(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	hello, _ := json.Marshal(server.ClientFrame{Type: server.FrameHello, Processes: 2, Encoding: server.EncodingBinary, Watches: []server.Watch{
		{Op: "AG", Pred: "conj(x@P1 == 0)"},
		{Op: "EF", Pred: "conj(x@P1 == 1)"},
		{Op: "EF", Pred: "conj(x@P1 == 1, y@P2 == 0)"},
		{Op: "EF", Pred: "conj(z@P2 == 0)"},
		{Op: "AG", Pred: "conj(z@P2 == 5)"},
	}})
	script := []server.ClientFrame{
		{Type: server.FrameEvent, Proc: 2, Sets: map[string]int{"w": 1}},
		{Type: server.FrameEvent, Proc: 1},
		{Type: server.FrameEvent, Proc: 1, Sets: map[string]int{"x": 1}},
		{Type: server.FrameEvent, Proc: 2, Sets: map[string]int{"y": 1}},
	}
	type latch struct{ watch, event int }
	want := []latch{{3, 0}, {4, 0}, {0, 3}, {1, 3}, {2, 3}}

	for _, batch := range []int{0, 1, 16} { // 0: one NDJSON frame per event
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			r := dialRaw(t, addr)
			r.send("%s", hello)
			r.recvType(server.FrameWelcome)
			var vt pir.VarTable
			pending := new(pir.Batch)
			for i, f := range script {
				if batch == 0 {
					line, _ := json.Marshal(f)
					r.send("%s", line)
					continue
				}
				parityRow(pending, f)
				if pending.Len() == batch || i == len(script)-1 {
					frame := server.AppendBinaryFrame(nil, server.BinBatch, pir.AppendBatch(nil, 0, pending, &vt))
					if _, err := r.conn.Write(frame); err != nil {
						t.Fatal(err)
					}
					pending.Reset()
				}
			}
			r.send(`{"type":"bye"}`)
			var got []latch
			for {
				fr := r.recv()
				if fr.Type == server.FrameGoodbye {
					break
				}
				if fr.Type != server.FrameVerdict {
					t.Fatalf("unexpected frame %+v", fr)
				}
				if fr.Idx != len(got)+1 {
					t.Errorf("verdict for watch %d has idx %d, want %d", fr.Watch, fr.Idx, len(got)+1)
				}
				got = append(got, latch{fr.Watch, fr.Event})
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("verdicts (watch, event) = %v, want %v", got, want)
			}
		})
	}
}
