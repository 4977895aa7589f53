package server_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/pir"
	"repro/internal/server"
	"repro/internal/server/client"
)

// parityStep is one frame of the parity script. raw marks a frame no
// batch row can carry (an unknown kind has no column value; a proc or
// msg beyond int32 does not fit one): every mode sends it as a single
// NDJSON frame, which splits the batch around it.
type parityStep struct {
	f   server.ClientFrame
	raw bool
	err string // substring of the rejection it must draw; "" = applied
}

func parityScript() []parityStep {
	ev := func(proc int, kind string, msg int, sets map[string]int) server.ClientFrame {
		return server.ClientFrame{Type: server.FrameEvent, Proc: proc, Kind: kind, Msg: msg, Sets: sets}
	}
	init := func(proc int, name string, v int) server.ClientFrame {
		return server.ClientFrame{Type: server.FrameInit, Proc: proc, Var: name, Value: v}
	}
	const big = 1<<32 + 1 // aliases 1 if narrowed to int32 unchecked
	return []parityStep{
		// A rejected first event must not start watch evaluation: the
		// inits behind it are still in time, on every encoding.
		{f: ev(7, "internal", 0, nil), err: "process 7 outside [1,3]"},
		{f: init(1, "x", 0)},
		{f: init(2, "x", 0)},
		{f: init(3, "y", 1)},
		{f: ev(1, "internal", 0, map[string]int{"x": 1})},
		{f: ev(1, "send", 1, nil)},
		{f: ev(2, "send", 1, nil), err: "message 1 sent twice"},
		{f: ev(2, "receive", 99, nil), err: "receive of unknown message 99"},
		{f: ev(2, "receive", 1, map[string]int{"x": 1, "z": 4})}, // EF fires: cut <2 1 0>
		{f: ev(2, "receive", 1, nil), err: "received twice"},
		{f: init(2, "w", 3), err: "init for process 2 after its events"},
		{f: init(3, "w", 3), err: "init after watches started evaluating"},
		{f: ev(2, "bogus", 0, nil), raw: true, err: `unknown event kind "bogus"`},
		{f: ev(big, "internal", 0, nil), raw: true, err: fmt.Sprintf("process %d outside [1,3]", big)},
		{f: ev(1, "send", big, nil), raw: true, err: fmt.Sprintf("message id %d outside", big)},
		{f: ev(2, "receive", big, nil), raw: true, err: fmt.Sprintf("receive of unknown message %d", big)},
		{f: ev(2, "send", 2, nil)},
		{f: ev(3, "receive", 2, map[string]int{"x": 1})}, // STABLE fires at event 5
		{f: ev(3, "", 0, map[string]int{"x": 2})},        // AG violated at event 6
		{f: ev(1, "internal", 0, nil)},
	}
}

// parityRow appends a non-raw step to b as a batch row.
func parityRow(b *pir.Batch, f server.ClientFrame) {
	if f.Type == server.FrameInit {
		b.AddInit(f.Proc, f.Var, f.Value)
		return
	}
	kind := map[string]byte{"": pir.EvInternal, "internal": pir.EvInternal, "send": pir.EvSend, "receive": pir.EvReceive}[f.Kind]
	b.AddEvent(f.Proc, kind, f.Msg, f.Sets)
}

// runParity streams the script over one connection — batchSize 0 sends
// every step as a single NDJSON frame, otherwise runs of up to batchSize
// rows travel as one batch frame in the given encoding — and returns the
// recorded (verdict and error) frames plus the goodbye.
func runParity(t *testing.T, addr string, binary bool, batchSize int) ([]server.ServerFrame, server.ServerFrame) {
	t.Helper()
	r := dialRaw(t, addr)
	enc := ""
	if binary {
		enc = server.EncodingBinary
	}
	hello, _ := json.Marshal(server.ClientFrame{Type: server.FrameHello, Processes: 3, Encoding: enc, Watches: []server.Watch{
		{Op: "EF", Pred: "conj(x@P1 == 1, x@P2 == 1, y@P3 == 1)"},
		{Op: "AG", Pred: agPred},
		{Op: "STABLE", Pred: stablePred},
	}})
	r.send("%s", hello)
	r.recvType(server.FrameWelcome)

	sendJSON := func(f server.ClientFrame) {
		line, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		r.send("%s", line)
	}
	var vt pir.VarTable
	pending := new(pir.Batch)
	flush := func() {
		if pending.Len() == 0 {
			return
		}
		if binary {
			frame := server.AppendBinaryFrame(nil, server.BinBatch, pir.AppendBatch(nil, 0, pending, &vt))
			if _, err := r.conn.Write(frame); err != nil {
				t.Fatal(err)
			}
		} else {
			sendJSON(server.ClientFrame{Type: server.FrameBatch, Batch: pending})
		}
		pending = new(pir.Batch)
	}
	for _, st := range parityScript() {
		if batchSize == 0 || st.raw {
			flush()
			sendJSON(st.f)
			continue
		}
		parityRow(pending, st.f)
		if pending.Len() == batchSize {
			flush()
		}
	}
	flush()
	r.send(`{"type":"bye"}`)

	var recorded []server.ServerFrame
	for {
		fr := r.recv()
		switch fr.Type {
		case server.FrameVerdict, server.FrameError:
			fr.Session = "" // the one field that legitimately differs between runs
			recorded = append(recorded, fr)
		case server.FrameGoodbye:
			return recorded, fr
		}
	}
}

// TestEncodingParity drives one scripted stream — good events plus every
// per-event rejection — through each way the wire can carry it and
// requires the same recorded frames from all of them: verdicts with
// their determining Event and cut, error frames with their Event and
// text, in the same order under the same Idx. Single frames and batch
// rows apply through one handler; this is the test that keeps it so.
func TestEncodingParity(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	want, gb := runParity(t, addr, false, 0)

	// The reference run itself: every scripted rejection, in order, with
	// the scripted text; everything else applied.
	var wantErrs []string
	applied := 0
	for _, st := range parityScript() {
		switch {
		case st.err != "":
			wantErrs = append(wantErrs, st.err)
		case st.f.Type == server.FrameEvent:
			applied++
		}
	}
	if gb.Events != applied {
		t.Fatalf("single frames: %d events applied, want %d", gb.Events, applied)
	}
	verdictAt := map[string]int{}
	for i, fr := range want {
		if fr.Idx != i+1 {
			t.Fatalf("single frames: frame %d has idx %d", i+1, fr.Idx)
		}
		if fr.Type == server.FrameVerdict {
			verdictAt[fr.Op] = fr.Event
			continue
		}
		if len(wantErrs) == 0 || !strings.Contains(fr.Error, wantErrs[0]) {
			t.Fatalf("single frames: unexpected error frame %q at event %d (next scripted: %q)", fr.Error, fr.Event, wantErrs)
		}
		wantErrs = wantErrs[1:]
	}
	if len(wantErrs) != 0 {
		t.Fatalf("single frames: scripted rejections never drawn: %q", wantErrs)
	}
	if !reflect.DeepEqual(verdictAt, map[string]int{"EF": 3, "STABLE": 5, "AG": 6}) {
		t.Fatalf("single frames: verdicts at %v, want EF@3 STABLE@5 AG@6", verdictAt)
	}

	for _, mode := range []struct {
		name   string
		binary bool
		batch  int
	}{
		{"ndjson-batch", false, 64},
		{"binary-1", true, 1},
		{"binary-3", true, 3},
		{"binary-64", true, 64},
	} {
		t.Run(mode.name, func(t *testing.T) {
			got, mgb := runParity(t, addr, mode.binary, mode.batch)
			if mgb.Events != gb.Events {
				t.Errorf("%d events applied, single frames applied %d", mgb.Events, gb.Events)
			}
			for i := 0; i < len(got) || i < len(want); i++ {
				var g, w server.ServerFrame
				if i < len(got) {
					g = got[i]
				}
				if i < len(want) {
					w = want[i]
				}
				if !reflect.DeepEqual(g, w) {
					t.Errorf("recorded frame %d differs:\n  got  %+v\n  want %+v", i+1, g, w)
				}
			}
		})
	}
}

// TestReceiveRejectionNamesWireID: a receive the monitor rejects names
// the client's message id — on both encodings, and after a cluster-style
// replay of the frame log. Message 7 is the session's first send and 9
// its second, so ids the monitor picked in send order (1 and 2) would
// differ from both.
func TestReceiveRejectionNamesWireID(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	want := []string{"message 7 received twice", "message 9 received by its sender"}
	check := func(t *testing.T, frames []server.ServerFrame) {
		t.Helper()
		var got []string
		for _, fr := range frames {
			if fr.Type == server.FrameError {
				got = append(got, fr.Error)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("rejections %q, want %q", got, want)
		}
		for i := range want {
			if !strings.Contains(got[i], want[i]) {
				t.Errorf("rejection %d = %q, want it to name %q", i+1, got[i], want[i])
			}
		}
	}
	for _, enc := range []string{server.EncodingNDJSON, server.EncodingBinary} {
		t.Run(enc, func(t *testing.T) {
			sess, err := client.Dial(addr, client.Config{Processes: 2, Encoding: enc})
			if err != nil {
				t.Fatal(err)
			}
			sess.SendMsg(0, 7, nil)
			sess.Receive(1, 7, nil)
			sess.Receive(1, 7, nil)
			sess.SendMsg(0, 9, nil)
			sess.Receive(0, 9, nil)
			if _, err := sess.Close(); err != nil {
				t.Fatal(err)
			}
			check(t, sess.Latched())
		})
	}
	t.Run("replay", func(t *testing.T) {
		ev := func(seq int64, proc int, kind string, msg int) server.ClientFrame {
			return server.ClientFrame{Type: server.FrameEvent, Seq: seq, Proc: proc, Kind: kind, Msg: msg}
		}
		sess, err := srv.OpenRecovered(
			server.ClientFrame{Type: server.FrameHello, Session: "wire-ids", Resumable: true, Processes: 2},
			[]server.ClientFrame{ev(1, 1, "send", 7), ev(2, 2, "receive", 7), ev(3, 2, "receive", 7), ev(4, 1, "send", 9), ev(5, 1, "receive", 9)})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close("bye")
		check(t, sess.Frames())
	})
}

// TestStableCountsTheMessageItsSendPuts: a STABLE watch needs no message
// in flight, and a message is in flight from its send event on, so a send
// that makes the conjuncts true does not fire the watch; its receive does.
func TestStableCountsTheMessageItsSendPuts(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	for _, enc := range []string{server.EncodingNDJSON, server.EncodingBinary} {
		sess, err := client.Dial(addr, client.Config{Processes: 2, Encoding: enc,
			Watches: []server.Watch{{Op: "STABLE", Pred: "conj(x@P1 == 1)"}}})
		if err != nil {
			t.Fatal(err)
		}
		sess.SendMsg(0, 7, map[string]int{"x": 1})
		sess.Receive(1, 7, nil)
		if _, err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		var at []int
		for _, fr := range sess.Latched() {
			if fr.Type == server.FrameVerdict {
				at = append(at, fr.Event)
			}
		}
		if !reflect.DeepEqual(at, []int{2}) {
			t.Errorf("%s: STABLE verdicts at events %v, want [2] (the receive)", enc, at)
		}
	}
}
