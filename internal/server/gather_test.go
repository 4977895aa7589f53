package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pir"
	"repro/internal/server"
)

// gatherKind is one way a session can carry the parity script: plain
// NDJSON, resumable NDJSON with a duplicate and a stale redelivery mixed
// in, or a binary-negotiated connection that carries every third row as a
// binary batch frame between NDJSON lines.
type gatherKind struct {
	name      string
	resumable bool
	binary    bool
}

// gatherUnits renders the parity script as the byte units kind sends,
// ending with the bye: NDJSON lines, or one-row binary batch frames. A
// resumable stream numbers its ingest lines, re-sends line 10 right after
// itself (a duplicate) and line 2 after line 15 (a stale redelivery).
func gatherUnits(t *testing.T, kind gatherKind) [][]byte {
	t.Helper()
	line := func(f server.ClientFrame) []byte {
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	var units [][]byte
	var vt pir.VarTable
	var seq int64
	for i, st := range parityScript() {
		f := st.f
		if kind.resumable {
			seq++
			f.Seq = seq
		}
		if kind.binary && !st.raw && i%3 == 1 {
			var b pir.Batch
			parityRow(&b, f)
			units = append(units, server.AppendBinaryFrame(nil, server.BinBatch, pir.AppendBatch(nil, f.Seq, &b, &vt)))
		} else {
			units = append(units, line(f))
		}
		switch {
		case kind.resumable && seq == 10:
			units = append(units, units[len(units)-1]) // a duplicate
		case kind.resumable && seq == 15:
			units = append(units, units[1]) // a stale redelivery of seq 2
		}
	}
	bye := server.ClientFrame{Type: server.FrameBye}
	if kind.resumable {
		bye.Seq = seq + 1
	}
	return append(units, line(bye))
}

// gatherRun is what a run must reproduce whatever the split: the recorded
// frames, the goodbye's accounting, and the seq counters.
type gatherRun struct {
	recorded           []server.ServerFrame
	events, dropped    int
	dupes, journaled   int64
	enqueues, ingested int64
}

// runGather opens a session of the given kind on a fresh server and feeds
// it the script: split "alone" writes each unit once the one before it
// has been applied, so every line reaches an empty read buffer; "one"
// writes the whole stream at once; a seed splits the stream at random
// byte offsets, with short pauses between the writes.
func runGather(t *testing.T, kind gatherKind, split string, seed int64) gatherRun {
	t.Helper()
	reg := obs.NewRegistry()
	_, addr := startServer(t, server.Config{Registry: reg})
	r := dialRaw(t, addr)
	enc := ""
	if kind.binary {
		enc = server.EncodingBinary
	}
	hello, _ := json.Marshal(server.ClientFrame{Type: server.FrameHello, Processes: 3, Encoding: enc, Resumable: kind.resumable, Watches: []server.Watch{
		{Op: "EF", Pred: "conj(x@P1 == 1, x@P2 == 1, y@P3 == 1)"},
		{Op: "AG", Pred: agPred},
		{Op: "STABLE", Pred: stablePred},
	}})
	r.send("%s", hello)
	r.recvType(server.FrameWelcome)

	var run gatherRun
	write := func(b []byte) {
		if _, err := r.conn.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	units := gatherUnits(t, kind)
	switch split {
	case "alone":
		// Every unit is applied (one apply observation) or skipped as a
		// duplicate before the next is written.
		applied := reg.Histogram(`hb_server_stage_seconds{stage="apply"}`, "", nil)
		dupes := reg.Counter("hb_server_events_duplicate_total", "")
		for i, u := range units[:len(units)-1] {
			write(u)
			for deadline := time.Now().Add(5 * time.Second); applied.Count()+dupes.Value() <= int64(i); {
				if time.Now().After(deadline) {
					t.Fatalf("unit %d never applied", i+1)
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
		write(units[len(units)-1])
	case "one":
		write(bytes.Join(units, nil))
	default:
		stream := bytes.Join(units, nil)
		rng := rand.New(rand.NewSource(seed))
		for len(stream) > 0 {
			n := min(1+rng.Intn(160), len(stream))
			write(stream[:n])
			stream = stream[n:]
			time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
		}
	}
	for {
		fr := r.recv()
		if fr.Type == server.FrameGoodbye {
			run.events, run.dropped = fr.Events, fr.Dropped
			break
		}
		if fr.Type == server.FrameVerdict || fr.Type == server.FrameError {
			fr.Session = "" // the one field that differs between runs
			run.recorded = append(run.recorded, fr)
		}
	}
	run.dupes = reg.Counter("hb_server_events_duplicate_total", "").Value()
	run.journaled = reg.Counter("hb_server_events_journaled_total", "").Value()
	run.enqueues = reg.Histogram(`hb_server_stage_seconds{stage="enqueue"}`, "", nil).Count()
	run.ingested = reg.Histogram("hb_server_ingest_seconds", "", nil).Count()
	return run
}

// TestNDJSONGatherParity: how the wire splits an NDJSON stream into reads
// decides how the reader gathers lines into batches, and nothing else.
// Every line alone, the whole stream in one write, and random splits give
// the same recorded frames (verdicts with their determining Event and cut,
// rejections with their Event and text, under the same Idx), the same
// goodbye accounting and the same seq counters — on a plain session, on a
// resumable one with a duplicate and a stale redelivery, and on a binary
// connection whose binary frames end gathers.
func TestNDJSONGatherParity(t *testing.T) {
	want := runGather(t, gatherKind{name: "plain"}, "alone", 0)
	if len(want.recorded) == 0 || want.events == 0 {
		t.Fatalf("reference run recorded %d frames and applied %d events", len(want.recorded), want.events)
	}
	lines := int64(len(parityScript()))
	for _, kind := range []gatherKind{{name: "plain"}, {name: "resumable", resumable: true}, {name: "binary", binary: true}} {
		for _, split := range []string{"alone", "one", "seed=1", "seed=2", "seed=3"} {
			t.Run(kind.name+"/"+split, func(t *testing.T) {
				var seed int64
				fmt.Sscanf(split, "seed=%d", &seed)
				got := runGather(t, kind, split, seed)
				if !reflect.DeepEqual(got.recorded, want.recorded) {
					t.Errorf("recorded frames differ:\n got  %+v\n want %+v", got.recorded, want.recorded)
				}
				if got.events != want.events || got.dropped != 0 {
					t.Errorf("goodbye events %d dropped %d, want %d and 0", got.events, got.dropped, want.events)
				}
				if got.ingested != int64(got.events) {
					t.Errorf("ingest histogram has %d observations for %d events", got.ingested, got.events)
				}
				var dupes, journaled int64
				if kind.resumable {
					dupes, journaled = 2, int64(want.events)
				}
				if got.dupes != dupes || got.journaled != journaled {
					t.Errorf("duplicates %d journaled %d, want %d and %d", got.dupes, got.journaled, dupes, journaled)
				}
				if split == "one" && !kind.binary && got.enqueues >= lines {
					t.Errorf("one write took %d enqueues for %d lines: nothing was gathered", got.enqueues, lines)
				}
			})
		}
	}
}

// TestNDJSONGatherDropUnit: under the drop policy a burst written at once
// is gathered, and each gathered batch of events is shed as one unit. The
// goodbye still accounts for every event line, and no init is shed: had
// P2's init at the head been dropped, y would start at 0 and the AG watch
// would fire, and every late init inside the burst must draw its
// rejection.
func TestNDJSONGatherDropUnit(t *testing.T) {
	reg := obs.NewRegistry()
	_, addr := startServer(t, server.Config{QueueDepth: 2, Overflow: server.OverflowDrop, IngestDelay: time.Millisecond, Registry: reg})
	r := dialRaw(t, addr)
	r.send(`{"type":"hello","processes":2,"watches":[{"op":"AG","pred":"conj(y@P2 == 5)"}]}`)
	r.recvType(server.FrameWelcome)
	const events, every = 600, 300
	var burst bytes.Buffer
	burst.WriteString(`{"type":"init","proc":2,"var":"y","value":5}` + "\n")
	for i := 0; i < events; i++ {
		fmt.Fprintf(&burst, `{"type":"event","proc":1,"sets":{"x":%d}}`+"\n", i)
		if i%every == every-1 {
			burst.WriteString(`{"type":"init","proc":1,"var":"late","value":1}` + "\n")
		}
	}
	burst.WriteString(`{"type":"bye"}` + "\n")
	if _, err := r.conn.Write(burst.Bytes()); err != nil {
		t.Fatal(err)
	}
	lateInits := 0
	var gb server.ServerFrame
	for gb.Type != server.FrameGoodbye {
		switch gb = r.recv(); {
		case gb.Type == server.FrameError && strings.Contains(gb.Error, "init for process 1 after its events"):
			lateInits++
		case gb.Type == server.FrameVerdict:
			t.Errorf("AG on P2's init fired at event %d: the init was dropped", gb.Event)
		}
	}
	if gb.Events+gb.Dropped != events {
		t.Fatalf("events %d + dropped %d != %d sent", gb.Events, gb.Dropped, events)
	}
	if gb.Dropped == 0 {
		t.Fatal("nothing dropped: the burst never met a full queue")
	}
	if lateInits != events/every {
		t.Errorf("%d of the %d late inits were rejected: the others were dropped", lateInits, events/every)
	}
	if got := reg.Counter("hb_server_events_dropped_total", "").Value(); got != int64(gb.Dropped) {
		t.Errorf("events_dropped_total = %d, goodbye says %d", got, gb.Dropped)
	}
}

// TestBinaryBatchDropUnit: under the drop policy a client's binary batch
// frames follow the rule gathered NDJSON lines follow — a batch without
// an init row is shed whole when the queue cannot take it, and a batch
// with one is never shed. The head (P2's init and P1's first events) is
// applied before the burst; then the goodbye accounts for every event
// row, the AG watch on P2's init never fires, every late init draws its
// rejection, and each batch frame is counted once.
func TestBinaryBatchDropUnit(t *testing.T) {
	reg := obs.NewRegistry()
	_, addr := startServer(t, server.Config{QueueDepth: 2, Overflow: server.OverflowDrop, IngestDelay: time.Millisecond, Registry: reg})
	r := dialRaw(t, addr)
	r.send(`{"type":"hello","processes":2,"encoding":"binary","watches":[{"op":"AG","pred":"conj(y@P2 == 5)"}]}`)
	r.recvType(server.FrameWelcome)
	const frames, rows, every = 150, 4, 50
	var (
		burst []byte
		vt    pir.VarTable
		b     pir.Batch
		x     int
	)
	appendFrame := func() {
		burst = server.AppendBinaryFrame(burst, server.BinBatch, pir.AppendBatch(nil, 0, &b, &vt))
		b.Reset()
	}
	appendEvents := func() {
		for j := 0; j < rows; j++ {
			b.AddEvent(1, pir.EvInternal, 0, map[string]int{"x": x})
			x++
		}
		appendFrame()
	}
	write := func() {
		if _, err := r.conn.Write(burst); err != nil {
			t.Fatal(err)
		}
		burst = burst[:0]
	}
	b.AddInit(2, "y", 5)
	appendFrame()
	appendEvents()
	write()
	r.send(`{"type":"snapshot","id":1,"formula":"EF(conj(y@P2 == 5))"}`)
	r.recvType(server.FrameSnapshot) // the head is applied
	for i := 0; i < frames; i++ {
		appendEvents()
		if i%every == every-1 {
			b.AddInit(1, "late", 1)
			appendFrame()
		}
	}
	burst = append(burst, `{"type":"bye"}`+"\n"...)
	write()
	lateInits := 0
	var gb server.ServerFrame
	for gb.Type != server.FrameGoodbye {
		switch gb = r.recv(); {
		case gb.Type == server.FrameError && strings.Contains(gb.Error, "init for process 1 after its events"):
			lateInits++
		case gb.Type == server.FrameVerdict:
			t.Errorf("AG on P2's init fired at event %d: the init batch was dropped", gb.Event)
		}
	}
	if gb.Events+gb.Dropped != x {
		t.Fatalf("events %d + dropped %d != %d sent", gb.Events, gb.Dropped, x)
	}
	if gb.Dropped == 0 || gb.Dropped%rows != 0 {
		t.Fatalf("dropped %d events: want whole batches of %d, and some", gb.Dropped, rows)
	}
	if lateInits != frames/every {
		t.Errorf("%d of the %d late inits were rejected: the others were dropped", lateInits, frames/every)
	}
	if got := reg.Counter("hb_server_events_dropped_total", "").Value(); got != int64(gb.Dropped) {
		t.Errorf("events_dropped_total = %d, goodbye says %d", got, gb.Dropped)
	}
	if got, want := reg.Counter("hb_server_batches_total", "").Value(), int64(2+frames+frames/every); got != want {
		t.Errorf("batches_total = %d, want the %d batch frames sent", got, want)
	}
}

// TestNDJSONGatherAcks: seqs 1–10 of a resumable session in one write
// arrive as few gathered batches, and an ack is sent whenever a batch's
// seqs cross a multiple of AckEvery. The acks are cumulative and cover 4
// and 8, so a client outbox of seqs 1–10 pruned by them, as the Go client
// prunes its own, keeps nothing at or below 8.
func TestNDJSONGatherAcks(t *testing.T) {
	_, addr := startServer(t, server.Config{AckEvery: 4})
	r := dialRaw(t, addr)
	r.openResumable(2)
	var burst strings.Builder
	for seq := 1; seq <= 10; seq++ {
		fmt.Fprintf(&burst, `{"type":"event","proc":%d,"kind":"internal","seq":%d}`+"\n", 1+seq%2, seq)
	}
	if _, err := r.conn.Write([]byte(burst.String())); err != nil {
		t.Fatal(err)
	}
	outbox := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	var last int64
	for last < 8 {
		fr := r.recvType(server.FrameAck)
		if fr.Seq <= last || fr.Seq > 10 {
			t.Fatalf("ack %d after ack %d: acks must rise and stay within the 10 seqs sent", fr.Seq, last)
		}
		last = fr.Seq
		for len(outbox) > 0 && outbox[0] <= fr.Seq {
			outbox = outbox[1:]
		}
	}
	if len(outbox) > 0 && outbox[0] <= 8 {
		t.Fatalf("outbox still holds %v after ack %d", outbox, last)
	}
	r.send(`{"type":"bye","seq":11}`)
	if gb := r.recvType(server.FrameGoodbye); gb.Events != 10 {
		t.Fatalf("goodbye events %d, want 10", gb.Events)
	}
}

// TestNDJSONGatherMalformed: a malformed line in the middle of a gathered
// run ends the connection with a protocol error, as it would alone, after
// the lines before it were applied and none after it. The resumable
// session survives, so a resume shows exactly what was accepted.
func TestNDJSONGatherMalformed(t *testing.T) {
	reg := obs.NewRegistry()
	_, addr := startServer(t, server.Config{Registry: reg})
	r := dialRaw(t, addr)
	id := r.openResumable(2)
	var burst strings.Builder
	for seq := 1; seq <= 5; seq++ {
		fmt.Fprintf(&burst, `{"type":"event","proc":1,"seq":%d}`+"\n", seq)
	}
	burst.WriteString(`{"type":"event","proc":1,"seq":6` + "\n")
	for seq := 7; seq <= 9; seq++ {
		fmt.Fprintf(&burst, `{"type":"event","proc":1,"seq":%d}`+"\n", seq)
	}
	if _, err := r.conn.Write([]byte(burst.String())); err != nil {
		t.Fatal(err)
	}
	r.closed()
	if got := reg.Counter(`hb_server_conn_closes_total{reason="`+server.CloseProtoError+`"}`, "").Value(); got != 1 {
		t.Fatalf("proto-error closes = %d, want 1", got)
	}
	r2, welcome := resumeFrom(t, addr, id, 0)
	if welcome.Type != server.FrameWelcome || welcome.Seq != 5 {
		t.Fatalf("resume answered %+v, want a welcome at seq 5", welcome)
	}
	r2.send(`{"type":"bye","seq":6}`)
	if gb := r2.recvType(server.FrameGoodbye); gb.Events != 5 {
		t.Fatalf("goodbye events %d, want the 5 lines before the malformed one", gb.Events)
	}
}

// BenchmarkServeNDJSON feeds sessions of ndjsonEvents event lines through
// Serve over loopback, one line per write (what a client that writes each
// call produces) and all lines in one write (the most the reader can
// gather), and reports ns/event and allocs/event across client, server
// and monitor.
func BenchmarkServeNDJSON(b *testing.B) {
	const ndjsonEvents = 1000
	var lines [][]byte
	for i := 0; i < ndjsonEvents; i++ {
		lines = append(lines, []byte(fmt.Sprintf(`{"type":"event","proc":%d,"kind":"internal","sets":{"step":%d,"tok":%d,"x":%d}}`+"\n", 1+i%4, i, i%3, i%5)))
	}
	hello := []byte(`{"type":"hello","processes":4,"watches":[{"op":"EF","pred":"conj(x@P1 == 9, x@P2 == 9)"},{"op":"AG","pred":"conj(tok@P3 <= 2)"}]}` + "\n")
	for _, mode := range []struct {
		name string
		all  bool
	}{{"write=line", false}, {"write=all", true}} {
		b.Run(mode.name, func(b *testing.B) {
			srv := server.New(server.Config{Registry: obs.NewRegistry()})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go srv.Serve(ln) //nolint:errcheck // closed with the listener
			defer ln.Close()
			all := bytes.Join(lines, nil)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				conn, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					b.Fatal(err)
				}
				sc := server.NewFrameScanner(conn)
				write := func(p []byte) {
					if _, err := conn.Write(p); err != nil {
						b.Fatal(err)
					}
				}
				write(hello)
				if !sc.Scan() {
					b.Fatalf("no welcome: %v", sc.Err())
				}
				if mode.all {
					write(all)
				} else {
					for _, l := range lines {
						write(l)
					}
				}
				write([]byte(`{"type":"bye"}` + "\n"))
				for !bytes.Contains(sc.Bytes(), []byte(`"goodbye"`)) {
					if !sc.Scan() {
						b.Fatalf("no goodbye: %v", sc.Err())
					}
				}
				if !bytes.Contains(sc.Bytes(), []byte(fmt.Sprintf(`"events":%d`, ndjsonEvents))) {
					b.Fatalf("goodbye %s", sc.Bytes())
				}
				conn.Close()
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			n := float64(b.N * ndjsonEvents)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/n, "allocs/event")
		})
	}
}
