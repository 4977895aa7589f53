package cluster_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/pir"
	"repro/internal/server"
	"repro/internal/server/client"
)

// waitReplicaLog polls until node holds want entries of key's replica log.
func waitReplicaLog(t *testing.T, node *cluster.Node, key string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, replica := node.Logs(key)
		if len(replica) >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica log of %s stuck at %d entries, want %d", key, len(replica), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClusterBoundedSurvivesFailover: a bounded keyed session stays
// bounded across a promotion — the replicated hello carries the flag, so
// the rebuilt session still rejects snapshots and its retained state
// stays at the slice-cursor size instead of growing with the prefix.
func TestClusterBoundedSurvivesFailover(t *testing.T) {
	h := startCluster(t, 3, false, 0)
	const key = "bounded-failover"
	succ := h.nodes[0].Ring().Successors(key, 2)
	owner, replica := h.index(succ[0]), h.index(succ[1])
	steps := script(1)

	cfg := clientConfig(key, h.ids, 41)
	cfg.Bounded = true
	sess, err := client.Dial("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	streamRange(sess, steps, 0, 4, true)
	waitReplicaLog(t, h.nodes[replica], key, 7)
	h.kls[owner].Kill()

	if _, err := sess.Snapshot("EF(" + efPred + ")"); err == nil {
		t.Fatal("snapshot on the promoted bounded session was not rejected")
	} else if !strings.Contains(err.Error(), "bounded") {
		t.Fatalf("snapshot rejection does not name the cause: %v", err)
	}
	if v := h.regs[replica].Counter("hb_cluster_failovers_total", "").Value(); v != 1 {
		t.Fatalf("replica failovers_total = %d, want 1 (the snapshot must have been answered by the promoted session)", v)
	}
	retained := h.regs[replica].Gauge("hb_server_session_retained_events", "")
	before := retained.Value()
	for round := 0; round < 50; round++ {
		sess.Internal(0, map[string]int{"x": 2})
	}
	if _, err := sess.Snapshot("EF(" + efPred + ")"); err == nil { // a barrier: everything above is applied
		t.Fatal("snapshot on the promoted bounded session was not rejected")
	}
	if after := retained.Value(); after > before {
		t.Fatalf("promoted session retains the prefix: retained events %d → %d over 50 events", before, after)
	}
	streamRange(sess, steps, 4, len(steps), false)
	if _, err := sess.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// rawSession speaks the client protocol by hand on one connection, so a
// test can send frames the Go client never would.
type rawSession struct {
	t    *testing.T
	conn net.Conn
	sc   *server.FrameScanner
	vt   pir.VarTable // the connection's interning table
}

func dialRawSession(t *testing.T, addr string, first server.ClientFrame) (*rawSession, server.ServerFrame) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	r := &rawSession{t: t, conn: conn, sc: server.NewFrameScanner(conn)}
	r.send(first, false)
	w := r.recv()
	if w.Type != server.FrameWelcome {
		t.Fatalf("%s answered with %+v, want welcome", first.Type, w)
	}
	return r, w
}

// send writes f: a batch frame as a binary frame when binary is set,
// anything else as an NDJSON line.
func (r *rawSession) send(f server.ClientFrame, binary bool) {
	r.t.Helper()
	var wire []byte
	if binary && f.Type == server.FrameBatch {
		wire = server.AppendBinaryFrame(nil, server.BinBatch, pir.AppendBatch(nil, f.Seq, f.Batch, &r.vt))
	} else {
		line, err := json.Marshal(f)
		if err != nil {
			r.t.Fatal(err)
		}
		wire = append(line, '\n')
	}
	if _, err := r.conn.Write(wire); err != nil {
		r.t.Fatalf("write %s seq %d: %v", f.Type, f.Seq, err)
	}
}

func (r *rawSession) recv() server.ServerFrame {
	r.t.Helper()
	if !r.sc.Scan() {
		r.t.Fatalf("connection closed mid-dialog: %v", r.sc.Err())
	}
	var fr server.ServerFrame
	if err := json.Unmarshal(r.sc.Bytes(), &fr); err != nil {
		r.t.Fatalf("bad frame %q: %v", r.sc.Bytes(), err)
	}
	return fr
}

// replParityFrames is the scripted keyed session of the replication
// parity test as sequenced wire frames: batch 0 sends every step as a
// single frame, otherwise runs of up to batch rows travel as one batch
// frame. Steps no batch row can carry (unknown kind, ids beyond int32)
// are always single frames and split the batch around them.
func replParityFrames(batch int) []server.ClientFrame {
	ev := func(proc int, kind string, msg int, sets map[string]int) server.ClientFrame {
		return server.ClientFrame{Type: server.FrameEvent, Proc: proc, Kind: kind, Msg: msg, Sets: sets}
	}
	init := func(proc int) server.ClientFrame {
		return server.ClientFrame{Type: server.FrameInit, Proc: proc, Var: "x", Value: 0}
	}
	const big = 1<<32 + 1
	steps := []struct {
		f   server.ClientFrame
		raw bool
	}{
		{f: init(1)}, {f: init(2)}, {f: init(3)},
		{f: ev(1, "internal", 0, map[string]int{"x": 1})},
		{f: ev(1, "send", 1, nil)},
		{f: ev(2, "send", 1, nil)},     // duplicate send
		{f: ev(2, "receive", 99, nil)}, // unknown receive
		{f: ev(2, "receive", 1, map[string]int{"x": 1})},
		{f: ev(2, "bogus", 0, nil), raw: true},
		{f: ev(big, "internal", 0, nil), raw: true},
		{f: ev(1, "send", big, nil), raw: true},
		{f: ev(2, "send", 2, nil)},
		{f: ev(3, "receive", 2, map[string]int{"x": 1})}, // EF and STABLE latch
		{f: ev(3, "", 0, map[string]int{"x": 2})},        // AG violated
		{f: ev(1, "internal", 0, map[string]int{"x": 2})},
	}
	var frames []server.ClientFrame
	pending := new(pir.Batch)
	flush := func() {
		if pending.Len() > 0 {
			frames = append(frames, server.ClientFrame{Type: server.FrameBatch, Batch: pending})
			pending = new(pir.Batch)
		}
	}
	for _, st := range steps {
		if batch == 0 || st.raw {
			flush()
			frames = append(frames, st.f)
			continue
		}
		if st.f.Type == server.FrameInit {
			pending.AddInit(st.f.Proc, st.f.Var, st.f.Value)
		} else {
			kind := map[string]byte{"": pir.EvInternal, "internal": pir.EvInternal, "send": pir.EvSend, "receive": pir.EvReceive}[st.f.Kind]
			pending.AddEvent(st.f.Proc, kind, st.f.Msg, st.f.Sets)
		}
		if pending.Len() == batch {
			flush()
		}
	}
	flush()
	frames = append(frames, server.ClientFrame{Type: server.FrameBye})
	for i := range frames {
		frames[i].Seq = int64(i + 1)
	}
	return frames
}

// runReplParity streams frames into a fresh keyed session and returns
// its recorded (verdict and error) frames in Idx order. With killAt > 0
// the owner is killed once the replica's log holds the first killAt
// frames, and the rest of the session runs on the promoted replica.
func runReplParity(t *testing.T, h *testCluster, key string, frames []server.ClientFrame, binary bool, killAt int) []server.ServerFrame {
	t.Helper()
	succ := h.nodes[0].Ring().Successors(key, 2)
	owner, replica := h.index(succ[0]), h.index(succ[1])
	enc := ""
	if binary {
		enc = server.EncodingBinary
	}
	r, _ := dialRawSession(t, succ[0], server.ClientFrame{Type: server.FrameHello, Processes: 3,
		Watches: watches(), Resumable: true, Session: key, Encoding: enc})
	rest := frames
	if killAt > 0 {
		for _, f := range frames[:killAt] {
			r.send(f, binary)
		}
		waitReplicaLog(t, h.nodes[replica], key, killAt)
		h.kls[owner].Kill()
		var w server.ServerFrame
		r, w = dialRawSession(t, succ[1], server.ClientFrame{Type: server.FrameResume, Session: key, Seq: int64(killAt), Encoding: enc})
		if !w.Resumed || w.Seq != int64(killAt) {
			t.Fatalf("resume on the replica answered %+v, want resumed at seq %d", w, killAt)
		}
		rest = frames[killAt:]
	}
	for _, f := range rest {
		r.send(f, binary)
	}
	var recorded []server.ServerFrame
	for {
		fr := r.recv()
		switch {
		case fr.Type == server.FrameGoodbye:
			return recorded
		case fr.Idx == len(recorded)+1: // the resume replays the record; later frames extend it
			fr.Session = ""
			recorded = append(recorded, fr)
		case fr.Idx > len(recorded)+1:
			t.Fatalf("recorded frame idx %d after %d frames: a latched frame was lost", fr.Idx, len(recorded))
		}
	}
}

// TestReplicationParity: whichever way the wire carried a session — one
// NDJSON frame per event, one NDJSON batch, binary batches of 1, 3 or 64
// — and wherever in it the owner died, the session promoted from the
// replica's byte log latches exactly the frames (verdict Event and cut,
// error text, Idx) of a session that never failed.
func TestReplicationParity(t *testing.T) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	var want []server.ServerFrame
	for _, mode := range []struct {
		name   string
		binary bool
		batch  int
	}{
		{"single", false, 0},
		{"ndjson-batch", false, 64},
		{"binary-1", true, 1},
		{"binary-3", true, 3},
		{"binary-64", true, 64},
	} {
		t.Run(mode.name, func(t *testing.T) {
			h := startCluster(t, 3, false, 0)
			frames := replParityFrames(mode.batch)
			ref := runReplParity(t, h, "parity-ref-"+mode.name, frames, mode.binary, 0)
			if want == nil {
				want = ref
				var errs, verdicts int
				for _, fr := range ref {
					if fr.Type == server.FrameError {
						errs++
					} else {
						verdicts++
					}
				}
				if errs != 5 || verdicts != 3 {
					t.Fatalf("reference run latched %d errors and %d verdicts, want 5 and 3: %+v", errs, verdicts, ref)
				}
			} else if !reflect.DeepEqual(ref, want) {
				t.Errorf("never-failed run differs from the single-frame one:\n got  %+v\n want %+v", ref, want)
			}
			killAt := 1 + rng.Intn(len(frames)-1) // at least one frame in, at most everything but the bye
			got := runReplParity(t, h, "parity-kill-"+mode.name, frames, mode.binary, killAt)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d: owner killed after frame %d of %d: promoted session differs:\n got  %+v\n want %+v",
					seed, killAt, len(frames), got, want)
			}
		})
	}
}

// TestReplDataFrameTriage throws every malformed or misplaced data frame
// at a replica that holds a two-entry log: none may grow the log, none
// may be acked as applied, and the link either survives with the typed
// answer or is dropped.
func TestReplDataFrameTriage(t *testing.T) {
	const key = "triage"
	entry := func(seq int64) []byte {
		return cluster.Entry(server.ClientFrame{Type: server.FrameInit, Proc: 1, Var: "x", Value: 1, Seq: seq})
	}
	good := cluster.DataFrame(key, 5, 3, entry(3))
	oversize := binary.AppendUvarint([]byte{server.FrameMagic, server.BinRepl}, server.MaxFrameBytes+1)
	for _, c := range []struct {
		name  string
		wire  []byte
		reply string // expected reply type; "" = the link is dropped
	}{
		{"truncated header", []byte{server.FrameMagic, server.BinRepl, 0x02, 0x06, 't'}, ""},
		{"empty session", server.AppendBinaryFrame(nil, server.BinRepl, []byte{0x00, 0x05, 0x03, 0x00}), ""},
		{"unknown session", cluster.DataFrame("nobody", 5, 1, entry(1)), ""},
		{"stale epoch", cluster.DataFrame(key, 4, 3, entry(3)), "repl-reject"},
		{"seq gap", cluster.DataFrame(key, 5, 9, entry(9)), "repl-ack"},
		{"duplicate", cluster.DataFrame(key, 5, 1, entry(1)), "repl-ack"},
		{"oversize length", oversize, ""},
		{"garbage payload", cluster.DataFrame(key, 5, 3, []byte{0x00, 0x03, 0x01, 0xff, 0x01}), ""},
		{"entry seq differs from header", cluster.DataFrame(key, 5, 3, entry(4)), ""},
		{"unknown entry kind", cluster.DataFrame(key, 5, 3, []byte{0x7f, 0x03}), ""},
		{"control entry that is not a frame", cluster.DataFrame(key, 5, 3, append([]byte{0x01}, `{"seq":3,"bogus":1}`...)), ""},
		{"unknown frame type", server.AppendBinaryFrame(nil, 0x7f, good), ""},
		{"client batch frame on a link", server.AppendBinaryFrame(nil, server.BinBatch, entry(3)[1:]), ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := startCluster(t, 1, false, 0)
			d := dialRepl(t, h.ids[0], "triage-test")
			d.send(fmt.Sprintf(`{"type":"repl-open","session":%q,"epoch":5,"hello":{"type":"hello","processes":3,"resumable":true,"session":%q}}`, key, key))
			if m := d.recv(); m.Type != "repl-ack" || m.Seq != 0 {
				t.Fatalf("open reply = %+v", m)
			}
			d.conn.Write(append(cluster.DataFrame(key, 5, 1, entry(1)), cluster.DataFrame(key, 5, 2, entry(2))...)) //nolint:errcheck
			if m := d.recv(); m.Type != "repl-ack" || m.Seq != 2 {
				// Two frames written as one burst may still be read as two.
				if m = d.recv(); m.Type != "repl-ack" || m.Seq != 2 {
					t.Fatalf("log never reached 2 entries: %+v", m)
				}
			}

			d.conn.Write(c.wire) //nolint:errcheck // the replica may already have hung up
			d.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			if c.reply == "" {
				if d.sc.Scan() {
					t.Fatalf("link survived with reply %s", d.sc.Bytes())
				}
			} else if m := d.recv(); m.Type != c.reply || (m.Type == "repl-ack" && m.Seq != 2) {
				t.Fatalf("reply = %+v, want %s (acks at seq 2)", m, c.reply)
			}
			if _, replica := h.nodes[0].Logs(key); len(replica) != 2 {
				t.Fatalf("replica log has %d entries after the hostile frame, want 2", len(replica))
			}
			if err := h.nodes[0].CheckReplicaLogs(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestClusterLinkBlipLogIdentical: a replication link that drops
// mid-stream resends from the acknowledged mark, and when the stream
// ends the replica's log is the owner's, byte for byte — entries are
// encoded once and only ever copied.
func TestClusterLinkBlipLogIdentical(t *testing.T) {
	h := startClusterMode(t, 3, false, 0, cluster.Durable)
	const key = "blip-identical"
	succ := h.nodes[0].Ring().Successors(key, 2)
	owner, replica := h.index(succ[0]), h.index(succ[1])

	cfg := clientConfig(key, h.ids, 43)
	cfg.Encoding = server.EncodingBinary
	cfg.BatchSize = 4
	sess, err := client.Dial("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	const events = 2000
	base := h.regs[owner].Counter("hb_cluster_link_reconnects_total", "").Value()
	for i := 0; i < events; i++ {
		sess.Internal(i%3, map[string]int{"x": i % 5, "y": -i})
		if i == events/2 {
			waitReplicaLog(t, h.nodes[replica], key, 1) // the link is up and streaming
			h.kls[replica].KillConns()                  // blip: connections die, the listener stays up
		}
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	pollAcked(t, sess, events/4) // durable: acked means every frame is in the replica's log
	if v := h.regs[owner].Counter("hb_cluster_link_reconnects_total", "").Value(); v <= base {
		t.Fatalf("link never redialed after the blip")
	}
	hosted, _ := h.nodes[owner].Logs(key)
	_, held := h.nodes[replica].Logs(key)
	if len(hosted) != events/4 || len(held) != len(hosted) {
		t.Fatalf("owner log %d entries, replica log %d, want %d each", len(hosted), len(held), events/4)
	}
	for i := range hosted {
		if !bytes.Equal(hosted[i], held[i]) {
			t.Fatalf("entry %d differs between owner and replica:\n owner   %x\n replica %x", i+1, hosted[i], held[i])
		}
	}
	if v := h.regs[owner].Counter("hb_cluster_repl_frames_sent_total", "").Value(); v <= int64(len(hosted)) {
		t.Logf("no frame was in flight when the link dropped (%d sent for %d entries)", v, len(hosted))
	}
	if gb, err := sess.Close(); err != nil || gb.Events != events {
		t.Fatalf("close: %v (goodbye %+v)", err, gb)
	}
}

// TestClusterFailoverRedeclaresVariables: a binary client names variables
// by per-connection index in order of first appearance, every log entry
// carries its own table, and the connection to the promoted replica meets
// the names in the opposite order of the one to the dead owner ("b" then
// "a", after "a" then "b"). Valuations keyed on any of those wire indices
// would swap the two after the failover; the session must latch exactly
// what one that never moved latches.
func TestClusterFailoverRedeclaresVariables(t *testing.T) {
	h := startCluster(t, 3, false, 0)
	run := func(key string, kill bool) []server.ServerFrame {
		succ := h.nodes[0].Ring().Successors(key, 2)
		cfg := clientConfig(key, h.ids, 47)
		cfg.Processes = 2
		cfg.Encoding = server.EncodingBinary
		cfg.Watches = []server.Watch{
			{Op: "EF", Pred: "conj(a@P1 == 2, b@P2 == 2)"},
			{Op: "AG", Pred: "conj(b@P1 <= 5)"},
			{Op: "EF", Pred: "conj(a@P2 >= 1)"}, // never: only b is ever assigned on P2
		}
		sess, err := client.Dial("", cfg)
		if err != nil {
			t.Fatal(err)
		}
		sess.Internal(0, map[string]int{"a": 1})
		sess.Internal(1, map[string]int{"b": 1})
		if kill {
			if err := sess.Flush(); err != nil {
				t.Fatal(err)
			}
			waitReplicaLog(t, h.nodes[h.index(succ[1])], key, 1)
			h.kls[h.index(succ[0])].Kill()
		}
		sess.Internal(1, map[string]int{"b": 2})
		sess.Internal(0, map[string]int{"a": 2})         // the first EF fires here
		sess.Internal(0, map[string]int{"b": 7, "a": 3}) // and the AG fails here
		gb, err := sess.Close()
		if err != nil || gb.Events != 5 {
			t.Fatalf("close: %v (goodbye %+v)", err, gb)
		}
		if kill && sess.Stats().Reconnects == 0 {
			t.Fatal("session finished without reconnecting despite the owner dying")
		}
		latched := sess.Latched()
		for i := range latched {
			latched[i].Session = ""
		}
		return latched
	}
	want := run("redeclare-ref", false)
	if len(want) != 2 || want[0].Watch != 0 || want[0].Event != 4 || want[1].Watch != 1 || want[1].Event != 5 {
		t.Fatalf("the session that never moved latched %+v, want the EF at event 4 and the AG at event 5", want)
	}
	if got := run("redeclare-kill", true); !reflect.DeepEqual(got, want) {
		t.Fatalf("session moved by failover latched\n  %+v\nthe one that never moved\n  %+v", got, want)
	}
}
