package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/pir"
	"repro/internal/server"
	"repro/internal/slice"
	"repro/internal/vclock"
)

// shares of the traced run's seconds; the staged replay and the offline
// pass are fixed work and take the rest.
const (
	shareLoopback   = 0.12 // each of the untraced and the traced window
	shareCluster    = 0.07 // each of the 1-node and the 3-node cluster
	shareLayerPaced = 0.20
	shareLayerRecov = 0.10
)

// replayEvents caps the events the staged replay pushes through each
// layer.
const replayEvents = 50000

// runLayers is the traced run. It takes every per-layer metric from
// outside: by timing calls into each layer's public functions, by
// reading public result fields, and by reading the servers' own
// histograms. Every timed call is also a span.
func (r *run) runLayers(budget func(float64) time.Duration) {
	r.offlineLayers()

	// The loopback path twice, tracing off and on: the difference is what
	// the spans cost, and the traced window says where the generators'
	// time goes.
	plain := r.runIngest("plain", &r.in.main, budget(shareLoopback), nil)
	traced := r.runIngest("traced", &r.in.main, budget(shareLoopback), r.rec)
	r.set("bench.trace_overhead_share", (plain.eventsPerSec-traced.eventsPerSec)/plain.eventsPerSec, int(traced.events))
	r.set("client.send_ns_per_event", nsPer(traced.inCalls, int(traced.events)), int(traced.events))
	r.set("client.blocked_share", traced.inCalls.Seconds()/(connections*traced.window.Seconds()), int(traced.events))
	r.set("server.allocs_per_event", float64(plain.mallocs)/float64(plain.events), int(plain.events))
	for _, s := range stages {
		r.set("server.stage_seconds."+s, plain.stageSeconds[s]/float64(plain.events)*1e6, int(plain.events))
	}
	r.set("server.dropped_events", float64(r.fl.dropped()), 1)

	r.set("bench.generator_lag_p99_ms", r.runPaced(budget(shareLayerPaced)), 1)

	rec := r.runRecovery(budget(shareLayerRecov), true)
	sessions := float64(max(len(rec.outages), 1))
	r.set("cluster.ack_stall_max_ms", ms(rec.ackStall), len(rec.outages))
	r.set("cluster.replayed_frames", float64(rec.replayed)/sessions, len(rec.outages))
	r.set("cluster.reconnects", float64(rec.reconnects)/sessions, len(rec.outages))

	r.clusterLayers(budget(shareCluster))
	layers := r.stagedReplay()
	r.monitorLayers()
	r.clockLayers()

	// The staged layer costs, set against the CPU time the loopback path
	// had per event on both cores: what is left is the wire, the
	// scheduler, the client's own bookkeeping and the collector.
	perEvent := float64(runtime.GOMAXPROCS(0)) * 1e9 / plain.eventsPerSec
	r.set("ingest.unexplained_share", 1-layers/perEvent, int(plain.events))
	if 1-layers/perEvent > 0.25 {
		logf("finding: the staged layers explain %.0f ns of the %.0f CPU-ns the loopback path spends per event; %.0f%% is unexplained",
			layers, perEvent, 100*(1-layers/perEvent))
	}
	inside := plain.stageSeconds[server.StageApply] / float64(plain.events) * 1e9
	outside := r.metrics["online.apply_ns_per_event"]
	if r.w.bounded {
		outside = r.metrics["online.apply_bounded_ns_per_event"]
	}
	if inside > 1.2*outside || outside > 1.2*inside {
		logf("finding: the servers' apply histogram says %.0f ns/event, the monitor driven from outside %.0f ns/event", inside, outside)
	}
}

// clusterLayers streams the workload's recovery sessions (its watches,
// fewer events, so that warm-up and tail stay short on the slow
// encodings) keyed through a 1-node and a 3-node cluster; the ratio is
// what replication costs.
func (r *run) clusterLayers(window time.Duration) {
	own := r.fl
	defer func() { r.fl = own }()
	rates := make(map[int]float64)
	for _, nodes := range []int{1, 3} {
		fl, err := startFleet(nodes, true)
		if err != nil {
			r.op(fmt.Errorf("cluster of %d: %w", nodes, err))
			return
		}
		r.fl = fl
		res := r.runIngest(fmt.Sprintf("cluster%d", nodes), &r.in.recover, window, nil)
		fl.shutdown()
		rates[nodes] = res.eventsPerSec
	}
	r.set("cluster.standalone_events_per_s", rates[1], 1)
	r.set("cluster.repl_overhead_ratio", rates[1]/rates[3], 1)
}

// stagedReplay pushes the feed through the layers of the ingest path one
// at a time — encode, frame scan, decode, in-process session — each
// stage a child span of its batch, and returns the summed cost per
// event. The binary path batches; the NDJSON path has one frame per
// event.
func (r *run) stagedReplay() float64 {
	in := &r.in.main
	events := in.feed.events
	if len(events) > replayEvents {
		events = events[:replayEvents]
	}
	binary := r.w.encoding == server.EncodingBinary
	per := r.w.batch
	if !binary {
		per = 1
	}
	frames := (len(events) + per - 1) / per
	roots := make([]int, frames)
	traces := make([]int, frames)

	// Stage 1, encode. Binary: the client's batch building and
	// pir.AppendBatch. NDJSON: the JSON encoding of one frame.
	var stream []byte
	var table pir.VarTable
	scratch := make(map[string]int, 3)
	var encode time.Duration
	payloadBytes := 0
	for k := 0; k < frames; k++ {
		chunk := events[k*per : min((k+1)*per, len(events))]
		traces[k] = r.rec.newTrace()
		roots[k] = r.rec.start("replay.batch", -1, traces[k])
		if binary {
			var payload []byte
			encode += r.timed("pir.AppendBatch", roots[k], traces[k], func() {
				b := pir.GetBatch()
				for i := range chunk {
					b.AddEvent(int(chunk[i].proc)+1, chunk[i].kind, int(chunk[i].msg), chunk[i].sets(scratch))
				}
				payload = pir.AppendBatch(nil, int64(k+1), b, &table)
				b.Recycle()
			})
			payloadBytes += len(payload)
			stream = server.AppendBinaryFrame(stream, server.BinBatch, payload)
			continue
		}
		e := &chunk[0]
		f := server.ClientFrame{Type: server.FrameEvent, Proc: int(e.proc) + 1, Kind: kindName(e.kind), Msg: int(e.msg), Sets: e.sets(scratch)}
		var line []byte
		encode += r.timed("json.Marshal", roots[k], traces[k], func() { line, _ = json.Marshal(f) })
		stream = append(append(stream, line...), '\n')
	}

	// Stages 2 to 4, per frame: scan, decode, ingest.
	srv := server.New(server.Config{Registry: obs.NewRegistry()})
	sess, err := srv.Open(server.SessionConfig{Processes: r.w.procs, Watches: in.watches, Bounded: r.w.bounded})
	if err != nil {
		r.op(fmt.Errorf("staged replay: open: %w", err))
		return 0
	}
	for _, iv := range in.feed.inits {
		sess.Ingest(server.ClientFrame{Type: server.FrameInit, Proc: iv.proc + 1, Var: iv.name, Value: iv.val}) //nolint:errcheck // counted by the event check below
	}
	sc := server.NewFrameScanner(bytes.NewReader(stream))
	table.Reset()
	var scan, decode, ingest time.Duration
	for k := 0; k < frames; k++ {
		var ok bool
		scan += r.timed("server.FrameScanner.Scan", roots[k], traces[k], func() { ok = sc.Scan() })
		if !ok {
			r.op(fmt.Errorf("staged replay: scan stopped at frame %d: %v", k, sc.Err()))
			return 0
		}
		var f server.ClientFrame
		var derr error
		if binary {
			decode += r.timed("pir.Batch.DecodeBody", roots[k], traces[k], func() {
				var body []byte
				if _, body, derr = pir.BatchSeq(sc.Bytes()); derr == nil {
					b := pir.GetBatch()
					derr = b.DecodeBody(body, &table)
					f = server.ClientFrame{Type: server.FrameBatch, Batch: b}
				}
			})
		} else {
			decode += r.timed("server.DecodeClientFrame", roots[k], traces[k], func() { f, derr = server.DecodeClientFrame(sc.Bytes()) })
		}
		if derr != nil {
			r.op(fmt.Errorf("staged replay: decode frame %d: %w", k, derr))
			return 0
		}
		ingest += r.timed("server.Session.Ingest", roots[k], traces[k], func() { derr = sess.Ingest(f) })
		if derr != nil {
			r.op(fmt.Errorf("staged replay: ingest frame %d: %w", k, derr))
			return 0
		}
		r.rec.end(roots[k])
	}
	ingest += r.timed("server.Session.Flush", -1, r.rec.newTrace(), func() { err = sess.Flush() })
	applied := sess.Events()
	sess.Close("bench done")
	if err != nil || applied != int64(len(events)) {
		err = fmt.Errorf("staged replay: session applied %d of %d events (%v)", applied, len(events), err)
	}
	r.op(err)

	perEvent := func(d time.Duration) float64 { return nsPer(d, len(events)) }
	r.set("server.scan_ns_per_frame", nsPer(scan, frames), frames)
	r.set("server.session_ingest_ns_per_event", perEvent(ingest), len(events))
	if binary {
		r.set("pir.batch_encode_ns_per_event", perEvent(encode), len(events))
		r.set("pir.batch_decode_ns_per_event", perEvent(decode), len(events))
		r.set("pir.batch_bytes_per_event", float64(payloadBytes)/float64(len(events)), len(events))
		r.set("server.ndjson_decode_ns_per_event", 0, 0)
	} else {
		r.set("pir.batch_encode_ns_per_event", 0, 0)
		r.set("pir.batch_decode_ns_per_event", 0, 0)
		r.set("pir.batch_bytes_per_event", 0, 0)
		r.set("server.ndjson_decode_ns_per_event", perEvent(decode), len(events))
	}
	return perEvent(encode + scan + decode + ingest)
}

func kindName(kind byte) string {
	switch kind {
	case pir.EvSend:
		return "send"
	case pir.EvReceive:
		return "receive"
	}
	return "internal"
}

// applyFeed drives an in-process monitor with the feed and the watches
// and returns the monitor and the wall time of the event loop.
func applyFeed(in *sessionInput, watches []server.Watch, bounded bool, limit int) (*online.Monitor, time.Duration, error) {
	m := online.NewMonitor(in.feed.n)
	if bounded {
		m = online.NewBoundedMonitor(in.feed.n)
	}
	for _, iv := range in.feed.inits {
		m.SetInitial(iv.proc, iv.name, iv.val)
	}
	if _, err := registerWatches(m, watches); err != nil {
		return nil, 0, err
	}
	events := in.feed.events[:min(limit, len(in.feed.events))]
	ids, scratch := make(map[int32]int), make(map[string]int, 3)
	start := time.Now()
	for i := range events {
		if err := events[i].applyTo(m, ids, scratch); err != nil {
			return nil, 0, err
		}
	}
	return m, time.Since(start), nil
}

// monitorLayers times the online monitor and the slice cursor driven
// directly, without server, queue or wire.
func (r *run) monitorLayers() {
	in := &r.in.main
	n := min(replayEvents, len(in.feed.events))

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	mon, d, err := applyFeed(in, in.watches, false, n)
	if err != nil {
		r.op(fmt.Errorf("monitor layer: %w", err))
		return
	}
	runtime.ReadMemStats(&m1)
	r.rec.add("online.Monitor.apply", start, d, -1, r.rec.newTrace())
	r.set("online.apply_ns_per_event", nsPer(d, n), n)
	r.set("online.allocs_per_event", float64(m1.Mallocs-m0.Mallocs)/float64(n), n)

	tid := r.rec.newTrace()
	snap := r.timed("online.Monitor.Snapshot", -1, tid, func() {
		comp := mon.Snapshot()
		_, err = detectSource(comp, in.watches[0].Op+"("+in.watches[0].Pred+")")
	})
	if err != nil {
		r.op(fmt.Errorf("monitor layer: snapshot: %w", err))
	}
	r.set("online.snapshot_ms", ms(snap), 1)

	start = time.Now()
	bounded, d, err := applyFeed(in, in.watches, true, n)
	if err != nil {
		r.op(fmt.Errorf("monitor layer: %w", err))
		return
	}
	r.rec.add("online.Monitor.apply_bounded", start, d, -1, r.rec.newTrace())
	r.set("online.apply_bounded_ns_per_event", nsPer(d, n), n)
	if r.w.bounded {
		mon = bounded
	}
	r.set("online.retained_events", float64(mon.Retained()), 1)

	// What one watch costs per event: the paced feed with its staggered
	// watches against the same feed with none.
	paced := &r.in.paced
	pn := len(paced.feed.events)
	_, with, err1 := applyFeed(paced, paced.watches, r.w.bounded, pn)
	_, without, err2 := applyFeed(paced, nil, r.w.bounded, pn)
	if err1 != nil || err2 != nil {
		r.op(fmt.Errorf("monitor layer: watch cost: %v %v", err1, err2))
		return
	}
	r.set("online.watch_check_ns_per_event_per_watch", nsPer(with-without, pn)/float64(len(paced.watches)), pn)

	r.sliceCursorLayer()
}

// sliceCursorLayer drives a slice.Online cursor with the candidates of
// the token watch, conj(tok@P1 == 1, tok@P2 == 1): each process offers
// the states in which it holds the token, and the other's progress
// eliminates them, so the cursor never fires and stays live for the
// whole feed.
func (r *run) sliceCursorLayer() {
	f := r.in.main.feed
	if f.n < 2 {
		return
	}
	comp, err := f.computation()
	if err != nil {
		r.op(fmt.Errorf("slice cursor layer: %w", err))
		return
	}
	// Every state in which P1 or P2 holds the token is a candidate; a
	// state is named by the number of events its process has done, and
	// begins with the clock of the last of them.
	type offer struct {
		proc, state int
		start       vclock.VC
	}
	var offers []offer
	tok := [2]int{}
	for _, iv := range f.inits {
		if iv.name == "tok" && iv.proc < 2 && iv.val == 1 {
			tok[iv.proc] = 1
			offers = append(offers, offer{iv.proc, 0, nil})
		}
	}
	var seen [2]int
	for i := range f.events {
		e := &f.events[i]
		if e.proc >= 2 {
			continue
		}
		seen[e.proc]++
		if e.tok >= 0 {
			tok[e.proc] = int(e.tok)
		}
		if tok[e.proc] == 1 {
			offers = append(offers, offer{int(e.proc), seen[e.proc], comp.Event(int(e.proc), seen[e.proc]).Clock})
		}
	}
	cur := slice.NewOnline(f.n, []int{0, 1})
	start := time.Now()
	for _, o := range offers {
		cur.Offer(o.proc, o.state, o.start)
		cur.Step()
	}
	d := time.Since(start)
	r.rec.add("slice.Online.Offer+Step", start, d, -1, r.rec.newTrace())
	if cur.Fired() {
		r.op(fmt.Errorf("slice cursor layer: the token watch fired at %v", cur.Cut()))
		return
	}
	r.set("slice.online_ns_per_offer", nsPer(d, len(offers)), len(offers))
	r.set("slice.online_comparisons_per_event", float64(cur.Comparisons())/float64(len(f.events)), len(f.events))
	r.set("slice.online_retained", float64(cur.Retained()), 1)
}

var clockSink bool

// clockLayers times the vector-clock primitives at n = 16, the widest
// computation of the benchmark.
func (r *run) clockLayers() {
	const n, rounds = 16, 1 << 20
	a, b := vclock.New(n), vclock.New(n)
	for i := 0; i < n; i++ {
		a[i], b[i] = 3*i, 2*i+5
	}
	start := time.Now()
	for i := 0; i < rounds; i += 2 {
		a[i%n] += 2 // each clock runs ahead of the other on some component
		a.MergeInto(b)
		b[(i+1)%n] += 3
		b.MergeInto(a)
	}
	d := time.Since(start)
	r.rec.add("vclock.VC.MergeInto", start, d, -1, r.rec.newTrace())
	r.set("vclock.merge_ns", float64(d.Nanoseconds())/rounds, rounds)

	start = time.Now()
	for i := 0; i < rounds; i++ {
		clockSink = a.LessEq(b) != b.LessEq(a)
		b[i%n]++
	}
	d = time.Since(start)
	r.rec.add("vclock.VC.LessEq", start, d, -1, r.rec.newTrace())
	r.set("vclock.lesseq_ns", float64(d.Nanoseconds())/(2*rounds), 2*rounds)
}

// histogramSum reads the sum of one labelled histogram of reg.
func histogramSum(reg *obs.Registry, name, label, value string) float64 {
	h, _ := reg.Snapshot()[name+`{`+label+`="`+value+`"}`].(obs.HistogramSnapshot)
	return h.Sum
}
