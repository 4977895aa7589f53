package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pir"
	"repro/internal/server"
	"repro/internal/server/client"
)

// connections is how many client connections (and generator goroutines)
// the bench opens: the sizing box has two cores.
const connections = 2

// fleet is the system under test: one hbserver, or a 3-node cluster
// keeping 2 copies, in this process and reached only over loopback TCP.
type fleet struct {
	addrs []string
	kls   []*faults.KillableListener
	nodes []*cluster.Node // nil on a single server
	srvs  []*server.Server
	regs  []*obs.Registry
}

// startFleet starts the servers. A cluster is returned with every
// replication link connected, so that no session is measured while its
// replica is still being dialed.
func startFleet(nodes int, clustered bool) (*fleet, error) {
	fl := &fleet{}
	for i := 0; i < nodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fl.shutdown()
			return nil, err
		}
		fl.kls = append(fl.kls, faults.WrapKillable(ln))
		fl.addrs = append(fl.addrs, ln.Addr().String())
		fl.regs = append(fl.regs, obs.NewRegistry())
	}
	if !clustered {
		srv := server.New(server.Config{Registry: fl.regs[0]})
		fl.srvs = []*server.Server{srv}
		go srv.Serve(fl.kls[0]) //nolint:errcheck // ends when shutdown closes the listener
		return fl, nil
	}
	for i := range fl.addrs {
		node, err := cluster.New(
			server.Config{Registry: fl.regs[i]},
			cluster.NodeConfig{Self: fl.addrs[i], Peers: fl.addrs, Replicas: 2, Registry: fl.regs[i]},
		)
		if err != nil {
			fl.shutdown()
			return nil, err
		}
		fl.nodes = append(fl.nodes, node)
		fl.srvs = append(fl.srvs, node.Server())
		go node.Serve(fl.kls[i]) //nolint:errcheck // ends when shutdown closes the listener
	}
	if err := fl.warmLinks(); err != nil {
		fl.shutdown()
		return nil, err
	}
	return fl, nil
}

// warmLinks opens one empty keyed session per (owner, replica) pair of
// the ring, which makes every node dial every link it can need, and
// waits until all of them are connected.
func (fl *fleet) warmLinks() error {
	ring := fl.nodes[0].Ring()
	seen := make(map[[2]string]bool)
	want := len(fl.addrs) * (len(fl.addrs) - 1)
	for i := 0; len(seen) < want; i++ {
		if i > 10000 {
			return errors.New("no keys cover every owner/replica pair")
		}
		key := fmt.Sprintf("warm-%d", i)
		succ := ring.Successors(key, 2)
		pair := [2]string{succ[0], succ[1]}
		if seen[pair] {
			continue
		}
		seen[pair] = true
		sess, err := client.Dial("", fl.clientConfig(&workload{procs: 1}, nil, key, true))
		if err != nil {
			return fmt.Errorf("warm replication links: %w", err)
		}
		if _, err := sess.Close(); err != nil {
			return fmt.Errorf("warm replication links: %w", err)
		}
	}
	return fl.waitLinks()
}

// waitLinks blocks until every replication link of every node is
// connected.
func (fl *fleet) waitLinks() error {
	deadline := time.Now().Add(10 * time.Second)
	for _, node := range fl.nodes {
		for {
			st, _ := node.DebugState().(cluster.DebugCluster)
			up := true
			for _, l := range st.Links {
				up = up && l.Connected
			}
			if up {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("replication links of %s never came up", node.Self())
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return nil
}

func (fl *fleet) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if fl.nodes != nil {
		for _, node := range fl.nodes {
			node.Shutdown(ctx) //nolint:errcheck // the run is over
		}
	} else {
		for _, srv := range fl.srvs {
			srv.Shutdown(ctx) //nolint:errcheck // the run is over
		}
	}
	for _, kl := range fl.kls {
		kl.Close()
	}
}

// applied is the number of events the servers have applied to monitors.
func (fl *fleet) applied() int64 {
	var total int64
	for _, srv := range fl.srvs {
		_, events, _ := srv.Stats()
		total += events
	}
	return total
}

// dropped is the number of events the servers shed.
func (fl *fleet) dropped() int64 {
	var total int64
	for _, srv := range fl.srvs {
		_, _, dropped := srv.Stats()
		total += dropped
	}
	return total
}

// ownerOf returns the index of the node that owns key.
func (fl *fleet) ownerOf(key string) int {
	owner := fl.nodes[0].Ring().Owner(key)
	for i, a := range fl.addrs {
		if a == owner {
			return i
		}
	}
	return 0
}

// clientConfig is the session a client opens for in on workload w. A
// cluster session is keyed and reconnecting; on a single server only the
// recovery phase reconnects.
func (fl *fleet) clientConfig(w *workload, in *sessionInput, key string, reconnect bool) client.Config {
	cfg := client.Config{
		Processes: w.procs,
		Encoding:  w.encoding,
		BatchSize: w.batch,
		Bounded:   w.bounded,
	}
	if in != nil {
		cfg.Watches = in.watches
	}
	if fl.nodes != nil {
		cfg.Key, cfg.Peers, reconnect = key, fl.addrs, true
	}
	if reconnect {
		cfg.Reconnect = true
		cfg.DialTimeout = 2 * time.Second
		cfg.BackoffBase = 2 * time.Millisecond
		cfg.BackoffMax = 50 * time.Millisecond
		cfg.MaxAttempts = 60
	}
	return cfg
}

func (fl *fleet) dial(w *workload, in *sessionInput, key string, reconnect bool) (*sender, error) {
	addr := fl.addrs[0]
	if fl.nodes != nil {
		addr = ""
	}
	cfg := fl.clientConfig(w, in, key, reconnect)
	sess, err := client.Dial(addr, cfg)
	if err != nil {
		return nil, err
	}
	return newSender(sess, cfg), nil
}

// sendInits streams the feed's initial values.
func sendInits(sess *client.Session, f *feed) {
	for _, iv := range f.inits {
		sess.SetInitial(iv.proc, iv.name, iv.val)
	}
}

// sender streams events of a feed into a session.
type sender struct {
	sess *client.Session
	// scratch is reused for every event's assignments where the client
	// copies them at once (binary batching) or encodes them at once
	// (NDJSON); it is nil where the client keeps the map in its replay
	// buffer (a reconnecting NDJSON session), and every event then gets a
	// map of its own.
	scratch map[string]int
}

func newSender(sess *client.Session, cfg client.Config) *sender {
	s := &sender{sess: sess}
	if !cfg.Reconnect || cfg.Encoding == server.EncodingBinary {
		s.scratch = make(map[string]int, 3)
	}
	return s
}

func (s *sender) send(e *event) {
	sets := e.sets(s.scratch)
	switch e.kind {
	case pir.EvInternal:
		s.sess.Internal(int(e.proc), sets)
	case pir.EvSend:
		s.sess.SendMsg(int(e.proc), int(e.msg), sets)
	case pir.EvReceive:
		s.sess.Receive(int(e.proc), int(e.msg), sets)
	}
}

// finish closes the session and checks everything it delivered against
// the oracle: every event applied once, none dropped, no error frame,
// and exactly the expected verdict frames with their determining events
// and cuts.
func (in *sessionInput) finish(snd *sender) error {
	sess := snd.sess
	// Say bye only once every expected verdict is in: a server that is
	// closing a session sheds verdict frames its writer has no room for.
	if err := sess.Flush(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(sess.Latched()) < len(in.verdicts) && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	gb, err := sess.Close()
	if err != nil {
		return fmt.Errorf("close: %w", err)
	}
	if err := sess.Err(); err != nil {
		return fmt.Errorf("session: %w", err)
	}
	if gb == nil {
		return errors.New("no goodbye frame")
	}
	if gb.Events != len(in.feed.events) || gb.Dropped != 0 {
		return fmt.Errorf("goodbye counts %d events, %d dropped; streamed %d", gb.Events, gb.Dropped, len(in.feed.events))
	}
	latched := sess.Latched()
	if len(latched) != len(in.verdicts) {
		return fmt.Errorf("%d frames latched, oracle expects %d verdicts", len(latched), len(in.verdicts))
	}
	for i, fr := range latched {
		want := in.verdicts[i]
		if fr.Type != server.FrameVerdict {
			return fmt.Errorf("frame %d is %s: %s", i, fr.Type, fr.Error)
		}
		if fr.Watch != want.watch || fr.Event != want.event || !equalCut(fr.Cut, want.cut) {
			return fmt.Errorf("verdict %d is watch %d at event %d cut %v, oracle expects watch %d at event %d cut %v",
				i, fr.Watch, fr.Event, fr.Cut, want.watch, want.event, want.cut)
		}
	}
	return nil
}

func equalCut(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sessionKey names the k-th session of a phase on a connection; cluster
// placement hashes it, so it is the same in every run.
func sessionKey(phase string, conn, k int) string {
	return fmt.Sprintf("%s-c%d-s%d", phase, conn, k)
}

// generator counts what one generator goroutine has done; the window
// reads it while the generator runs.
type generator struct {
	sent    atomic.Int64 // events handed to the client
	inCalls atomic.Int64 // ns inside the client's event methods, traced windows only
}

// streamAll streams the whole feed back to back, advancing gen (when
// non-nil) as events are handed to the client. With a recorder, each
// chunk of events is a span and the time inside the client is summed.
func (r *run) streamAll(snd *sender, in *sessionInput, gen *generator, rec *recorder) {
	sendInits(snd.sess, in.feed)
	events := in.feed.events
	const chunk = 64
	for lo := 0; lo < len(events); lo += chunk {
		hi := min(lo+chunk, len(events))
		var start time.Time
		if rec != nil {
			start = time.Now()
		}
		for i := lo; i < hi; i++ {
			snd.send(&events[i])
		}
		if rec != nil {
			d := time.Since(start)
			gen.inCalls.Add(d.Nanoseconds())
			rec.add("client.send", start, d, -1, rec.newTrace())
		}
		if gen != nil {
			gen.sent.Add(int64(hi - lo))
		}
	}
}

// ingestParts is the number of parts a closed-loop window is cut into.
const ingestParts = 9

// ingestResult is one closed-loop window.
type ingestResult struct {
	eventsPerSec float64
	events       int64
	window       time.Duration
	sessions     int
	inCalls      time.Duration // inside the client, summed over both generators; traced windows only
	mallocs      uint64
	stageSeconds map[string]float64
}

// runIngest is the closed loop: each connection streams its next session
// only after the previous goodbye. After one warm-up session per
// connection (the first session of a process runs at half speed while
// the heap grows), events handed to the clients are counted over a fixed
// window in which both connections are busy throughout; sessions still
// open when the window ends run to their end, and every session is
// checked.
func (r *run) runIngest(phase string, in *sessionInput, window time.Duration, rec *recorder) ingestResult {
	var gens [connections]generator
	var sessions atomic.Int64
	warm := make(chan struct{}, connections)
	begin := make(chan struct{})
	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; ; k++ {
				if k == 1 {
					warm <- struct{}{}
					<-begin
				}
				if k >= 1 && stop.Load() {
					return
				}
				snd, err := r.fl.dial(r.w, in, sessionKey(phase, c, k), false)
				if err != nil {
					r.op(fmt.Errorf("%s: dial: %w", phase, err))
					if k == 0 {
						warm <- struct{}{}
						<-begin
					}
					return
				}
				r.streamAll(snd, in, &gens[c], rec)
				err = in.finish(snd)
				if k >= 1 {
					sessions.Add(1)
					r.op(wrap(phase, err))
				} else if err != nil {
					r.op(wrap(phase+" warm-up", err))
				}
			}
		}(c)
	}
	for c := 0; c < connections; c++ {
		<-warm
	}
	stage0 := r.fl.stageSeconds()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	count := func() int64 { return gens[0].sent.Load() + gens[1].sent.Load() }
	inCalls := func() int64 { return gens[0].inCalls.Load() + gens[1].inCalls.Load() }
	start := time.Now()
	n0, calls0 := count(), inCalls()
	close(begin)
	// The rate is the quick quartile over the equal parts of the window, so
	// that a slow spell of the box moves some parts and not the result.
	var rates []float64
	prevN, prevT := n0, start
	for i := 0; i < ingestParts; i++ {
		time.Sleep(window / ingestParts)
		n, t := count(), time.Now()
		rates = append(rates, float64(n-prevN)/t.Sub(prevT).Seconds())
		prevN, prevT = n, t
	}
	n1, elapsed, calls1 := prevN, prevT.Sub(start), inCalls()
	runtime.ReadMemStats(&m1)
	stage1 := r.fl.stageSeconds()
	stop.Store(true)
	wg.Wait()

	res := ingestResult{
		events:       n1 - n0,
		window:       elapsed,
		eventsPerSec: quantile(rates, quickRate),
		sessions:     int(sessions.Load()),
		inCalls:      time.Duration(calls1 - calls0),
		mallocs:      m1.Mallocs - m0.Mallocs,
		stageSeconds: make(map[string]float64),
	}
	for s, v := range stage1 {
		res.stageSeconds[s] = v - stage0[s]
	}
	return res
}

func wrap(phase string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", phase, err)
}

// runLiveBytes measures what the servers (and the clients' own buffers)
// hold per event of a live session. Each connection opens sessions one
// after the other, streams the whole feed into each and leaves it open,
// until at least liveEvents events are held (one session of a long feed,
// a hundred of a short one, so that the heap they add is large beside
// whatever else moved). When the servers have applied every event, the
// collected heap is compared with the collected heap before.
func (r *run) runLiveBytes() {
	in := &r.in.main
	events := len(in.feed.events)
	perConn := min(max(liveEvents/connections/events, 1), 100)
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // the second cycle empties the sync.Pool victim caches
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	base := heap()
	applied0 := r.fl.applied()
	var open [connections][]*sender
	var wg sync.WaitGroup
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perConn; k++ {
				s, err := r.fl.dial(r.w, in, sessionKey("live", c, k), false)
				if err != nil {
					r.op(fmt.Errorf("live bytes: dial: %w", err))
					return
				}
				open[c] = append(open[c], s)
				r.streamAll(s, in, nil, nil)
				if err := s.sess.Flush(); err != nil {
					r.op(fmt.Errorf("live bytes: flush: %w", err))
				}
			}
		}(c)
	}
	wg.Wait()
	held := (len(open[0]) + len(open[1])) * events
	deadline := time.Now().Add(30 * time.Second)
	for r.fl.applied()-applied0 < int64(held) && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
	live := heap()
	for c := range open {
		for _, s := range open[c] {
			r.op(wrap("live bytes", in.finish(s)))
		}
	}
	if held == 0 || live <= base {
		r.op(fmt.Errorf("live bytes: the heap went from %d to %d bytes with %d events held", base, live, held))
		return
	}
	r.set("session_live_bytes_per_event", float64(live-base)/float64(held), held)
}

// liveEvents is how many events the live-bytes sessions hold at least.
const liveEvents = 200000

// stepResult is one open-loop rate step.
type stepResult struct {
	latencies []float64 // ms, in arrival order
	lags      []float64 // ms, generator lateness per tick, in schedule order per connection
	sessions  int
	failures  []error // one per failed session
	overload  string  // non-empty when the step's backlog grew
}

// latencyLimit is the verdict latency limit. A step whose median verdict
// misses it counts all its sessions as failed. The limit sits on the
// median and not on a high percentile because the box stalls: one run in
// sixty had a p95 of 106 ms at a ninth of the workload's closed-loop
// rate, and a failed step fails the run.
const latencyLimit = 50 * time.Millisecond

// waitUntil sleeps until due. It never spins: a generator that yields in
// a loop keeps both Ps busy, and the runtime then polls the network only
// every 10 ms, which delays every frame in both directions.
func waitUntil(due time.Time) {
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
}

// runStep is the open loop at one rate (events/s over both
// connections). The due time of every tick (one batch of events) of
// every session is fixed before the step starts: a session has a fixed
// period, of which the last twentieth is left for the goodbye and the
// next hello, and its ticks are evenly spaced over the rest. A late
// generator does not shift later due times. A verdict is timed from the
// due time of the tick that holds its determining event to the receipt
// of its frame.
func (r *run) runStep(name string, rate float64, length time.Duration) stepResult {
	in := &r.in.paced
	events := in.feed.events
	tick := r.w.batch
	ticks := (len(events) + tick - 1) / tick
	period := time.Duration(float64(len(events)) / (rate / connections) * float64(time.Second))
	interval := period * 19 / 20 / time.Duration(ticks)
	perConn := max(int(length/period), 1)
	t0 := time.Now().Add(5 * time.Millisecond)

	var mu sync.Mutex
	var res stepResult
	lagsOf := make([][]float64, connections)
	var wg sync.WaitGroup
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			offset := period * time.Duration(c) / connections
			for k := 0; k < perConn; k++ {
				start := t0.Add(offset + period*time.Duration(k))
				lat, lags, err := r.pacedSession(in, sessionKey(name, c, k), start, interval, tick)
				mu.Lock()
				res.sessions++
				res.latencies = append(res.latencies, lat...)
				lagsOf[c] = append(lagsOf[c], lags...)
				if err != nil {
					res.failures = append(res.failures, wrap(name, err))
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	for c := range lagsOf {
		res.lags = append(res.lags, lagsOf[c]...)
		// The backlog grows when the generator, held back by the
		// server's backpressure, falls further behind its schedule.
		third := len(lagsOf[c]) / 3
		if third == 0 {
			continue
		}
		first := median(lagsOf[c][:third])
		last := median(lagsOf[c][len(lagsOf[c])-third:])
		if last-first > ms(latencyLimit)/10 {
			res.overload = fmt.Sprintf("generator lag grew from %.2f ms to %.2f ms", first, last)
		}
	}
	return res
}

// pacedSession streams one session on its schedule and returns its
// verdict latencies and tick lags in ms.
func (r *run) pacedSession(in *sessionInput, key string, start time.Time, interval time.Duration, tick int) (lat, lags []float64, err error) {
	snd, err := r.fl.dial(r.w, in, key, false)
	if err != nil {
		return nil, nil, fmt.Errorf("dial: %w", err)
	}
	sess := snd.sess
	// Stamp verdict frames on receipt. Verdicts() sheds frames past its
	// buffer and Done() can win a select over a ready frame, so after
	// Done() the channel is drained and the count is reconciled with
	// Latched() below.
	type stamped struct {
		event int
		at    time.Time
	}
	var got []stamped
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for {
			select {
			case fr := <-sess.Verdicts():
				got = append(got, stamped{fr.Event, time.Now()})
			case <-sess.Done():
				for {
					select {
					case fr := <-sess.Verdicts():
						got = append(got, stamped{fr.Event, time.Now()})
					default:
						return
					}
				}
			}
		}
	}()

	sendInits(sess, in.feed)
	events := in.feed.events
	lags = make([]float64, 0, len(events)/tick+1)
	for lo, j := 0, 0; lo < len(events); lo, j = lo+tick, j+1 {
		due := start.Add(interval * time.Duration(j))
		waitUntil(due)
		lags = append(lags, ms(time.Since(due)))
		for i := lo; i < min(lo+tick, len(events)); i++ {
			snd.send(&events[i])
		}
		sess.Flush() //nolint:errcheck // a lost connection fails finish below
	}
	err = in.finish(snd)
	<-collected
	if err == nil && len(got) != len(in.verdicts) {
		// A bench bug, not a slow server: never shrink the sample.
		return nil, lags, fmt.Errorf("collected %d of %d verdict frames", len(got), len(in.verdicts))
	}
	lat = make([]float64, 0, len(got))
	for _, g := range got {
		j := max(g.event-1, 0) / tick
		lat = append(lat, ms(g.at.Sub(start.Add(interval*time.Duration(j)))))
	}
	return lat, lags, err
}

// runPaced runs the two rate steps and reports the latency metrics. A
// step that is overloaded, or that misses the latency limit, fails all
// its sessions.
func (r *run) runPaced(budget time.Duration) (lagP99 float64) {
	var lags []float64
	for _, step := range []struct {
		suffix string
		rate   float64
		share  time.Duration
	}{
		{"lo", r.w.rateLo / float64(r.scale), budget * 3 / 5},
		{"hi", r.w.rateHi / float64(r.scale), budget * 2 / 5},
	} {
		res := r.runStep("paced-"+step.suffix, step.rate, step.share)
		lags = append(lags, res.lags...)
		p50, p95 := median(res.latencies), quantile(res.latencies, 0.95)
		p99 := windowedP99(res.latencies, 1000)
		r.set("verdict_latency_p50_ms."+step.suffix, p50, len(res.latencies))
		r.set("verdict_latency_p99_ms."+step.suffix, p99, len(res.latencies))
		logf("  paced-%s at %.0f events/s: %d sessions, %d verdicts, latency p50 %.3f p95 %.3f p99 %.3f ms, generator lag p99 %.3f ms",
			step.suffix, step.rate, res.sessions, len(res.latencies), p50, p95, p99, quantile(res.lags, 0.99))
		var stepErr error
		switch {
		case res.overload != "":
			stepErr = lateError{fmt.Errorf("paced-%s at %.0f events/s is overloaded: %s", step.suffix, step.rate, res.overload)}
		case p50 > ms(latencyLimit):
			stepErr = lateError{fmt.Errorf("paced-%s at %.0f events/s: the median verdict (%.2f ms) misses the %v limit", step.suffix, step.rate, p50, latencyLimit)}
		}
		for i := 0; i < res.sessions; i++ {
			switch {
			case stepErr != nil:
				r.op(stepErr)
			case i < len(res.failures):
				r.op(res.failures[i])
			default:
				r.op(nil)
			}
		}
	}
	return quantile(lags, 0.99)
}

// recoveryResult is what the recovery phase saw.
type recoveryResult struct {
	outages    []float64 // ms
	replayed   int
	reconnects int
	ackStall   time.Duration
}

// runRecovery streams reconnecting sessions on one connection and, half
// way through each, takes the session's server away: on a cluster the
// key's owner is killed (the session finishes on the replica, and the
// node is restarted before the next session), on a single server its
// connections are cut. The outage is the client's own measure, from the
// disconnect to the resumed session, replay included.
func (r *run) runRecovery(budget time.Duration, sampleAcks bool) recoveryResult {
	var res recoveryResult
	deadline := time.Now().Add(budget)
	for k := 0; k < 3 || time.Now().Before(deadline); k++ {
		if err := r.recoverOnce(k, sampleAcks, &res); err != nil {
			r.op(err)
			break
		}
	}
	return res
}

// recoverOnce runs the k-th recovery session. It returns an error only
// when the fleet is left unfit for another session.
func (r *run) recoverOnce(k int, sampleAcks bool, res *recoveryResult) error {
	in := &r.in.recover
	key := sessionKey("recover", 0, k)
	snd, err := r.fl.dial(r.w, in, key, true)
	if err != nil {
		return fmt.Errorf("recovery: dial: %w", err)
	}
	sess := snd.sess
	stopSampling := make(chan struct{})
	stalled := make(chan time.Duration, 1)
	if sampleAcks {
		go func() { stalled <- ackStall(sess, stopSampling) }()
	}
	victim := 0
	if r.fl.nodes != nil {
		victim = r.fl.ownerOf(key)
	}
	sendInits(sess, in.feed)
	for i := range in.feed.events {
		snd.send(&in.feed.events[i])
		if i+1 == len(in.feed.events)/2 {
			// A generator at full speed is far ahead of the servers. Let
			// them catch up first, so that every session loses its server
			// in the same state: half the feed applied, acknowledged and
			// (on a cluster) held by the replica.
			if err := settle(sess); err != nil {
				r.op(wrap("recovery", err))
			}
			if r.fl.nodes != nil {
				r.fl.kls[victim].Kill()
			} else {
				r.fl.kls[victim].KillConns()
			}
		}
	}
	err = in.finish(snd)
	if sampleAcks {
		close(stopSampling)
		res.ackStall = max(res.ackStall, <-stalled)
	}
	st := sess.Stats()
	if err == nil && st.Reconnects == 0 {
		err = errors.New("the session never reconnected")
	}
	r.op(wrap("recovery", err))
	if err == nil {
		res.outages = append(res.outages, ms(st.Outage))
		res.replayed += st.Replayed
		res.reconnects += st.Reconnects
	}
	if r.fl.nodes != nil {
		r.fl.kls[victim].Restart()
		return r.fl.waitLinks()
	}
	return nil
}

// settle flushes the session and waits until its acked watermark has
// stood still for 1.5 ms: the servers have acknowledged everything they
// are going to of what was sent so far. A session too short to be
// acknowledged at all (the servers ack every 32 frames) settles at 0.
func settle(sess *client.Session) error {
	if err := sess.Flush(); err != nil {
		return err
	}
	deadline := time.Now().Add(5 * time.Second)
	last, still := int64(-1), 0
	for still < 3 {
		if time.Now().After(deadline) {
			return errors.New("the acked watermark never settled")
		}
		time.Sleep(500 * time.Microsecond)
		if a := sess.Acked(); a == last {
			still++
		} else {
			last, still = a, 0
		}
	}
	return nil
}

// ackStall samples the session's acked watermark every millisecond and
// returns the longest time it stood still.
func ackStall(sess *client.Session, stop <-chan struct{}) time.Duration {
	var longest time.Duration
	last, lastAt := sess.Acked(), time.Now()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return longest
		case <-tick.C:
			if a := sess.Acked(); a != last {
				last, lastAt = a, time.Now()
			} else if d := time.Since(lastAt); d > longest {
				longest = d
			}
		}
	}
}

// stageSeconds reads the sums of the servers' own stage histograms.
func (fl *fleet) stageSeconds() map[string]float64 {
	out := make(map[string]float64)
	for _, reg := range fl.regs {
		for _, s := range stages {
			out[s] += histogramSum(reg, "hb_server_stage_seconds", "stage", s)
		}
	}
	return out
}
