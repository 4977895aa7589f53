package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"os"

	"strings"

	"repro/internal/buildinfo"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
)

// RunServer is the hbserver command: a long-running detection service
// accepting event streams over TCP (NDJSON frames) and optionally HTTP,
// multiplexing them into per-session online monitors, and pushing
// verdicts as they latch. It runs until SIGINT/SIGTERM, then drains:
// listeners close, every session's queued events are applied, goodbye
// frames flush, and a summary is printed.
func RunServer(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hbserver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen      = fs.String("listen", "127.0.0.1:7457", "TCP ingest address")
		httpAddr    = fs.String("http", "", "HTTP address for the session API and telemetry (/metrics, /healthz, /api/...); empty disables")
		queue       = fs.Int("queue", 256, "per-session ingest queue depth")
		overflow    = fs.String("overflow", "block", "queue overflow policy: block (backpressure) or drop (shed + count)")
		maxSessions = fs.Int("max-sessions", 1024, "maximum concurrently open sessions")
		idle        = fs.Duration("idle-timeout", 2*time.Minute, "close sessions idle this long (0 disables)")
		readTimeout = fs.Duration("read-timeout", 5*time.Minute, "per-frame TCP read deadline; a half-open peer is cut loose after this (negative disables)")
		retention   = fs.Int("retention", 4096, "resume staleness bound: a resume more than this many accepted frames behind is rejected as stale")
		ackEvery    = fs.Int("ack-every", 32, "ack resumable sessions every N applied frames (clients size in-flight buffers from this)")
		ingestDelay = fs.Duration("ingest-delay", 0, "artificial per-event processing delay (testing/demos)")
		pprof       = fs.Bool("pprof", false, "also serve /debug/pprof on the -http address")
		spanJSONL   = fs.String("span-jsonl", "", "append pipeline spans (session, frame, stages) as JSON lines to this file")
		slow        = fs.Duration("slow", 0, "log detection runs slower than this to /debug/obs (0 disables)")
		peers       = fs.String("cluster-peers", "", "comma-separated static cluster membership (ring identities, this node included); enables cluster mode")
		self        = fs.String("cluster-self", "", "this node's ring identity within -cluster-peers (default: the -listen address)")
		replicas    = fs.Int("cluster-replicas", 2, "copies of each keyed session's frame log, the owner included")
		ringSeed    = fs.Uint64("cluster-seed", 0, "placement ring seed; every node and ring-aware client must agree (0 = built-in default)")
		durability  = fs.String("cluster-durability", "available", "default ack durability for keyed sessions: available (ack on live replicas) or durable (acks wait out replica outages); hellos may override per session")
		version     = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		buildinfo.Print(stdout, "hbserver")
		return 0
	}
	policy, err := server.ParseOverflowPolicy(*overflow)
	if err != nil {
		fmt.Fprintln(stderr, "hbserver:", err)
		return 2
	}

	// Pipeline observability: recent spans and slow detections are kept
	// in memory for /debug/obs; -span-jsonl additionally persists every
	// span. The tracer stays nil unless something consumes spans, so the
	// default hot path never allocates a span.
	ring := obs.NewSpanRing(256)
	slowLog := obs.NewSlowLog(128, *slow, nil)
	if *slow > 0 {
		core.SetSlowLog(slowLog)
		defer core.SetSlowLog(nil)
	}
	var tracer *obs.Tracer
	if *spanJSONL != "" {
		f, err := os.OpenFile(*spanJSONL, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(stderr, "hbserver:", err)
			return 2
		}
		defer f.Close()
		tracer = obs.NewTracer(f).Mirror(ring)
	} else if *httpAddr != "" {
		tracer = obs.NewTracer(nil).Mirror(ring)
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(stderr, "hbserver: "+format+"\n", args...)
	}
	srvCfg := server.Config{
		QueueDepth:      *queue,
		Overflow:        policy,
		MaxSessions:     *maxSessions,
		IdleTimeout:     *idle,
		ReadTimeout:     *readTimeout,
		RetentionWindow: *retention,
		AckEvery:        *ackEvery,
		IngestDelay:     *ingestDelay,
		Registry:        obs.Default(),
		Tracer:          tracer,
		Logf:            logf,
	}
	// Cluster mode: the node installs the placement/replication hooks and
	// owns the server; standalone mode builds the server directly.
	var srv *server.Server
	var node *cluster.Node
	if *peers != "" {
		mode, err := cluster.ParseDurability(*durability)
		if err != nil {
			fmt.Fprintln(stderr, "hbserver:", err)
			return 2
		}
		id := *self
		if id == "" {
			id = *listen
		}
		node, err = cluster.New(srvCfg, cluster.NodeConfig{
			Self:       id,
			Peers:      splitPeers(*peers),
			Replicas:   *replicas,
			Seed:       *ringSeed,
			Durability: mode,
			Registry:   obs.Default(),
			Logf:       logf,
		})
		if err != nil {
			fmt.Fprintln(stderr, "hbserver:", err)
			return 2
		}
		srv = node.Server()
		fmt.Fprintf(stderr, "hbserver: cluster mode: %d nodes, %d copies per session, self=%s, durability=%s\n",
			len(node.Ring().Nodes()), *replicas, id, mode)
	} else {
		srv = server.New(srvCfg)
	}

	// Register before the address is printed, so a supervisor (or test)
	// that signals as soon as it sees the address cannot kill the process.
	sig, stopSignals := shutdownSignal()
	defer stopSignals()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(stderr, "hbserver:", err)
		return 2
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(stderr, "hbserver: ingest on %s (overflow=%s, queue=%d)\n", ln.Addr(), policy, *queue)

	var hsrv *http.Server
	if *httpAddr != "" {
		mux := obs.NewMux(obs.Default())
		server.RegisterHTTP(mux, srv)
		dbg := &obs.Debug{Registry: obs.Default(), Spans: ring, Slow: slowLog}
		if node != nil {
			dbg.Sections = map[string]func() any{"cluster": node.DebugState}
		}
		dbg.Register(mux)
		if *pprof {
			obs.RegisterPprof(mux)
		}
		hln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintln(stderr, "hbserver:", err)
			ln.Close()
			return 2
		}
		hsrv = &http.Server{Handler: mux}
		go hsrv.Serve(hln) //nolint:errcheck // closed on shutdown
		fmt.Fprintf(stderr, "hbserver: http api + telemetry on http://%s\n", hln.Addr())
	}

	select {
	case s := <-sig:
		fmt.Fprintf(stderr, "hbserver: %v, draining (signal again to kill)\n", s)
		stopSignals() // second signal falls through to the default disposition
	case err := <-serveErr:
		stopSignals()
		if err != nil {
			fmt.Fprintln(stderr, "hbserver:", err)
			return 2
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if hsrv != nil {
		hsrv.Shutdown(ctx) //nolint:errcheck // best-effort
	}
	if node != nil {
		// Planned removal: hand every hosted session's frame log to a live
		// replica before tearing the node down, so keyed clients resume on
		// the new owner with zero frame loss. Failures are logged and fall
		// through — crash failover covers whatever a drain could not move.
		if derr := node.Drain(ctx); derr != nil {
			fmt.Fprintln(stderr, "hbserver: drain:", derr)
		}
		err = node.Shutdown(ctx)
	} else {
		err = srv.Shutdown(ctx)
	}
	if err != nil {
		fmt.Fprintln(stderr, "hbserver: shutdown:", err)
		return 1
	}
	sessions, events, dropped := srv.Stats()
	fmt.Fprintf(stdout, "hbserver: served %d sessions, %d events (%d dropped)\n", sessions, events, dropped)
	return 0
}

// splitPeers parses the -cluster-peers list, trimming whitespace and
// dropping empty entries so a trailing comma is not a phantom node.
func splitPeers(spec string) []string {
	var peers []string
	for _, p := range strings.Split(spec, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}
