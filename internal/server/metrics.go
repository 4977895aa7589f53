package server

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// metrics holds the hbserver metric handles. The names are part of the
// operational interface and documented in DESIGN.md; the registry is
// shared with the engine packages and served by obs.NewMux.
type metrics struct {
	sessionsActive *obs.Gauge     // hb_server_sessions_active
	sessionsTotal  *obs.Counter   // hb_server_sessions_opened_total
	connsActive    *obs.Gauge     // hb_server_connections_active
	connsReused    *obs.Counter   // hb_server_connections_reused_total
	events         *obs.Counter   // hb_server_events_total
	dropped        *obs.Counter   // hb_server_events_dropped_total
	ingestDur      *obs.Histogram // hb_server_ingest_seconds
	efFired        *obs.Counter   // hb_server_verdicts_total{kind="ef_fired"}
	agViolated     *obs.Counter   // hb_server_verdicts_total{kind="ag_violated"}
	stableFired    *obs.Counter   // hb_server_verdicts_total{kind="stable_fired"}
	snapshots      *obs.Counter   // hb_server_snapshots_total
	retained       *obs.Gauge     // hb_server_session_retained_events
	protoErrors    *obs.Counter   // hb_server_protocol_errors_total
	duplicates     *obs.Counter   // hb_server_events_duplicate_total
	journaled      *obs.Counter   // hb_server_events_journaled_total
	batches        *obs.Counter   // hb_server_batches_total
	resumesOK      *obs.Counter   // hb_server_resumes_total{result="ok"}
	resumesRej     *obs.Counter   // hb_server_resumes_total{result="rejected"}

	// connCloses counts TCP connection teardowns by typed reason, so a
	// half-open peer timing out is distinguishable from a clean bye.
	connCloses map[string]*obs.Counter // hb_server_conn_closes_total{reason=...}

	// stageDur breaks the ingest pipeline into per-stage latency
	// histograms, so "where does detection time go" is answerable from
	// /metrics alone: hb_server_stage_seconds{stage=...}.
	stageDur map[string]*obs.Histogram

	// opened, applied and shed are this server's own sessions, events and
	// dropped events, for Server.Stats: the registry may be shared with
	// other servers (obs.Default() is), and then its counters sum them.
	opened, applied, shed atomic.Int64
}

// Pipeline stages (hb_server_stage_seconds labels), in traversal order.
const (
	StageAccept  = "accept"  // handshake: connection accepted (a kept one: frame read) → session attached
	StageDecode  = "decode"  // one frame, and the lines gathered with it → ClientFrames
	StageEnqueue = "enqueue" // ingest call → unit queued (blocking = backpressure)
	StageApply   = "apply"   // monitor step: unit applied to detection state
	StageVerdict = "verdict" // watch latch → verdict frame emitted
	StageClose   = "close"   // bye read → goodbye written
)

var stages = []string{StageAccept, StageDecode, StageEnqueue, StageApply, StageVerdict, StageClose}

// stage records one duration under the named pipeline stage.
func (m *metrics) stage(name string, d time.Duration) {
	if h, ok := m.stageDur[name]; ok {
		h.Observe(d.Seconds())
	}
}

// Typed TCP connection close reasons (hb_server_conn_closes_total labels).
const (
	CloseBye         = "bye"            // orderly close after a session's bye
	CloseSessionDone = "session_done"   // session ended server-side (shutdown, idle, error)
	CloseEOF         = "eof"            // peer closed the connection
	CloseReadTimeout = "read_timeout"   // read deadline expired on a silent/half-open peer
	CloseProtoError  = "proto_error"    // malformed frame desynchronized the stream
	CloseSeqGap      = "seq_gap"        // sequenced frames lost in flight; client must resume
	CloseTooLong     = "frame_too_long" // a frame exceeded MaxFrameBytes (either encoding)
	CloseError       = "error"          // other I/O error
	CloseTakeover    = "takeover"       // handed to the cluster replication protocol
)

var closeReasons = []string{
	CloseBye, CloseSessionDone, CloseEOF, CloseReadTimeout,
	CloseProtoError, CloseSeqGap, CloseTooLong, CloseError, CloseTakeover,
}

func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		reg = obs.Default()
	}
	return &metrics{
		sessionsActive: reg.Gauge("hb_server_sessions_active",
			"Detection sessions currently open."),
		sessionsTotal: reg.Counter("hb_server_sessions_opened_total",
			"Detection sessions opened since start."),
		connsActive: reg.Gauge("hb_server_connections_active",
			"TCP ingest connections currently open."),
		connsReused: reg.Counter("hb_server_connections_reused_total",
			"Handshakes on TCP connections that had already served a session."),
		events: reg.Counter("hb_server_events_total",
			"Events applied to session monitors."),
		dropped: reg.Counter("hb_server_events_dropped_total",
			"Events shed by the drop overflow policy."),
		ingestDur: reg.Histogram("hb_server_ingest_seconds",
			"Per-event ingest latency, enqueue to applied.", nil),
		efFired: reg.Counter(`hb_server_verdicts_total{kind="ef_fired"}`,
			"Server-side verdict latches by kind."),
		agViolated: reg.Counter(`hb_server_verdicts_total{kind="ag_violated"}`,
			"Server-side verdict latches by kind."),
		stableFired: reg.Counter(`hb_server_verdicts_total{kind="stable_fired"}`,
			"Server-side verdict latches by kind."),
		snapshots: reg.Counter("hb_server_snapshots_total",
			"Offline snapshot queries served."),
		retained: reg.Gauge("hb_server_session_retained_events",
			"Events' worth of state retained across live sessions (prefix length, or slice-cursor size for bounded sessions)."),
		protoErrors: reg.Counter("hb_server_protocol_errors_total",
			"Frames rejected as malformed, out of range, or out of order."),
		duplicates: reg.Counter("hb_server_events_duplicate_total",
			"Sequenced frames idempotently dropped as duplicates (at-least-once redelivery)."),
		journaled: reg.Counter("hb_server_events_journaled_total",
			"Events applied from sequenced frames of resumable sessions (must reconcile with hb_server_events_total)."),
		batches: reg.Counter("hb_server_batches_total",
			"Client batch frames the TCP reader accepted (each carries many events under one seq)."),
		resumesOK: reg.Counter(`hb_server_resumes_total{result="ok"}`,
			"Resume handshakes by outcome."),
		resumesRej: reg.Counter(`hb_server_resumes_total{result="rejected"}`,
			"Resume handshakes by outcome."),
		connCloses: closeCounters(reg),
		stageDur:   stageHistograms(reg),
	}
}

func stageHistograms(reg *obs.Registry) map[string]*obs.Histogram {
	m := make(map[string]*obs.Histogram, len(stages))
	for _, st := range stages {
		m[st] = reg.Histogram(`hb_server_stage_seconds{stage="`+st+`"}`,
			"Per-stage pipeline latency: accept, decode, enqueue, apply, verdict, close.", nil)
	}
	return m
}

func closeCounters(reg *obs.Registry) map[string]*obs.Counter {
	m := make(map[string]*obs.Counter, len(closeReasons))
	for _, r := range closeReasons {
		m[r] = reg.Counter(`hb_server_conn_closes_total{reason="`+r+`"}`,
			"TCP ingest connection closes by reason.")
	}
	return m
}

// connClosed counts one TCP teardown under its typed reason.
func (m *metrics) connClosed(reason string) {
	if c, ok := m.connCloses[reason]; ok {
		c.Inc()
		return
	}
	m.connCloses[CloseError].Inc()
}
