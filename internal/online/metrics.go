package online

import (
	"repro/internal/obs"
)

// monMetrics holds the metric handles of an instrumented monitor. A nil
// *monMetrics (the default) costs the hot path exactly one pointer
// comparison per event; instrumentation is strictly opt-in so benchmark and
// library users pay nothing.
type monMetrics struct {
	events     *obs.Counter   // events ingested
	ingestDur  *obs.Histogram // per-event ingest latency, seconds
	inFlight   *obs.Gauge     // messages sent but not yet received
	queueDepth *obs.Gauge     // candidate states queued across EF watches
	watches    *obs.Gauge     // registered watches still awaiting a verdict
	efFired    *obs.Counter   // EF watches that latched a satisfying cut
	agViolated *obs.Counter   // AG watches that latched a violation
	stable     *obs.Counter   // stable watches that latched detection
}

// Instrument attaches the monitor to a metrics registry (obs.Default() when
// reg is nil). After the call every ingested event records its latency and
// updates the queue-depth and in-flight gauges, and every verdict latch
// increments its counter. Must be called before events are observed;
// uninstrumented monitors pay only a nil check per event.
func (m *Monitor) Instrument(reg *obs.Registry) {
	if reg == nil {
		reg = obs.Default()
	}
	m.met = &monMetrics{
		events: reg.Counter("hb_monitor_events_total",
			"Events ingested by online monitors."),
		ingestDur: reg.Histogram("hb_monitor_ingest_seconds",
			"Per-event ingest latency (step plus watch notification).", nil),
		inFlight: reg.Gauge("hb_monitor_messages_in_flight",
			"Messages sent but not yet received."),
		queueDepth: reg.Gauge("hb_monitor_watch_queue_depth",
			"Candidate local states queued across EF watches."),
		watches: reg.Gauge("hb_monitor_watches_pending",
			"Registered watches still awaiting a verdict."),
		efFired: reg.Counter(`hb_monitor_verdicts_total{kind="ef_fired"}`,
			"Online verdict latches by kind."),
		agViolated: reg.Counter(`hb_monitor_verdicts_total{kind="ag_violated"}`,
			"Online verdict latches by kind."),
		stable: reg.Counter(`hb_monitor_verdicts_total{kind="stable_fired"}`,
			"Online verdict latches by kind."),
	}
	m.refreshGauges()
}

// refreshGauges publishes the derived gauges from the monitor's running
// totals. Called once per ingested event when instrumented.
func (m *Monitor) refreshGauges() {
	if m.met == nil {
		return
	}
	m.met.inFlight.Set(int64(m.inFlight))
	m.met.queueDepth.Set(int64(m.queued))
	m.met.watches.Set(int64(m.watches - m.latched))
}
