// Package obs is the dependency-free observability layer of the module: an
// atomic metrics registry (counters, gauges, histograms) with Prometheus
// text and JSON exposition, plus a lightweight span tracer that records
// structured detection traces as JSON lines.
//
// Design constraints, in order:
//
//   - Hot-path safety: every metric operation is a single atomic update
//     (histograms add one atomic per bucket hit plus a CAS for the sum);
//     there are no locks outside metric registration and exposition.
//   - A no-op mode: a registry can be disabled (SetEnabled(false)), turning
//     every operation on its metrics into a single atomic load; nil metric
//     handles and nil tracers are likewise safe to use and do nothing, so
//     instrumented code never needs conditionals.
//   - Zero dependencies: stdlib only, so the detection engine keeps its
//     dependency-free property.
//
// The package-level Default registry is shared by the engine packages
// (core, explore, lattice, online); binaries expose it over HTTP with
// NewMux (see http.go).
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	enabled atomic.Bool

	mu      sync.Mutex
	metrics map[string]any // *Counter | *Gauge | *Histogram
	names   []string       // registration order; exposition sorts a copy
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	r := &Registry{metrics: make(map[string]any)}
	r.enabled.Store(true)
	return r
}

var std = NewRegistry()

// Default returns the process-wide registry shared by the engine packages.
func Default() *Registry { return std }

// SetEnabled turns metric collection on or off. When off, every operation
// on the registry's metrics is a no-op after one atomic load — the
// documented disabled mode.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports whether the registry is collecting.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// register returns the existing metric under name or stores and returns
// make(). It panics when name is already registered as a different kind —
// a programming error worth failing loudly on.
func register[M any](r *Registry, name string, make func() M) M {
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.metrics[name]; ok {
		m, ok := got.(M)
		if !ok {
			panic("obs: metric " + name + " re-registered as a different kind")
		}
		return m
	}
	m := make()
	r.metrics[name] = m
	r.names = append(r.names, name)
	return m
}

// sortedNames returns the metric names in lexicographic order.
func (r *Registry) sortedNames() []string {
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	r.mu.Unlock()
	sort.Strings(names)
	return names
}

// lookup returns the metric registered under name, or nil.
func (r *Registry) lookup(name string) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.metrics[name]
}

// Counter is a monotonically increasing metric. Metric names follow the
// Prometheus convention (snake_case, _total suffix for counters) and may
// carry a constant label set inline: `hb_verdicts_total{kind="ef"}`.
type Counter struct {
	reg  *Registry
	name string
	help string
	v    atomic.Int64
}

// Counter returns the counter registered under name, creating it if
// needed. Re-registration with the same name returns the same counter.
func (r *Registry) Counter(name, help string) *Counter {
	return register(r, name, func() *Counter { return &Counter{reg: r, name: name, help: help} })
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be non-negative for Prometheus semantics; this is not
// enforced on the hot path). Safe on a nil counter and a no-op when the
// registry is disabled.
func (c *Counter) Add(n int64) {
	if c == nil || !c.reg.enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	reg  *Registry
	name string
	help string
	v    atomic.Int64
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	return register(r, name, func() *Gauge { return &Gauge{reg: r, name: name, help: help} })
}

// Set stores v. Safe on nil; no-op when the registry is disabled.
func (g *Gauge) Set(v int64) {
	if g == nil || !g.reg.enabled.Load() {
		return
	}
	g.v.Store(v)
}

// Add adds n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g == nil || !g.reg.enabled.Load() {
		return
	}
	g.v.Add(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefBuckets are the default histogram bounds, tuned for sub-microsecond
// to multi-second engine latencies (seconds).
var DefBuckets = []float64{
	1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	1e-1, 2.5e-1, 5e-1, 1, 2.5, 5, 10,
}

// Histogram counts observations into fixed buckets. Observe is lock-free:
// one atomic add for the bucket, one for the count, one CAS loop for the
// float sum.
type Histogram struct {
	reg    *Registry
	name   string
	help   string
	bounds []float64 // strictly increasing upper bounds; +Inf is implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds (nil for DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return register(r, name, func() *Histogram {
		if bounds == nil {
			bounds = DefBuckets
		}
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		return &Histogram{
			reg: r, name: name, help: help,
			bounds: bs,
			counts: make([]atomic.Int64, len(bs)+1),
		}
	})
}

// Observe records v. Safe on nil; no-op when the registry is disabled.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records v n times: n events that share one measurement, such
// as the latency of the batch that carried them.
func (h *Histogram) ObserveN(v float64, n int64) {
	if h == nil || !h.reg.enabled.Load() {
		return
	}
	// First bucket whose bound is >= v; the overflow bucket is +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(n)
	h.count.Add(n)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v*float64(n))) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// snapshot returns cumulative bucket counts aligned with bounds plus the
// +Inf total, consistent enough for exposition (buckets are read without a
// global lock, so a scrape racing an Observe may be off by one — the usual
// Prometheus client behavior). The reported count is derived from the
// bucket read itself, not the separate count atomic: an Observe that has
// bumped its bucket but not yet the total (or vice versa) would otherwise
// expose count != +Inf bucket, which breaks the Prometheus histogram
// invariant scrapers quantile over. The race stress test pins this down.
func (h *Histogram) snapshot() (cumulative []int64, count int64, sum float64) {
	cumulative = make([]int64, len(h.counts))
	var running int64
	for i := range h.counts {
		running += h.counts[i].Load()
		cumulative[i] = running
	}
	return cumulative, running, h.Sum()
}
