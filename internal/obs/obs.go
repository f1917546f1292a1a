// Package obs is RESCUE's low-overhead instrumentation layer: atomic
// counters, gauges and fixed-bucket histograms registered in a Registry
// that renders Prometheus text exposition format, plus lightweight Span
// timing for per-stage wall-clock measurement.
//
// Design rules (the overhead budget every instrumented hot path obeys):
//
//   - Metric handles are resolved once, at package init — never looked
//     up on a hot path. Updating a metric is one or two uncontended
//     atomic operations and never allocates.
//   - Hot loops flush *aggregated* counts at call boundaries where the
//     aggregate already exists (a fault-simulation Simulate call adds
//     its exact GateEvals once), never per gate evaluation. The
//     per-call overhead is therefore a constant handful of atomic adds
//     amortised over thousands of gate evaluations — asserted < 3% by
//     BenchmarkObsOverhead in internal/faultsim.
//   - Scrapes (WritePrometheus, Snapshot) take the registration mutex
//     only to walk the metric list; values are read with atomic loads,
//     so a scrape never blocks an update and vice versa.
//
// Naming follows Prometheus conventions: `<subsystem>_<what>_total` for
// counters (campaign_jobs_completed_total, sim_gate_evals_total),
// plain `<subsystem>_<what>` for gauges (campaign_queue_depth), and
// `<subsystem>_<what>_seconds` for duration histograms
// (flow_stage_seconds, campaign_job_seconds).
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0; negative deltas are a programming error
// and are ignored so a scrape never observes a counter going down).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores an absolute value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add applies a delta (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram over float64
// observations. Bounds are inclusive upper limits in ascending order; an
// implicit +Inf bucket catches the rest. Observing is lock-free: one
// atomic add into the bucket, one into the count, and a CAS loop over
// the float sum.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // math.Float64bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// DurationBuckets is the default bucket layout for wall-clock histograms
// (seconds): half a millisecond to a minute, roughly logarithmic — wide
// enough for a campaign job, fine enough for a PODEM round.
var DurationBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Span is a lightweight timing scope: StartSpan captures the monotonic
// clock, End records the elapsed seconds into the histogram. It is a
// value type — starting and ending a span never allocates.
type Span struct {
	h     *Histogram
	start time.Time
}

// StartSpan opens a span that will record into h. With a nil h the span
// only measures: Elapsed reads it and End records nothing.
func StartSpan(h *Histogram) Span { return Span{h: h, start: time.Now()} }

// Elapsed returns the wall-clock since the span started without ending
// it; zero for a zero Span.
func (s Span) Elapsed() time.Duration {
	if s.start.IsZero() {
		return 0
	}
	return time.Since(s.start)
}

// End closes the span, records the elapsed wall-clock into the
// histogram, and returns it. End on a zero Span is a no-op.
func (s Span) End() time.Duration {
	if s.h == nil {
		return 0
	}
	d := time.Since(s.start)
	s.h.Observe(d.Seconds())
	return d
}

// metric is one registered series: a value plus its identity within a
// family.
type metric struct {
	labels string // Prometheus label pairs without braces, "" for none
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups the series sharing one metric name (and therefore one
// HELP/TYPE header and one kind).
type family struct {
	name   string
	help   string
	kind   string // "counter", "gauge", "histogram"
	series []*metric
}

// Registry holds registered metrics and renders them. Registration is
// init-time and panics on conflicts (same name with a different kind or
// help, or a duplicate name+labels series) — programmer errors, caught
// on first run. Updates and scrapes are safe from any goroutine.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-wide registry every RESCUE subsystem registers
// into; the campaign service's /metrics endpoint serves it.
var Default = NewRegistry()

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register adds one series, creating or validating its family.
func (r *Registry) register(name, help, kind, labels string, m *metric) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	m.labels = labels
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	for _, s := range f.series {
		if s.labels == labels {
			panic(fmt.Sprintf("obs: duplicate series %s{%s}", name, labels))
		}
	}
	f.series = append(f.series, m)
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.LabeledCounter(name, help, "")
}

// LabeledCounter registers one counter series with constant label pairs
// (e.g. `stage="quality"`).
func (r *Registry) LabeledCounter(name, help, labels string) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", labels, &metric{c: c})
	return c
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", "", &metric{g: g})
	return g
}

// Histogram registers and returns a histogram with the given inclusive
// upper bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.LabeledHistogram(name, help, bounds, "")
}

// LabeledHistogram registers one histogram series with constant label
// pairs.
func (r *Registry) LabeledHistogram(name, help string, bounds []float64, labels string) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	r.register(name, help, "histogram", labels, &metric{h: h})
	return h
}

// NewCounter registers a counter on the Default registry.
func NewCounter(name, help string) *Counter { return Default.Counter(name, help) }

// NewGauge registers a gauge on the Default registry.
func NewGauge(name, help string) *Gauge { return Default.Gauge(name, help) }

// NewHistogram registers a histogram on the Default registry.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	return Default.Histogram(name, help, bounds)
}

// NewLabeledHistogram registers a labeled histogram series on the
// Default registry.
func NewLabeledHistogram(name, help string, bounds []float64, labels string) *Histogram {
	return Default.LabeledHistogram(name, help, bounds, labels)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4), families and series in sorted
// order so the output is deterministic for a fixed set of values.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		series := append([]*metric(nil), f.series...)
		sort.Slice(series, func(i, j int) bool { return series[i].labels < series[j].labels })
		for _, m := range series {
			switch {
			case m.c != nil:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, braced(m.labels), m.c.Value())
			case m.g != nil:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, braced(m.labels), m.g.Value())
			case m.h != nil:
				h := m.h
				cum := int64(0)
				for i, b := range h.bounds {
					cum += h.counts[i].Load()
					fmt.Fprintf(bw, "%s_bucket{%s} %d\n", f.name,
						joinLabels(m.labels, `le="`+formatFloat(b)+`"`), cum)
				}
				cum += h.counts[len(h.bounds)].Load()
				fmt.Fprintf(bw, "%s_bucket{%s} %d\n", f.name,
					joinLabels(m.labels, `le="+Inf"`), cum)
				fmt.Fprintf(bw, "%s_sum%s %s\n", f.name, braced(m.labels), formatFloat(h.Sum()))
				fmt.Fprintf(bw, "%s_count%s %d\n", f.name, braced(m.labels), h.Count())
			}
		}
	}
	return bw.Flush()
}

// Snapshot flattens the registry into metric-name → value (series keys
// carry their label set as name{labels}; histograms contribute _sum and
// _count entries). The bench harness samples it before and after a
// measured run to attach exact work counts to wall-clock numbers.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64)
	for name, f := range r.families {
		for _, m := range f.series {
			key := name + braced(m.labels)
			switch {
			case m.c != nil:
				out[key] = float64(m.c.Value())
			case m.g != nil:
				out[key] = float64(m.g.Value())
			case m.h != nil:
				out[name+"_sum"+braced(m.labels)] = m.h.Sum()
				out[name+"_count"+braced(m.labels)] = float64(m.h.Count())
			}
		}
	}
	return out
}

// Handler returns an http.Handler serving the registry in Prometheus
// text format — the /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
