// Package hostobs observes the host, not the machine: wall-clock
// metrics about the simulator process itself — cache-tier hit
// counters, resolve and HTTP latency distributions, the simulation
// run meter — as opposed to internal/obs, which observes simulated
// cycles. It is a dependency-free, lock-cheap metrics registry:
// counters and gauges are single atomics, histograms are bounded
// log-scale bucket arrays of atomics, and the registry mutex is taken
// only at (de)registration and export, never on the observation path.
//
// The cardinal contract is that host observation is feedback-free:
// nothing in this package may alter simulation output, cache keys, or
// rendered experiment tables. Metrics describe the process; they never
// feed back into it. The delta-serve CI job enforces this with a
// byte-identity cmp of instrumented-vs-uninstrumented suite stdout
// (DESIGN.md §18).
//
// Export is deterministic: WritePrometheus renders the Prometheus text
// exposition format (0.0.4) in sorted (family, labels) order, so two
// scrapes of an idle registry are byte-identical and diffs between
// scrapes are meaningful.
package hostobs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; registering it in a Registry only names it for
// export.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (callers must keep the counter monotone; use a Gauge
// for values that go down).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Reset zeroes the counter. Export semantics treat counters as
// monotone, so Reset belongs in tests and test-shaped harness resets
// (runplan.Runner.Reset), not in production paths.
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is an instantaneous value: either set explicitly or computed
// by a callback at read time (a "function gauge"). The zero value is a
// settable gauge at 0.
type Gauge struct {
	v  atomic.Int64
	fn func() int64
}

// Set stores the gauge's value. Panics on a function gauge — its value
// is owned by the callback.
func (g *Gauge) Set(v int64) {
	if g.fn != nil {
		panic("hostobs: Set on a function gauge")
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g.fn != nil {
		panic("hostobs: Add on a function gauge")
	}
	g.v.Add(delta)
}

// Value returns the current value (calling the callback on a function
// gauge).
func (g *Gauge) Value() int64 {
	if g.fn != nil {
		return g.fn()
	}
	return g.v.Load()
}

// Histogram is a bounded log-scale latency histogram: a fixed,
// strictly increasing slice of bucket upper bounds (in seconds) plus
// an implicit +Inf overflow bucket, with atomic per-bucket counts and
// an atomic nanosecond sum. Observations cost one binary search and
// three atomic adds — no locks, no allocation.
type Histogram struct {
	bounds []float64      // upper bounds in seconds, strictly increasing
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sumNS  atomic.Int64
}

// LatencyBuckets is the default bound set: a 1–2.5–5 log scale from
// 1µs to 60s, wide enough to hold both sub-millisecond memory-tier
// hits and minute-long cold simulations in one bounded array.
var LatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	1e-1, 2.5e-1, 5e-1,
	1, 2.5, 5, 10, 30, 60,
}

// NewHistogram returns a histogram over bounds (seconds, strictly
// increasing). An empty or nil bounds slice uses LatencyBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("hostobs: histogram bounds not strictly increasing at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveSeconds(d.Seconds()) }

// ObserveSeconds records one observation given in seconds.
func (h *Histogram) ObserveSeconds(s float64) {
	// Binary search for the first bound >= s; equal values land in the
	// bucket whose upper bound they match (le semantics).
	i := sort.SearchFloat64s(h.bounds, s)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNS.Add(int64(s * 1e9))
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// SumSeconds returns the sum of all observations in seconds.
func (h *Histogram) SumSeconds() float64 { return float64(h.sumNS.Load()) / 1e9 }

// Cumulative returns the cumulative (le-style) bucket counts, one per
// bound plus the final +Inf bucket. Monotone non-decreasing by
// construction.
func (h *Histogram) Cumulative() []int64 {
	out := make([]int64, len(h.counts))
	var run int64
	for i := range h.counts {
		run += h.counts[i].Load()
		out[i] = run
	}
	return out
}

// Bounds returns the histogram's upper bounds in seconds (without the
// implicit +Inf).
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// Reset zeroes all buckets; test-only, like Counter.Reset.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sumNS.Store(0)
}

// metricKind discriminates a series' export shape.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one registered (family, labels) instance.
type series struct {
	family string
	labels string // rendered `k="v",...`, "" when unlabeled; the sort key
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups every series sharing one metric name: they share a
// HELP string and a type, and export together under one header.
type family struct {
	name   string
	help   string
	kind   metricKind
	series map[string]*series // by rendered labels
}

// Registry is a named collection of metric series with deterministic
// export. All methods are safe for concurrent use; the observation
// types themselves (Counter, Gauge, Histogram) never touch the
// registry lock.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels turns alternating key, value arguments into the
// canonical `k="v",...` form. Panics on an odd-length list — that is a
// programming error at a registration site, not a runtime condition.
func renderLabels(kv []string) string {
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("hostobs: odd label list %q", kv))
	}
	if len(kv) == 0 {
		return ""
	}
	var b strings.Builder
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	return b.String()
}

// lookup finds or creates the family and the series slot, enforcing
// kind and help consistency across registrations of the same family.
func (r *Registry) lookup(name, help string, kind metricKind, labels []string) *series {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("hostobs: %s registered as %s, re-registered as %s", name, f.kind, kind))
	}
	s := f.series[ls]
	if s == nil {
		s = &series{family: name, labels: ls}
		f.series[ls] = s
	}
	return s
}

// Counter returns the counter series (family, labels...), creating it
// on first use. labels are alternating key, value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	s := r.lookup(name, help, kindCounter, labels)
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// RegisterCounter names an existing counter for export — the adoption
// path runplan uses so one atomic serves both Counters() snapshots and
// /metrics. Re-registering the same series replaces its instance.
func (r *Registry) RegisterCounter(name, help string, c *Counter, labels ...string) {
	r.lookup(name, help, kindCounter, labels).c = c
}

// Gauge returns the settable gauge series (family, labels...),
// creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	s := r.lookup(name, help, kindGauge, labels)
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// GaugeFunc registers a function gauge whose value is computed by fn
// at every export.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...string) {
	r.lookup(name, help, kindGauge, labels).g = &Gauge{fn: fn}
}

// Histogram returns the histogram series (family, labels...), creating
// it with the given bounds (nil = LatencyBuckets) on first use. The
// bounds of an existing series are kept.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	s := r.lookup(name, help, kindHistogram, labels)
	if s.h == nil {
		s.h = NewHistogram(bounds)
	}
	return s.h
}

// RegisterHistogram names an existing histogram for export.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram, labels ...string) {
	r.lookup(name, help, kindHistogram, labels).h = h
}

// snapshot returns the families and their series in sorted order —
// the one ordering both exporters share, which is what makes scrape
// output stable.
func (r *Registry) snapshot() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedSeries returns a family's series sorted by rendered labels.
func (f *family) sortedSeries() []*series {
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].labels < out[j].labels })
	return out
}

// formatFloat renders a float the way Prometheus clients do: shortest
// round-trip representation.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// promName renders `name{labels}` (or bare name) with extra label
// pairs appended after any series labels.
func promName(name, labels string, extra ...string) string {
	all := labels
	if len(extra) > 0 {
		e := renderLabels(extra)
		if all == "" {
			all = e
		} else {
			all += "," + e
		}
	}
	if all == "" {
		return name
	}
	return name + "{" + all + "}"
}

// WritePrometheus renders every registered series in the Prometheus
// text exposition format (0.0.4): families sorted by name, series
// sorted by labels, histograms as cumulative _bucket/_sum/_count
// triples. Output for an unchanged registry is byte-identical across
// calls.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.snapshot() {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.sortedSeries() {
			switch f.kind {
			case kindCounter:
				if s.c == nil {
					continue
				}
				if _, err := fmt.Fprintf(w, "%s %d\n", promName(f.name, s.labels), s.c.Value()); err != nil {
					return err
				}
			case kindGauge:
				if s.g == nil {
					continue
				}
				if _, err := fmt.Fprintf(w, "%s %d\n", promName(f.name, s.labels), s.g.Value()); err != nil {
					return err
				}
			case kindHistogram:
				if s.h == nil {
					continue
				}
				cum := s.h.Cumulative()
				for i, b := range s.h.bounds {
					if _, err := fmt.Fprintf(w, "%s %d\n",
						promName(f.name+"_bucket", s.labels, "le", formatFloat(b)), cum[i]); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s %d\n",
					promName(f.name+"_bucket", s.labels, "le", "+Inf"), cum[len(cum)-1]); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s %s\n",
					promName(f.name+"_sum", s.labels), formatFloat(s.h.SumSeconds())); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s %d\n",
					promName(f.name+"_count", s.labels), s.h.Count()); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
