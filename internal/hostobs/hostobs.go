// Package hostobs observes the host, not the machine: wall-clock
// metrics about the simulator process itself — cache-tier hit
// counters, resolve and HTTP latency distributions, the simulation
// run meter — as opposed to internal/obs, which observes simulated
// cycles. It is a dependency-free, lock-cheap metrics registry:
// counters are single atomics, gauges are callbacks read at export,
// histograms are bounded log-scale bucket arrays of atomics, and the
// registry mutex is taken only at registration and export, never on
// the observation path.
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

// Add adds delta (callers must keep the counter monotone; use a
// GaugeFunc for values that go down).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Reset zeroes the counter. Export semantics treat counters as
// monotone, so Reset belongs in tests and test-shaped harness resets
// (runplan.Runner.Reset), not in production paths.
func (c *Counter) Reset() { c.v.Store(0) }

// Histogram is a bounded log-scale latency histogram over the
// LatencyBuckets upper bounds plus an implicit +Inf overflow bucket,
// with atomic per-bucket counts and an atomic nanosecond sum.
// Observations cost one binary search and three atomic adds — no
// locks, no allocation. The zero value is ready to use; registering it
// in a Registry only names it for export.
type Histogram struct {
	counts [len(LatencyBuckets) + 1]atomic.Int64 // last is the +Inf bucket
	count  atomic.Int64
	sumNS  atomic.Int64
}

// LatencyBuckets is every histogram's bound set, in seconds and
// strictly increasing: a 1–2.5–5 log scale from 1µs to 60s, wide enough
// to hold both sub-millisecond memory-tier hits and minute-long cold
// simulations in one bounded array.
var LatencyBuckets = [...]float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	1e-1, 2.5e-1, 5e-1,
	1, 2.5, 5, 10, 30, 60,
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveSeconds(d.Seconds()) }

// ObserveSeconds records one observation given in seconds.
func (h *Histogram) ObserveSeconds(s float64) {
	// Binary search for the first bound >= s; equal values land in the
	// bucket whose upper bound they match (le semantics).
	i := sort.SearchFloat64s(LatencyBuckets[:], s)
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

// series is one registered (family, labels) instance. Its instance
// fields are written only under the registry lock.
type series struct {
	labels string // rendered `k="v",...`, "" when unlabeled; the sort key
	c      *Counter
	g      func() int64 // a gauge's value, computed at export
	h      *Histogram
}

// family groups every series sharing one metric name: they share a
// HELP string and a type, and export together under one header. name,
// help and kind are fixed at creation; series is guarded by the
// registry lock.
type family struct {
	name   string
	help   string
	kind   metricKind
	series map[string]*series // by rendered labels
}

// Registry is a named collection of metric series with deterministic
// export. All methods are safe for concurrent use; the observation
// types themselves (Counter, Histogram) never touch the registry
// lock.
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
// kind consistency across registrations of the same family, and hands
// the slot to fill while still holding the registry lock — so two
// first uses of one series cannot both create its instance.
func (r *Registry) lookup(name, help string, kind metricKind, labels []string, fill func(*series)) {
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
		s = &series{labels: ls}
		f.series[ls] = s
	}
	fill(s)
}

// Counter returns the counter series (family, labels...), creating it
// on first use. labels are alternating key, value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	var c *Counter
	r.lookup(name, help, kindCounter, labels, func(s *series) {
		if s.c == nil {
			s.c = &Counter{}
		}
		c = s.c
	})
	return c
}

// RegisterCounter names an existing counter for export — the adoption
// path runplan uses so one atomic serves both Counters() snapshots and
// /metrics. Re-registering the same series replaces its instance.
func (r *Registry) RegisterCounter(name, help string, c *Counter, labels ...string) {
	r.lookup(name, help, kindCounter, labels, func(s *series) { s.c = c })
}

// GaugeFunc registers a gauge whose value is computed by fn at every
// export.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...string) {
	r.lookup(name, help, kindGauge, labels, func(s *series) { s.g = fn })
}

// Histogram returns the histogram series (family, labels...), creating
// it on first use.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	var h *Histogram
	r.lookup(name, help, kindHistogram, labels, func(s *series) {
		if s.h == nil {
			s.h = &Histogram{}
		}
		h = s.h
	})
	return h
}

// RegisterHistogram names an existing histogram for export.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram, labels ...string) {
	r.lookup(name, help, kindHistogram, labels, func(s *series) { s.h = h })
}

// exported is one family as WritePrometheus renders it: its series
// copied out under the registry lock and sorted by labels.
type exported struct {
	*family
	rows []series
}

// snapshot copies every family's series under the registry lock,
// families sorted by name and series by labels — the one ordering the
// exporter renders, which is what makes scrape output stable. The
// copies share the live instances, whose values are read after the
// lock is released.
func (r *Registry) snapshot() []exported {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]exported, 0, len(r.families))
	for _, f := range r.families {
		e := exported{family: f, rows: make([]series, 0, len(f.series))}
		for _, s := range f.series {
			e.rows = append(e.rows, *s)
		}
		sort.Slice(e.rows, func(i, j int) bool { return e.rows[i].labels < e.rows[j].labels })
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
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
		for _, s := range f.rows {
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
				if _, err := fmt.Fprintf(w, "%s %d\n", promName(f.name, s.labels), s.g()); err != nil {
					return err
				}
			case kindHistogram:
				if s.h == nil {
					continue
				}
				cum := s.h.Cumulative()
				for i, b := range LatencyBuckets {
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
