// Package stats collects and reports simulation statistics: named
// counters, value histograms, load-imbalance metrics, and the aligned
// text tables used by the experiment harness.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// Set is an ordered collection of named int64 counters. Order of first
// Add/Set determines report order, keeping output deterministic.
type Set struct {
	names []string
	vals  map[string]int64
}

// NewSet returns an empty counter set.
func NewSet() *Set { return &Set{vals: make(map[string]int64)} }

// Add increments counter name by delta, creating it at zero first.
func (s *Set) Add(name string, delta int64) {
	if _, ok := s.vals[name]; !ok {
		s.names = append(s.names, name)
	}
	s.vals[name] += delta
}

// SetVal sets counter name to v, creating it if needed.
func (s *Set) SetVal(name string, v int64) {
	if _, ok := s.vals[name]; !ok {
		s.names = append(s.names, name)
	}
	s.vals[name] = v
}

// Get returns the value of counter name (zero if absent).
func (s *Set) Get(name string) int64 { return s.vals[name] }

// Names returns the counter names in first-use order.
func (s *Set) Names() []string { return append([]string(nil), s.names...) }

// Clone returns a deep copy of the set: same counters in the same
// first-use order, fully independent storage. A nil receiver clones to
// nil, so cached reports without stats copy out safely.
func (s *Set) Clone() *Set {
	if s == nil {
		return nil
	}
	c := &Set{
		names: append([]string(nil), s.names...),
		vals:  make(map[string]int64, len(s.vals)),
	}
	for k, v := range s.vals {
		c.vals[k] = v
	}
	return c
}

// setEntry is one counter in the Set's JSON form.
type setEntry struct {
	N string `json:"n"`
	V int64  `json:"v"`
}

// MarshalJSON encodes the set as an array of {n, v} pairs in
// first-use order — no map is ranged, so equal sets always encode to
// identical bytes. That determinism is what lets the content-addressed
// run store (internal/store) integrity-check a report by re-hashing
// its serialized form.
func (s *Set) MarshalJSON() ([]byte, error) {
	entries := make([]setEntry, len(s.names))
	for i, n := range s.names {
		entries[i] = setEntry{N: n, V: s.vals[n]}
	}
	return json.Marshal(entries)
}

// UnmarshalJSON rebuilds the set from its pair-array form, restoring
// the original counter order.
func (s *Set) UnmarshalJSON(b []byte) error {
	var entries []setEntry
	if err := json.Unmarshal(b, &entries); err != nil {
		return err
	}
	s.names = s.names[:0]
	s.vals = make(map[string]int64, len(entries))
	for _, e := range entries {
		if _, dup := s.vals[e.N]; dup {
			return fmt.Errorf("stats: duplicate counter %q in encoded set", e.N)
		}
		s.names = append(s.names, e.N)
		s.vals[e.N] = e.V
	}
	return nil
}

// String renders the set as "name=value" pairs, one per line.
func (s *Set) String() string {
	var b strings.Builder
	for _, n := range s.names {
		fmt.Fprintf(&b, "%s=%d\n", n, s.vals[n])
	}
	return b.String()
}

// Histogram accumulates int64 samples and reports distribution
// statistics. It stores raw samples; simulation histograms here hold at
// most a few million entries.
type Histogram struct {
	samples []int64
	sum     int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	h.samples = append(h.samples, v)
	h.sum += v
}

// Count returns the number of samples.
func (h *Histogram) Count() int { return len(h.samples) }

// Sum returns the sample total.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean returns the sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	return float64(h.sum) / float64(len(h.samples))
}

// Max returns the largest sample (0 when empty).
func (h *Histogram) Max() int64 {
	var m int64
	for i, v := range h.samples {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

// Stddev returns the population standard deviation.
func (h *Histogram) Stddev() float64 {
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	mean := h.Mean()
	var ss float64
	for _, v := range h.samples {
		d := float64(v) - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// CV returns the coefficient of variation (stddev/mean), the task-size
// skew measure used in workload characterization; 0 when mean is 0.
func (h *Histogram) CV() float64 {
	m := h.Mean()
	if m == 0 {
		return 0
	}
	return h.Stddev() / m
}

// Imbalance quantifies load imbalance over per-worker totals as
// max/mean. Perfectly balanced work yields 1.0. Returns 0 for empty or
// all-zero input.
func Imbalance(perWorker []int64) float64 {
	if len(perWorker) == 0 {
		return 0
	}
	var sum, max int64
	for _, v := range perWorker {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(perWorker))
	return float64(max) / mean
}

// Geomean returns the geometric mean of the positive values together
// with the number of values it had to skip because they were ≤ 0 (a
// geometric mean is undefined there). Callers must check skipped — a
// degenerate input would otherwise silently inflate the mean, which is
// exactly how a collapsed per-workload speedup could hide in a
// headline number. Returns (0, skipped) when no positive values exist.
func Geomean(vals []float64) (g float64, skipped int) {
	var logs float64
	n := 0
	for _, v := range vals {
		if v > 0 {
			logs += math.Log(v)
			n++
		} else {
			skipped++
		}
	}
	if n == 0 {
		return 0, skipped
	}
	return math.Exp(logs / float64(n)), skipped
}

// Speedup returns base/new as a ratio, guarding against a zero
// denominator.
func Speedup(baseCycles, newCycles int64) float64 {
	if newCycles == 0 {
		return 0
	}
	return float64(baseCycles) / float64(newCycles)
}
