package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is statistics.median: the middle value, or the mean of the
// two middle values. It returns 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) with its
// default "exclusive" method, so -compare reads spreads the same way
// an outside check over the same values would. With fewer than two
// values both quartiles equal the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// tailBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const tailBeyond = 10

// tail returns the highest percentile that still has tailBeyond
// samples above it — the (tailBeyond+1)-th largest value — and that
// percentile. ok is false when there are too few samples for any.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	return s[n-1-tailBeyond], 100 * float64(n-tailBeyond) / float64(n), true
}

// geomean is the geometric mean of positive values; 0 when empty.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var l float64
	for _, x := range xs {
		l += math.Log(x)
	}
	return math.Exp(l / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// latencies accumulates durations in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, ms(d)) }

func (l latencies) p50() float64 { return median(l) }

// opStats gathers op latencies by class: a spec, or a cache tier.
type opStats struct {
	all     latencies
	byClass map[string]*latencies
}

func (o *opStats) add(class string, d time.Duration) {
	if o.byClass == nil {
		o.byClass = map[string]*latencies{}
	}
	l, ok := o.byClass[class]
	if !ok {
		l = &latencies{}
		o.byClass[class] = l
	}
	l.add(d)
	o.all.add(d)
}

func (o *opStats) n() int { return len(o.all) }

// class returns one class's latencies; none if it never occurred.
func (o *opStats) class(c string) latencies {
	if l, ok := o.byClass[c]; ok {
		return *l
	}
	return nil
}

// emit reports op_ms_p50_geo, the geometric mean over classes of each
// class's median latency, and op_ms_tail over all ops. A plain median
// of a workload whose ops differ tenfold in size falls in a gap between
// sizes and jumps from run to run; the per-class medians do not.
func (o *opStats) emit(r *result) {
	var medians []float64
	for _, l := range o.byClass {
		medians = append(medians, l.p50())
	}
	r.set("op_ms_p50_geo", geomean(medians))
	r.set("op_ms_tail", o.all.tailMS(r, "op_ms_tail"))
	r.notef("op_ms_p50_geo: geomean of the medians of %d op classes", len(medians))
}

// tailMS is tail() with the percentile and sample count recorded as a
// note, so every reported tail states what it is. With too few samples
// for any tail percentile it reports the maximum and says so.
func (l latencies) tailMS(r *result, name string) float64 {
	v, pct, ok := tail(l)
	if !ok {
		if len(l) == 0 {
			return 0
		}
		r.notef("%s: maximum of %d samples, too few for a tail percentile", name, len(l))
		return slices.Max(l)
	}
	r.notef("%s: p%.1f of %d samples", name, pct, len(l))
	return v
}
