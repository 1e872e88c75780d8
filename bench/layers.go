package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share its id as their parent.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Safe for concurrent
// use.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so a parent can be named before it ends.
func (t *tracer) id() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) record(id, parent int64, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id, parent, name, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
}

// coverage returns, over every span that has children, the smallest
// share of its duration that its children cover, or 0 if no span has
// any. Children of one parent never overlap here: the benchmark calls
// layers one at a time.
func (t *tracer) coverage() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[int64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	if len(child) == 0 {
		return 0
	}
	lowest := 1.0
	for _, s := range t.spans {
		if c, ok := child[s.ID]; ok && s.End > s.Start {
			lowest = min(lowest, float64(c)/float64(s.End-s.Start))
		}
	}
	return lowest
}

// rtCounters is a snapshot of the Go runtime's cumulative accounting.
type rtCounters struct {
	allocBytes, mallocs, numGC uint64
	gcCPU, totalCPU            float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRT() rtCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := append([]metrics.Sample(nil), cpuSamples...)
	metrics.Read(s)
	return rtCounters{
		allocBytes: m.TotalAlloc,
		mallocs:    m.Mallocs,
		numGC:      uint64(m.NumGC),
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
	}
}

func (a rtCounters) minus(b rtCounters) rtCounters {
	return rtCounters{a.allocBytes - b.allocBytes, a.mallocs - b.mallocs, a.numGC - b.numGC,
		a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a rtCounters) plus(b rtCounters) rtCounters {
	return rtCounters{a.allocBytes + b.allocBytes, a.mallocs + b.mallocs, a.numGC + b.numGC,
		a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

// layers gathers what a traced pass measures besides its spans: the
// runtime counters and the CPU profile, both bracketing traced passes
// only, so the untraced passes in between show what tracing costs.
type layers struct {
	tr      *tracer
	rt      rtCounters
	ops     int
	prof    profileShares
	profBuf bytes.Buffer
	before  rtCounters
}

func newLayers() *layers {
	return &layers{tr: newTracer(), prof: profileShares{}}
}

func (l *layers) begin() error {
	l.profBuf.Reset()
	if err := pprof.StartCPUProfile(&l.profBuf); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	l.before = readRT()
	return nil
}

func (l *layers) end(ops int) error {
	l.rt = l.rt.plus(readRT().minus(l.before))
	l.ops += ops
	pprof.StopCPUProfile()
	return l.prof.add(l.profBuf.Bytes())
}

// emit reports the runtime and profile metrics, per operation.
func (l *layers) emit(r *result) {
	r.spans = l.tr.spans
	r.set("bench.span_cover_frac", l.tr.coverage())
	if l.ops > 0 {
		n := float64(l.ops)
		r.set("go.alloc_mb_per_op", float64(l.rt.allocBytes)/1e6/n)
		r.set("go.allocs_per_op", float64(l.rt.mallocs)/n)
		r.set("go.gc_per_op", float64(l.rt.numGC)/n)
	}
	if l.rt.totalCPU > 0 {
		r.set("go.gc_cpu_frac", l.rt.gcCPU/l.rt.totalCPU)
	}
	l.prof.emit(r)
}

// passTimes are the wall times of a run's timed passes, and the rate at
// which each completed operations.
type passTimes struct {
	all, traced, untraced []float64 // seconds
	opsPerSecond          []float64
}

// runPasses calls pass until the measuring window is used: a pass
// starts only if, at the median pass time so far, it would end inside
// the window, and at least c.minPasses run regardless. In a per-layer
// run every other pass, starting with the first, is traced; the
// untraced passes between them give the tracing overhead. pass returns
// how many operations it completed.
func runPasses(c *runCtx, l *layers, pass func(traced bool) (int, error)) (passTimes, error) {
	var pt passTimes
	start := time.Now()
	for i := 0; ; i++ {
		if i >= c.minPasses && time.Since(start).Seconds()+median(pt.all) > c.seconds {
			break
		}
		traced := c.trace && i%2 == 0
		if traced {
			if err := l.begin(); err != nil {
				return pt, err
			}
		}
		t0 := time.Now()
		ops, err := pass(traced)
		d := time.Since(t0).Seconds()
		if traced {
			if perr := l.end(ops); perr != nil && err == nil {
				err = perr
			}
		}
		if err != nil {
			return pt, err
		}
		pt.all = append(pt.all, d)
		pt.opsPerSecond = append(pt.opsPerSecond, float64(ops)/d)
		if traced {
			pt.traced = append(pt.traced, d)
		} else {
			pt.untraced = append(pt.untraced, d)
		}
	}
	return pt, nil
}

// emitRate reports ops_per_s, the median over passes of each pass's
// rate.
func (pt passTimes) emitRate(r *result) {
	r.set("ops_per_s", median(pt.opsPerSecond))
}

// emitOverhead reports how much slower traced passes ran than
// untraced ones, by median.
func (pt passTimes) emitOverhead(r *result) {
	if len(pt.traced) == 0 || len(pt.untraced) == 0 {
		r.notef("tracing overhead: needs a traced and an untraced pass")
		return
	}
	r.set("bench.trace_overhead_frac", median(pt.traced)/median(pt.untraced)-1)
	r.notef("tracing overhead from %d traced and %d untraced passes", len(pt.traced), len(pt.untraced))
}

// setupSeconds runs set-up n times and returns the last set-up, which
// the run uses, and the median duration. discard, when set, releases
// each earlier set-up.
func setupSeconds[T any](n int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < n-1 && discard != nil {
			discard(v)
		}
		last = v
	}
	return last, median(times), nil
}

// setupReps is how many times each run sets up, for a median setup_s.
const setupReps = 5
