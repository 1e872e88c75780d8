package hostobs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests", "route", "/v1/run")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same (family, labels) returns the same instance.
	if again := r.Counter("reqs_total", "requests", "route", "/v1/run"); again != c {
		t.Fatal("counter lookup did not return the existing instance")
	}
	entries := int64(7)
	r.GaugeFunc("entries", "resident entries", func() int64 { return entries })
	entries -= 2 // a gauge reads its callback at export, not at registration
	r.GaugeFunc("live", "computed", func() int64 { return 42 })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`reqs_total{route="/v1/run"} 5`,
		"entries 5",
		"live 42",
		"# TYPE reqs_total counter",
		"# TYPE entries gauge",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("prometheus output missing %q:\n%s", want, buf.String())
		}
	}
}

func TestHistogramBucketsMonotone(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{
		500 * time.Nanosecond, // below the first bound
		3 * time.Microsecond,
		2 * time.Millisecond,
		700 * time.Millisecond,
		2 * time.Minute, // beyond the last bound → +Inf
	} {
		h.Observe(d)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	cum := h.Cumulative()
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("cumulative buckets not monotone at %d: %v", i, cum)
		}
	}
	if last := cum[len(cum)-1]; last != 5 {
		t.Fatalf("+Inf bucket = %d, want total 5", last)
	}
	if s := h.SumSeconds(); s < 120 || s > 121 {
		t.Fatalf("sum = %v s, want ≈120.7", s)
	}
}

// TestHistogramBoundaryLandsInLEBucket pins le semantics on every
// bound: an observation exactly on LatencyBuckets[i] counts in bucket
// i, not i+1. The binary search needs the bounds strictly increasing.
func TestHistogramBoundaryLandsInLEBucket(t *testing.T) {
	for i, b := range LatencyBuckets {
		if i > 0 && b <= LatencyBuckets[i-1] {
			t.Fatalf("LatencyBuckets not strictly increasing at %d: %v", i, LatencyBuckets)
		}
		var h Histogram
		h.ObserveSeconds(b)
		cum := h.Cumulative()
		if cum[i] != 1 || (i > 0 && cum[i-1] != 0) {
			t.Fatalf("observation of %vs missed its le bucket %d: %v", b, i, cum)
		}
	}
}

// TestStableOrderAcrossScrapes pins the export-determinism contract:
// two scrapes of an unchanged registry are byte-identical, regardless
// of registration order.
func TestStableOrderAcrossScrapes(t *testing.T) {
	r := NewRegistry()
	// Register in deliberately unsorted order.
	r.Counter("zeta_total", "z", "tier", "miss")
	r.Counter("alpha_total", "a")
	r.Counter("zeta_total", "z", "tier", "disk")
	r.Histogram("mid_seconds", "m", "route", "/b")
	r.Histogram("mid_seconds", "m", "route", "/a")

	var a, b bytes.Buffer
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two scrapes of an unchanged registry differ")
	}
	// Families sorted by name, series by labels.
	out := a.String()
	ia := strings.Index(out, "alpha_total")
	im := strings.Index(out, "mid_seconds")
	iz := strings.Index(out, "zeta_total")
	if !(ia < im && im < iz) {
		t.Fatalf("families not sorted: alpha@%d mid@%d zeta@%d\n%s", ia, im, iz, out)
	}
	if d, m := strings.Index(out, `tier="disk"`), strings.Index(out, `tier="miss"`); !(d >= 0 && d < m) {
		t.Fatalf("series not sorted by labels: disk@%d miss@%d", d, m)
	}
}

// TestPrometheusTextWellFormed checks every non-comment line is
// `name{labels} value` with a parseable value — the shape the CI
// scrape job asserts end-to-end.
func TestPrometheusTextWellFormed(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a", "k", "v").Inc()
	r.GaugeFunc("g", "g", func() int64 { return -3 })
	r.Histogram("h_seconds", "h", "route", "/x").Observe(time.Second)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("metric line has no value: %q", line)
		}
		name, val := line[:i], line[i+1:]
		if name == "" || val == "" {
			t.Fatalf("malformed metric line: %q", line)
		}
		if strings.Count(name, "{") != strings.Count(name, "}") {
			t.Fatalf("unbalanced labels: %q", line)
		}
		var f float64
		if _, err := fmtSscan(val, &f); err != nil {
			t.Fatalf("unparseable value %q in line %q: %v", val, line, err)
		}
	}
}

func fmtSscan(s string, f *float64) (int, error) {
	var v float64
	n, err := jsonNumberParse(s, &v)
	*f = v
	return n, err
}

func jsonNumberParse(s string, v *float64) (int, error) {
	d := json.NewDecoder(strings.NewReader(s))
	if err := d.Decode(v); err != nil {
		return 0, err
	}
	return 1, nil
}

// TestConcurrentObservation exercises the observation path under the
// race detector the way delta-serve's middleware drives it: every
// request looks its series up by labels, so first uses of one series
// race each other and the scrapes running beside them.
func TestConcurrentObservation(t *testing.T) {
	r := NewRegistry()
	codes := []string{"200", "400", "404", "500"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				code := codes[i%len(codes)]
				r.Counter("n_total", "n", "code", code).Inc()
				r.Histogram("d_seconds", "d", "code", code).Observe(time.Microsecond)
			}
		}()
	}
	// Concurrent scrapes while series are created and observed.
	for i := 0; i < 10; i++ {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	var n, d int64
	for _, code := range codes {
		n += r.Counter("n_total", "n", "code", code).Value()
		d += r.Histogram("d_seconds", "d", "code", code).Count()
	}
	if n != 8000 || d != 8000 {
		t.Fatalf("lost observations: counter=%d hist=%d", n, d)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter family as a gauge did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("x_total", "x")
	r.GaugeFunc("x_total", "x", func() int64 { return 0 })
}
