package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSetOrderAndValues(t *testing.T) {
	s := NewSet()
	s.Add("b", 2)
	s.Add("a", 1)
	s.Add("b", 3)
	if got := s.Get("b"); got != 5 {
		t.Fatalf("b = %d, want 5", got)
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "b" || names[1] != "a" {
		t.Fatalf("names = %v, want [b a] (first-use order)", names)
	}
	s.SetVal("a", 100)
	if s.Get("a") != 100 {
		t.Fatalf("a = %d, want 100", s.Get("a"))
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{4, 1, 9, 4} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 18 {
		t.Fatalf("count=%d sum=%d, want 4 18", h.Count(), h.Sum())
	}
	if h.Mean() != 4.5 {
		t.Fatalf("mean = %v, want 4.5", h.Mean())
	}
	if h.Max() != 9 {
		t.Fatalf("max = %d, want 9", h.Max())
	}
	// population stddev of {4,1,9,4}: mean 4.5, squared devs .25+12.25+20.25+.25=33 → sqrt(8.25)
	want := math.Sqrt(8.25)
	if math.Abs(h.Stddev()-want) > 1e-12 {
		t.Fatalf("stddev = %v, want %v", h.Stddev(), want)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Max() != 0 || h.Stddev() != 0 || h.CV() != 0 {
		t.Fatal("empty histogram should return zeros everywhere")
	}
}

func TestImbalance(t *testing.T) {
	if got := Imbalance([]int64{10, 10, 10, 10}); got != 1.0 {
		t.Fatalf("balanced imbalance = %v, want 1.0", got)
	}
	if got := Imbalance([]int64{40, 0, 0, 0}); got != 4.0 {
		t.Fatalf("worst-case imbalance = %v, want 4.0", got)
	}
	if got := Imbalance(nil); got != 0 {
		t.Fatalf("nil imbalance = %v, want 0", got)
	}
	if got := Imbalance([]int64{0, 0}); got != 0 {
		t.Fatalf("all-zero imbalance = %v, want 0", got)
	}
}

func TestImbalanceProperty(t *testing.T) {
	// Property: imbalance is always ≥ 1 for nonzero work and ≤ worker count.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		w := make([]int64, len(raw))
		var sum int64
		for i, v := range raw {
			w[i] = int64(v)
			sum += int64(v)
		}
		im := Imbalance(w)
		if sum == 0 {
			return im == 0
		}
		return im >= 1.0-1e-9 && im <= float64(len(w))+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeomean(t *testing.T) {
	if got, skipped := Geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 || skipped != 0 {
		t.Fatalf("geomean(2,8) = %v (skipped %d), want 4 (skipped 0)", got, skipped)
	}
	if got, skipped := Geomean([]float64{3, 3, 3}); math.Abs(got-3) > 1e-12 || skipped != 0 {
		t.Fatalf("geomean(3,3,3) = %v (skipped %d), want 3 (skipped 0)", got, skipped)
	}
	if got, skipped := Geomean(nil); got != 0 || skipped != 0 {
		t.Fatalf("geomean(nil) = %v (skipped %d), want 0 (skipped 0)", got, skipped)
	}
}

func TestGeomeanReportsSkipped(t *testing.T) {
	// Non-positive values cannot silently inflate the mean: they are
	// excluded from the product AND reported, so callers can fail loudly.
	got, skipped := Geomean([]float64{0, -1, 4})
	if math.Abs(got-4) > 1e-12 {
		t.Fatalf("geomean with junk = %v, want 4", got)
	}
	if skipped != 2 {
		t.Fatalf("skipped = %d, want 2", skipped)
	}
	if got, skipped := Geomean([]float64{0, -3}); got != 0 || skipped != 2 {
		t.Fatalf("all-junk geomean = %v (skipped %d), want 0 (skipped 2)", got, skipped)
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(200, 100); got != 2.0 {
		t.Fatalf("speedup = %v, want 2.0", got)
	}
	if got := Speedup(200, 0); got != 0 {
		t.Fatalf("speedup w/ zero denominator = %v, want 0", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "workload", "cycles", "speedup")
	tb.AddRow("spmv", "1234", "2.10x")
	tb.AddRow("bfs", "99", "3.00x")
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), out)
	}
	// All data lines align: same column start for "cycles" numbers.
	if !strings.Contains(lines[1], "workload") || !strings.Contains(lines[3], "spmv") {
		t.Fatalf("unexpected layout:\n%s", out)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d, want 2", tb.NumRows())
	}
}

func TestTableRowTooLongRejected(t *testing.T) {
	tb := NewTable("x", "a")
	if err := tb.AddRow("1", "2"); err == nil {
		t.Fatal("want error for oversized row")
	}
	if tb.NumRows() != 0 {
		t.Fatalf("rejected row was appended: NumRows = %d", tb.NumRows())
	}
	if err := tb.AddRow("1"); err != nil {
		t.Fatalf("exact-width row rejected: %v", err)
	}
}

func TestFormatters(t *testing.T) {
	if F(1.234) != "1.23" || Fx(2.5) != "2.50x" || I(7) != "7" || Pct(0.125) != "12.5%" {
		t.Fatal("formatter output changed")
	}
	cases := []struct {
		v    int64
		want string
	}{{512, "512B"}, {2048, "2.00KiB"}, {3 << 20, "3.00MiB"}, {5 << 30, "5.00GiB"}}
	for _, c := range cases {
		if got := Bytes(c.v); got != c.want {
			t.Errorf("Bytes(%d) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestSetClone(t *testing.T) {
	s := NewSet()
	s.Add("a", 1)
	s.Add("b", 2)
	c := s.Clone()
	c.Add("a", 10)
	c.Add("z", 1)
	if s.Get("a") != 1 || s.Get("z") != 0 {
		t.Errorf("clone aliases the original: a=%d z=%d", s.Get("a"), s.Get("z"))
	}
	if got, want := strings.Join(c.Names(), ","), "a,b,z"; got != want {
		t.Errorf("clone order %q, want %q", got, want)
	}
	if s.String() == c.String() {
		t.Error("mutated clone renders identically to the original")
	}
	var nilSet *Set
	if nilSet.Clone() != nil {
		t.Error("nil set should clone to nil")
	}
}
