package main

import (
	"math"
	"testing"
)

func TestTailHasTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		wantValue float64
		wantPct   float64
		wantOK    bool
	}{
		{n: 10, wantOK: false},
		{n: 11, wantValue: 1, wantPct: 100.0 / 11, wantOK: true},
		{n: 100, wantValue: 90, wantPct: 90, wantOK: true},
		{n: 2000, wantValue: 1990, wantPct: 99.5, wantOK: true},
	} {
		v, pct, ok := tail(seq(tc.n))
		if ok != tc.wantOK || v != tc.wantValue || math.Abs(pct-tc.wantPct) > 1e-9 {
			t.Errorf("tail(1..%d) = %v, p%v, %v; want %v, p%v, %v", tc.n, v, pct, ok, tc.wantValue, tc.wantPct, tc.wantOK)
		}
		if ok {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond != tailBeyond {
				t.Errorf("tail(1..%d): %d samples beyond, want %d", tc.n, beyond, tailBeyond)
			}
		}
	}
}

func TestTailMSFallsBackToMaximum(t *testing.T) {
	r := &result{}
	l := latencies{3, 1, 2}
	if got := l.tailMS(r, "x"); got != 3 || len(r.Notes) != 1 {
		t.Errorf("tailMS of 3 samples = %v with notes %q, want the maximum 3 and one note", got, r.Notes)
	}
}

// The expected values are what Python's statistics.median and
// statistics.quantiles(xs, n=4) return.
func TestMedianAndQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{1, 2, 3, 4}, 2.5, 1.25, 3.75},
		{[]float64{7, 1, 5, 3, 9, 11, 2, 4, 8, 6}, 5.5, 2.75, 8.25},
	} {
		q1, q3 := quartiles(tc.xs)
		if m := median(tc.xs); m != tc.med || q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("%v: median %v quartiles %v %v, want %v %v %v", tc.xs, m, q1, q3, tc.med, tc.q1, tc.q3)
		}
	}
}
