package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestVerdicts(t *testing.T) {
	lower := metricDef{Name: "op_ms_p50", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	tight := []float64{99, 100, 100, 100, 101}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, tight, tight, verdictOK},
		{"within bound", lower, tight, scale(tight, 1.05), verdictOK},
		{"slower beyond bound", lower, tight, scale(tight, 1.2), verdictRegression},
		{"faster beyond bound", lower, tight, scale(tight, 0.8), verdictBetter},
		{"higher is better, dropped", higher, tight, scale(tight, 0.8), verdictRegression},
		{"higher is better, rose", higher, tight, scale(tight, 1.2), verdictBetter},
		{"wide spread", lower, []float64{60, 80, 100, 120, 140}, tight, verdictUnresolved},
		{"wide spread, every run better", lower, []float64{150, 200, 250, 300, 350}, tight, verdictBetter},
	} {
		if _, got := verdict(tc.d, summarize(tc.a), summarize(tc.b)); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareRuns(t *testing.T) {
	bf := &benchFile{
		Workloads: []namedWhy{{Name: "w"}, {Name: "v"}},
		EndToEnd: []metricDef{
			{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: "speedup_geomean", Unit: "x", Better: "higher", Bound: 0.1},
		},
	}
	// runs gives five runs, seeds 1-5, of each workload named: the host
	// metric reads host and the simulated one sim, each a little apart
	// from seed to seed. Within its bound, a 1% move of the simulated
	// one would read ok.
	runs := func(host, sim float64, correct bool, names ...string) []result {
		var rs []result
		for _, n := range names {
			for seed := uint64(1); seed <= 5; seed++ {
				rs = append(rs, result{Workload: n, Seed: seed, Correct: correct, Attempted: 1,
					Values: map[string]float64{"op_ms_p50": host + float64(seed)/100, "speedup_geomean": sim * (1 + float64(seed)/1000)}})
			}
		}
		return rs
	}
	a := runs(10, 1.5, true, "w", "v")
	shifted := runs(10, 1.5, true, "w", "v")
	for i := range shifted {
		shifted[i].Seed += 5
	}
	for _, tc := range []struct {
		name string
		b    []result
		want int
	}{
		{"agree", runs(10, 1.5, true, "w", "v"), 0},
		{"host metric regressed", runs(20, 1.5, true, "w", "v"), 1},
		{"failed run", runs(10, 1.5, false, "w", "v"), 1},
		{"simulated metric moved 1%", runs(10, 1.5*1.01, true, "w", "v"), 1},
		{"no seed in common", shifted, 1},
		{"workload missing", runs(10, 1.5, true, "w"), 1},
		{"undeclared workload", runs(10, 1.5, true, "w", "v", "u"), 1},
	} {
		var out bytes.Buffer
		if got := compareRuns(bf, a, tc.b, &out); got != tc.want {
			t.Errorf("%s: status %d, want %d\n%s", tc.name, got, tc.want, out.String())
		}
		if !strings.Contains(out.String(), "op_ms_p50") {
			t.Errorf("%s: no row for op_ms_p50:\n%s", tc.name, out.String())
		}
	}
	// With no simulated metric to go unpaired, a missing workload still fails.
	hostOnly := &benchFile{Workloads: bf.Workloads, EndToEnd: bf.EndToEnd[:1]}
	var out bytes.Buffer
	if got := compareRuns(hostOnly, a, runs(10, 1.5, true, "w"), &out); got != 1 || !strings.Contains(out.String(), "FAILED: missing") {
		t.Errorf("workload missing, host metrics only: status %d, want 1\n%s", got, out.String())
	}
}

// TestSimulatedMetricsAreDeclared: every metric -compare holds exact is
// an end-to-end metric of BENCHMARK.json.
func TestSimulatedMetricsAreDeclared(t *testing.T) {
	bf, err := loadBenchFile(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	for n := range simulated {
		found := false
		for _, d := range bf.EndToEnd {
			found = found || d.Name == n
		}
		if !found {
			t.Errorf("%s is not an end-to-end metric of BENCHMARK.json", n)
		}
	}
}
