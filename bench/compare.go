package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Verdicts -compare gives one workload's metric. The first four judge a
// host metric against its bound; the last three a simulated one.
const (
	verdictOK         = "ok"
	verdictBetter     = "better"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
	verdictIdentical  = "identical"
	verdictDiffers    = "differs"
	verdictUnpaired   = "unpaired"
)

// simulated names the end-to-end metrics the simulator computes rather
// than the host measures. They are deterministic for a seed: a
// host-only change must leave them identical, so -compare pairs their
// records by seed and fails on any difference. Their BENCHMARK.json
// bounds only cover how far they move from one seed to another.
var simulated = map[string]bool{"speedup_geomean": true, "delta_cycles_geomean": true}

// exactVerdict pairs the records of a and b by seed: every record of a
// seed both sides ran must read the same value. seeds is how many seeds
// were paired; with none, nothing was checked and the verdict is
// unpaired.
func exactVerdict(metric string, a, b []result) (seeds int, v string) {
	bySeed := func(runs []result) map[uint64][]float64 {
		m := map[uint64][]float64{}
		for _, r := range runs {
			if x, ok := r.Values[metric]; ok {
				m[r.Seed] = append(m[r.Seed], x)
			}
		}
		return m
	}
	sa, sb := bySeed(a), bySeed(b)
	v = verdictIdentical
	for seed, va := range sa {
		vb, ok := sb[seed]
		if !ok {
			continue
		}
		seeds++
		for _, x := range append(va, vb...) {
			if x != va[0] {
				v = verdictDiffers
			}
		}
	}
	if seeds == 0 {
		return 0, verdictUnpaired
	}
	return seeds, v
}

// summary is one side's runs of one metric.
type summary struct {
	values         []float64
	median, q1, q3 float64
}

func summarize(values []float64) summary {
	q1, q3 := quartiles(values)
	return summary{values, median(values), q1, q3}
}

// spread is the distance between the quartiles as a share of the median.
func (s summary) spread() float64 {
	if s.median == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.median
}

// verdict judges b against a for a metric with the given direction and
// bound. A metric whose run-to-run spread on either side exceeds the
// bound is unresolved, unless every run of b reads better than every
// run of a.
func verdict(d metricDef, a, b summary) (change float64, v string) {
	worse := func(x, y float64) bool { // x worse than y
		if d.Better == "higher" {
			return x < y
		}
		return x > y
	}
	if a.median != 0 {
		change = (b.median - a.median) / a.median
	}
	loss := change
	if d.Better == "higher" {
		loss = -change
	}
	allBetter := len(a.values) > 0 && len(b.values) > 0
	for _, x := range b.values {
		for _, y := range a.values {
			if !worse(y, x) {
				allBetter = false
			}
		}
	}
	switch {
	case max(a.spread(), b.spread()) > d.Bound:
		if allBetter {
			return change, verdictBetter
		}
		return change, verdictUnresolved
	case loss > d.Bound:
		return change, verdictRegression
	case -loss > d.Bound:
		return change, verdictBetter
	}
	return change, verdictOK
}

// loadRuns reads the end-to-end records of a -json file.
func loadRuns(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			runs = append(runs, r)
		}
	}
	return runs, sc.Err()
}

// runCompare prints, per workload and end-to-end metric, both sides'
// medians and quartiles and a verdict. It fails when any run failed, a
// workload has no run on either side, a host metric regressed or is
// unresolved, or a simulated metric differs or could not be paired.
func runCompare(bf *benchFile, pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := loadRuns(pathA)
	if err == nil {
		var b []result
		if b, err = loadRuns(pathB); err == nil {
			return compareRuns(bf, a, b, stdout)
		}
	}
	fmt.Fprintf(stderr, "bench: %v\n", err)
	return 1
}

func compareRuns(bf *benchFile, a, b []result, w io.Writer) int {
	byWorkload := func(runs []result) map[string][]result {
		m := map[string][]result{}
		for _, r := range runs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	wa, wb := byWorkload(a), byWorkload(b)
	// Every declared workload, then any other a file holds. A workload
	// missing from either side fails: a run that aborted wrote no record.
	var names, extra []string
	declared := map[string]bool{}
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		declared[w.Name] = true
	}
	for _, m := range []map[string][]result{wa, wb} {
		for n := range m {
			if !declared[n] {
				declared[n] = true
				extra = append(extra, n)
			}
		}
	}
	sort.Strings(extra)
	names = append(names, extra...)
	status := 0
	for _, side := range [][]result{a, b} {
		for _, r := range side {
			if !r.Correct || r.Failed > 0 {
				fmt.Fprintf(w, "FAILED run: %s seed %d: %d of %d ops failed\n", r.Workload, r.Seed, r.Failed, r.Attempted)
				status = 1
			}
		}
	}
	fmt.Fprintf(w, "%-12s %-22s %8s  %-34s %-34s %8s %6s  %s\n",
		"workload", "metric", "runs", "a: median [q1, q3]", "b: median [q1, q3]", "change", "bound", "verdict")
	for _, n := range names {
		if len(wa[n]) == 0 || len(wb[n]) == 0 {
			fmt.Fprintf(w, "%-12s FAILED: missing, %d end-to-end runs in a, %d in b\n", n, len(wa[n]), len(wb[n]))
			status = 1
			continue
		}
		for _, d := range bf.EndToEnd {
			values := func(runs []result) []float64 {
				var vs []float64
				for _, r := range runs {
					if v, ok := r.Values[d.Name]; ok {
						vs = append(vs, v)
					}
				}
				return vs
			}
			sa, sb := summarize(values(wa[n])), summarize(values(wb[n]))
			change, v := verdict(d, sa, sb)
			fail := v == verdictRegression || v == verdictUnresolved
			bound := fmt.Sprintf("%5.0f%%", 100*d.Bound)
			if simulated[d.Name] {
				seeds, ev := exactVerdict(d.Name, wa[n], wb[n])
				fail = ev != verdictIdentical
				bound = "exact"
				v = fmt.Sprintf("%s (%d seeds paired)", ev, seeds)
			}
			if fail {
				status = 1
			}
			fmt.Fprintf(w, "%-12s %-22s %3d/%-4d  %-34s %-34s %+7.2f%% %6s  %s\n", n, d.Name,
				len(sa.values), len(sb.values), sa.String(), sb.String(), 100*change, bound, v)
		}
	}
	return status
}

func (s summary) String() string {
	return fmt.Sprintf("%.6g [%.6g, %.6g]", s.median, s.q1, s.q3)
}
