package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"testing"
)

const repoRoot = ".."

// TestSmokeEveryWorkload runs every workload at its smallest size, end
// to end and per layer, and checks that nothing failed and that the
// printed summary names exactly the metrics BENCHMARK.json declares.
func TestSmokeEveryWorkload(t *testing.T) {
	bf, err := loadBenchFile(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	for _, trace := range []bool{false, true} {
		for _, w := range bf.Workloads {
			c := &runCtx{root: repoRoot, trace: trace, minPasses: 1, smoke: true}
			r, err := bf.runWorkload(w.Name, c)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, trace, err)
			}
			if !r.Correct || r.Failed != 0 {
				t.Errorf("%s (trace %v): %d of %d ops failed: %v", w.Name, trace, r.Failed, r.Attempted, r.Errors)
			}
			var out bytes.Buffer
			if err := bf.print(&out, r); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var summary struct {
				Correct   bool                       `json:"correct"`
				Attempted int                        `json:"attempted"`
				Failed    int                        `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
				t.Fatalf("%s: last line is not the JSON summary: %v", w.Name, err)
			}
			var got, want []string
			for n := range summary.Metrics {
				got = append(got, n)
			}
			for _, d := range bf.defs(trace) {
				want = append(want, d.Name)
			}
			sort.Strings(got)
			sort.Strings(want)
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s (trace %v): emitted %v, BENCHMARK.json declares %v", w.Name, trace, got, want)
			}
			if trace {
				checkProfileShares(t, w.Name, r)
			}
		}
	}
}

// checkProfileShares: the prof.* shares of a traced run partition the
// sampled CPU time.
func checkProfileShares(t *testing.T, name string, r *result) {
	var sum float64
	for n, v := range r.Values {
		if strings.HasPrefix(n, "prof.") {
			sum += v
		}
	}
	if sum != 0 && math.Abs(sum-1) > 1e-9 {
		t.Errorf("%s: prof.* shares sum to %v, want 1", name, sum)
	}
}

func TestEveryDeclaredWorkloadIsImplemented(t *testing.T) {
	bf, err := loadBenchFile(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, %d are implemented", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
}

func TestRefusesAmbientEnvironment(t *testing.T) {
	t.Setenv("TASKSTREAM_POLICY", "static")
	var stderr bytes.Buffer
	if code := run([]string{"-root", repoRoot, "-workload", "sim-task"}, io.Discard, &stderr); code != 2 {
		t.Errorf("exit code %d with TASKSTREAM_POLICY set, want 2", code)
	}
	if !strings.Contains(stderr.String(), "TASKSTREAM_POLICY") {
		t.Errorf("stderr does not name the variable: %q", stderr.String())
	}
}

func TestRefusesOtherWindow(t *testing.T) {
	bf, err := loadBenchFile(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	other := fmt.Sprint(bf.RunSeconds + 1)
	if code := run([]string{"-root", repoRoot, "-workload", "sim-task", "-seconds", other}, io.Discard, io.Discard); code != 2 {
		t.Errorf("exit code %d with -seconds %s, run_seconds %d: want 2", code, other, bf.RunSeconds)
	}
}
