package experiments

import (
	"os"
	"strings"
	"testing"

	"taskstream/internal/runplan"
)

// renderAll regenerates the given experiments at the current settings
// and concatenates their tables exactly as delta-bench prints them.
func renderAll(t *testing.T, regs []Named) string {
	t.Helper()
	var b strings.Builder
	for _, e := range regs {
		r, err := e.Fn()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		b.WriteString(r.Render())
	}
	return b.String()
}

// TestGoldenBenchResults regenerates the full E-suite and compares the
// rendered tables byte-for-byte against the committed
// bench_results.txt (minus its trailing wall-time comment block) — the
// output-stability pin for the run-plan refactor: expressing runs as
// memoized specs must not move a single byte of the evaluation.
func TestGoldenBenchResults(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite regeneration")
	}
	raw, err := os.ReadFile("../../bench_results.txt")
	if err != nil {
		t.Fatal(err)
	}
	golden := string(raw)
	if i := strings.Index(golden, "# ---"); i >= 0 {
		golden = golden[:i]
	}
	got := renderAll(t, Registry())
	if strings.TrimRight(got, "\n") != strings.TrimRight(golden, "\n") {
		t.Fatalf("rendered suite differs from bench_results.txt — regenerate it with "+
			"`go run ./cmd/delta-bench -j 1 > bench_results.txt` if the change is intended\n"+
			"--- got ---\n%s\n--- golden ---\n%s", got, golden)
	}
}

// TestRunCacheOnOffEquality renders a spec-sharing subset with the
// shared run cache enabled and then with it disabled (every spec
// re-executes) and demands byte identity — the copy-out contract: a
// memoized report must be indistinguishable from a fresh simulation.
func TestRunCacheOnOffEquality(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes a suite subset")
	}
	regs := subset(Registry(), "E7", "E9", "E11", "E12")
	cached := renderAll(t, regs)
	wasDisabled := runplan.Shared.Disabled()
	runplan.Shared.SetDisabled(true)
	defer runplan.Shared.SetDisabled(wasDisabled)
	fresh := renderAll(t, regs)
	if cached != fresh {
		t.Fatalf("cache-on output differs from cache-off output:\n--- cached ---\n%s\n--- fresh ---\n%s",
			cached, fresh)
	}
	if cached == "" {
		t.Fatal("empty render")
	}
}

// TestSuitePairSharing pins the dedup the run-plan layer exists for:
// E3, E5, E9, E14 (and E4's static/delta columns) all describe the
// same 18 full-suite pair specs, so after E3 fills the cache the
// others add zero simulations — only hits.
func TestSuitePairSharing(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite pair runs")
	}
	wasDisabled := runplan.Shared.Disabled()
	runplan.Shared.SetDisabled(false)
	defer runplan.Shared.SetDisabled(wasDisabled)
	runplan.Shared.Reset()

	if _, err := E3Speedup(); err != nil {
		t.Fatal(err)
	}
	after3 := runplan.Shared.Counters()
	if after3.Misses != 18 {
		t.Fatalf("E3 executed %d specs, want 18 (9 workloads x static+delta)", after3.Misses)
	}

	if _, err := E5Imbalance(); err != nil {
		t.Fatal(err)
	}
	if _, err := E9Traffic(); err != nil {
		t.Fatal(err)
	}
	if _, err := E14Energy(); err != nil {
		t.Fatal(err)
	}
	c := runplan.Shared.Counters()
	if c.Misses != after3.Misses {
		t.Fatalf("E5/E9/E14 executed %d new simulations, want 0 (all shared with E3)",
			c.Misses-after3.Misses)
	}
	if wantHits := after3.Hits + 3*18; c.Hits != wantHits {
		t.Fatalf("hits = %d, want %d (three experiments x 18 cached pairs)", c.Hits, wantHits)
	}

	// E4 re-uses the pairs for its static and delta columns and only
	// simulates the three intermediate variants: 27 new runs.
	if _, err := E4Ablation(); err != nil {
		t.Fatal(err)
	}
	c2 := runplan.Shared.Counters()
	if got := c2.Misses - c.Misses; got != 27 {
		t.Fatalf("E4 executed %d new simulations, want 27 (9 workloads x 3 intermediate variants)", got)
	}
	if got := c2.Hits - c.Hits; got != 18 {
		t.Fatalf("E4 took %d cache hits, want 18 (its static+delta columns)", got)
	}
}
