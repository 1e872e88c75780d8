package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"taskstream/internal/baseline"
	"taskstream/internal/config"
	"taskstream/internal/core"
	"taskstream/internal/runplan"
	"taskstream/internal/stats"
	"taskstream/internal/workload"
)

// histSpec is the cheapest suite workload under the delta variant.
func histSpec() runplan.Spec {
	return runplan.ForVariant(*workload.ByName("hist"), baseline.Delta, config.Default8())
}

func testReport(cycles int64) core.Report {
	set := stats.NewSet()
	set.Add("tasks_run", cycles/2)
	set.Add("dram_bytes", cycles*3)
	return core.Report{Cycles: cycles, LaneBusy: []int64{cycles, cycles / 2}, Stats: set}
}

func mustOpen(t *testing.T, dir string, max int64) *DiskStore {
	t.Helper()
	d, err := Open(dir, max)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDiskStoreRoundTrip(t *testing.T) {
	d := mustOpen(t, t.TempDir(), 0)
	want := testReport(1000)
	d.Save("k1", want)
	got, ok := d.Load("k1")
	if !ok {
		t.Fatal("saved entry not loadable")
	}
	if got.Cycles != want.Cycles || got.Stats.Get("dram_bytes") != want.Stats.Get("dram_bytes") {
		t.Fatalf("round trip changed the report: %+v vs %+v", got, want)
	}
	if _, ok := d.Load("other"); ok {
		t.Fatal("unknown key loaded")
	}
	st := d.Stats()
	if st.Entries != 1 || st.Saves != 1 || st.LoadHits != 1 || st.Loads != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDiskStorePersistsAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, 0)
	d.Save("k1", testReport(111))
	d.Save("k2", testReport(222))

	d2 := mustOpen(t, dir, 0)
	if d2.Len() != 2 {
		t.Fatalf("reopened store has %d entries, want 2", d2.Len())
	}
	got, ok := d2.Load("k2")
	if !ok || got.Cycles != 222 {
		t.Fatalf("reopened store lost k2: ok=%v rep=%+v", ok, got)
	}
}

// TestDiskStoreDetectsCorruption pins the integrity contract: a
// truncated or bit-flipped entry is detected by the re-hash, dropped,
// and reported as a miss — the runner then re-executes rather than
// serving garbage.
func TestDiskStoreDetectsCorruption(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(b []byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bit-flipped", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			// Flip a bit inside the report payload, not the framing.
			c[len(c)/2] ^= 0x08
			return c
		}},
		{"not-json", func(b []byte) []byte { return []byte("}}junk{{") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d := mustOpen(t, dir, 0)
			d.Save("victim", testReport(999))

			files, err := os.ReadDir(dir)
			if err != nil || len(files) != 1 {
				t.Fatalf("files=%v err=%v", files, err)
			}
			path := filepath.Join(dir, files[0].Name())
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.corrupt(b), 0o644); err != nil {
				t.Fatal(err)
			}

			if rep, ok := d.Load("victim"); ok {
				t.Fatalf("corrupt entry served as %+v", rep)
			}
			if st := d.Stats(); st.Corrupt != 1 || st.Entries != 0 {
				t.Fatalf("stats after corruption = %+v", st)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("corrupt entry file not removed")
			}
		})
	}
}

// TestRunnerHealsCorruptStore drives the corruption path end to end:
// the runner's disk fallback finds a corrupt entry, gets a miss, and
// re-executes — producing the same answer a clean store would have.
func TestRunnerHealsCorruptStore(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, 0)
	r := runplan.NewRunner()
	r.SetDisabled(false)
	r.SetStore(d)

	clean, err := r.Run(histSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the one stored entry, then force the runner back to disk.
	files, _ := os.ReadDir(dir)
	if len(files) != 1 {
		t.Fatalf("expected 1 entry, got %d", len(files))
	}
	path := filepath.Join(dir, files[0].Name())
	b, _ := os.ReadFile(path)
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	r.Evict(histSpec().Key())

	healed, err := r.Run(histSpec())
	if err != nil {
		t.Fatal(err)
	}
	if healed.Cycles != clean.Cycles {
		t.Fatalf("healed run disagrees: %d vs %d cycles", healed.Cycles, clean.Cycles)
	}
	c := r.Counters()
	if c.Misses != 2 || c.DiskHits != 0 {
		t.Fatalf("counters = %+v, want 2 misses (corruption forced re-execution)", c)
	}
	// The re-execution re-populated the store with a good entry.
	if _, ok := d.Load(histSpec().Key()); !ok {
		t.Fatal("store not repopulated after healing")
	}
}

// TestRunnerIgnoresEarlierModelEntries pins the model revision in the
// content address: a store filled by a build of an earlier model holds
// entries under that build's key form, which had no revision prefix.
// When pipeline stopped reusing lane tuples, its sort run moved from
// 79,915 to 69,121 cycles; the earlier entry must miss, not answer.
func TestRunnerIgnoresEarlierModelEntries(t *testing.T) {
	spec := runplan.ForVariant(*workload.ByName("sort"), baseline.Delta, config.Default8())
	spec.Opts.Policy = core.PolicyPipeline
	d := mustOpen(t, t.TempDir(), 0)
	d.Save(spec.Workload.Name+"|"+spec.Config.Canonical()+"|"+spec.Opts.CacheKey(), testReport(79915))

	r := runplan.NewRunner()
	r.SetDisabled(false)
	r.SetStore(d)
	rep, src, err := r.RunInfo(spec)
	if err != nil {
		t.Fatal(err)
	}
	if src != runplan.SourceExecuted || rep.Cycles != 69121 {
		t.Fatalf("got %d cycles from %q, want 69121 from %q", rep.Cycles, src, runplan.SourceExecuted)
	}
}

// TestDiskStoreLRU pins the size bound: saves beyond the bound evict
// the least-recently-used entries, and a Load refreshes recency.
func TestDiskStoreLRU(t *testing.T) {
	// Probe one entry's on-disk size with an unbounded store.
	dir := t.TempDir()
	probe := mustOpen(t, dir, 0)
	probe.Save("probe", testReport(1))
	size := probe.Bytes()
	if size <= 0 {
		t.Fatal("probe entry has no size")
	}
	os.Remove(filepath.Join(dir, fileFor("probe")))

	// Bound at ~3 entries.
	d3 := mustOpen(t, t.TempDir(), 3*size+size/2)
	for i := 0; i < 3; i++ {
		d3.Save(fmt.Sprintf("k%d", i), testReport(int64(i+1)))
	}
	if d3.Len() != 3 {
		t.Fatalf("store evicted below its bound: %d entries", d3.Len())
	}
	// Touch k0 so k1 is now least recently used, then overflow.
	if _, ok := d3.Load("k0"); !ok {
		t.Fatal("k0 missing")
	}
	d3.Save("k3", testReport(4))
	if d3.Bytes() > 3*size+size/2 {
		t.Fatalf("store over bound: %d > %d", d3.Bytes(), 3*size+size/2)
	}
	if _, ok := d3.Load("k1"); ok {
		t.Fatal("LRU entry k1 survived eviction")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := d3.Load(k); !ok {
			t.Fatalf("recently used entry %s evicted", k)
		}
	}
	if ev := d3.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

// TestParallelRunsSingleMiss pins the tentpole concurrency contract:
// N concurrent Runs of the same uncached spec over a disk-backed
// runner cost exactly one execution.
func TestParallelRunsSingleMiss(t *testing.T) {
	d := mustOpen(t, t.TempDir(), 0)
	r := runplan.NewRunner()
	r.SetDisabled(false)
	r.SetStore(d)

	const n = 16
	reps := make([]core.Report, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[i], errs[i] = r.Run(histSpec())
		}()
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if reps[i].Cycles != reps[0].Cycles {
			t.Fatalf("request %d saw %d cycles, request 0 saw %d", i, reps[i].Cycles, reps[0].Cycles)
		}
	}
	c := r.Counters()
	if c.Misses != 1 {
		t.Fatalf("%d concurrent requests cost %d executions, want exactly 1", n, c.Misses)
	}
	if st := d.Stats(); st.Saves != 1 {
		t.Fatalf("store saves = %d, want 1", st.Saves)
	}
}
