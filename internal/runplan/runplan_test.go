package runplan

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taskstream/internal/baseline"
	"taskstream/internal/config"
	"taskstream/internal/core"
	"taskstream/internal/hostobs"
	"taskstream/internal/obs"
	"taskstream/internal/workload"
)

// histSpec is the cheapest suite workload under the delta variant —
// the test fixture for runner behavior.
func histSpec() Spec {
	return ForVariant(*workload.ByName("hist"), baseline.Delta, config.Default8())
}

func TestSpecKeyIdentity(t *testing.T) {
	a, b := histSpec(), histSpec()
	if a.Key() != b.Key() {
		t.Fatalf("equal specs produced different keys:\n%s\n%s", a.Key(), b.Key())
	}
	// Every axis of the spec must reach the key.
	other := histSpec()
	other.Workload.Name = "hist2"
	if other.Key() == a.Key() {
		t.Error("workload name does not affect the key")
	}
	other = histSpec()
	other.Config.Lanes = 4
	if other.Key() == a.Key() {
		t.Error("config does not affect the key")
	}
	other = histSpec()
	other.Opts.Hints = core.HintNone
	if other.Key() == a.Key() {
		t.Error("options do not affect the key")
	}
	// Variants must never alias: static and delta configure different
	// machines for the same workload.
	if ForVariant(*workload.ByName("hist"), baseline.Static, config.Default8()).Key() == a.Key() {
		t.Error("static and delta variants share a key")
	}
}

// oracleFiles hold every simulated result the repository commits:
// the experiment tables and the byte-exact dynamic and static policy
// goldens.
var oracleFiles = []string{
	"../../bench_results.txt",
	"../baseline/testdata/default_policy_golden.txt",
	"../baseline/testdata/static_policy_golden.txt",
}

// oracleDigests records, per ModelRevision, the SHA-256 of the
// oracleFiles concatenated in order. r2 changed only the key encoding
// (Options.CacheKey lost its fast-forward field), not a result, so it
// records r1's digest.
var oracleDigests = map[string]string{
	"r2": "e5cf5155b8b77006aee2aceb70aecce7aff394e819e689d344827bb7b566d207",
}

// TestModelRevisionTripwire ties ModelRevision to the committed
// results: a change that moves any simulated result changes the
// digest, and must bump ModelRevision so persistent stores filled by
// the earlier model stop answering.
func TestModelRevisionTripwire(t *testing.T) {
	h := sha256.New()
	for _, f := range oracleFiles {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	got := hex.EncodeToString(h.Sum(nil))
	want, ok := oracleDigests[ModelRevision]
	if !ok {
		t.Fatalf("ModelRevision %q has no recorded oracle digest; record %s in oracleDigests", ModelRevision, got)
	}
	if got != want {
		t.Fatalf("simulated results changed (oracle sha256 %s, recorded %s under %q): bump ModelRevision and record the new digest",
			got, want, ModelRevision)
	}
}

func TestSpecKeyIgnoresTrace(t *testing.T) {
	a := histSpec()
	b := histSpec()
	b.Opts.Obs = obs.New(0)
	if a.Key() != b.Key() {
		t.Error("obs sink leaked into the cache key")
	}
	if a.Cacheable() == false {
		t.Error("unobserved spec should be cacheable")
	}
	if b.Cacheable() {
		t.Error("observed spec must not be cacheable")
	}
}

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner()
	r.SetDisabled(false)
	first, err := r.Run(histSpec())
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Run(histSpec())
	if err != nil {
		t.Fatal(err)
	}
	if first.Cycles != second.Cycles {
		t.Fatalf("cached run disagrees: %d vs %d cycles", first.Cycles, second.Cycles)
	}
	c := r.Counters()
	if c.Misses != 1 || c.Hits != 1 || c.Bypasses != 0 {
		t.Fatalf("counters = %+v, want 1 miss + 1 hit", c)
	}

	// Copy-out: mutating a handed-out report must not corrupt the cache.
	second.LaneBusy[0] = -1
	second.Stats.SetVal("cycles", -1)
	third, err := r.Run(histSpec())
	if err != nil {
		t.Fatal(err)
	}
	if third.LaneBusy[0] == -1 || third.Stats.Get("cycles") == -1 {
		t.Fatal("mutation of a returned report reached the cached result")
	}
}

func TestRunnerSingleFlight(t *testing.T) {
	r := NewRunner()
	r.SetDisabled(false)
	const n = 8
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
		t.Fatalf("%d misses for one spec requested %d times concurrently, want exactly 1", c.Misses, n)
	}
	if c.Hits+c.Dedups != n-1 {
		t.Fatalf("hits %d + dedups %d != %d", c.Hits, c.Dedups, n-1)
	}
}

func TestRunnerDisabledAndTraceBypass(t *testing.T) {
	r := NewRunner()
	r.SetDisabled(true)
	if _, err := r.Run(histSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(histSpec()); err != nil {
		t.Fatal(err)
	}
	if c := r.Counters(); c.Bypasses != 2 || c.Misses != 0 || c.Hits != 0 {
		t.Fatalf("disabled runner counters = %+v, want 2 bypasses only", c)
	}

	r.SetDisabled(false)
	s := histSpec()
	s.Opts.Obs = obs.New(0)
	if _, err := r.Run(s); err != nil {
		t.Fatal(err)
	}
	if c := r.Counters(); c.Bypasses != 3 {
		t.Fatalf("traced spec did not bypass the cache: %+v", c)
	}
}

func TestRunnerDoesNotMemoizeErrors(t *testing.T) {
	r := NewRunner()
	r.SetDisabled(false)
	bad := histSpec()
	bad.Config.Lanes = 0 // fails config validation inside the machine build
	_, err1 := r.Run(bad)
	if err1 == nil {
		t.Fatal("invalid config ran successfully")
	}
	if !strings.Contains(err1.Error(), "hist") {
		t.Fatalf("error not attributed to the workload: %v", err1)
	}
	// The failed flight must be evicted, not memoized: a retry
	// re-executes (and here fails again, since the spec is always bad).
	_, err2 := r.Run(bad)
	if err2 == nil {
		t.Fatal("retry of a failing spec reported success")
	}
	if c := r.Counters(); c.Misses != 2 || c.Hits != 0 {
		t.Fatalf("failing spec counters = %+v, want 2 misses (retry re-executed)", c)
	}
	if r.Len() != 0 {
		t.Fatalf("failed flight left %d poisoned cache entries", r.Len())
	}
}

// TestRunnerRetriesAfterTransientFailure pins the error-poisoning fix
// end to end: a spec that fails exactly once (injected verification
// failure) must succeed on the next Run instead of serving the stale
// error forever.
func TestRunnerRetriesAfterTransientFailure(t *testing.T) {
	r := NewRunner()
	r.SetDisabled(false)
	var failures atomic.Int32
	failures.Store(1)
	s := histSpec()
	inner := s.Workload.Build
	s.Workload = workload.NamedBuilder{
		Name: "hist-transient",
		Build: func() *workload.Workload {
			w := inner()
			if failures.Add(-1) >= 0 {
				w.Verify = func() error { return errors.New("injected transient fault") }
			}
			return w
		},
	}
	if _, err := r.Run(s); err == nil {
		t.Fatal("injected failure did not surface")
	}
	rep, err := r.Run(s)
	if err != nil {
		t.Fatalf("retry after transient failure still fails: %v", err)
	}
	if rep.Cycles <= 0 {
		t.Fatalf("retry produced an empty report: %+v", rep)
	}
	// And the recovered result is now cached like any other.
	if _, err := r.Run(s); err != nil {
		t.Fatal(err)
	}
	if c := r.Counters(); c.Misses != 2 || c.Hits != 1 {
		t.Fatalf("counters = %+v, want 2 misses (fail + retry) and 1 hit", c)
	}
}

// TestRunnerPanicReleasesWaiters pins the waiter-deadlock fix: a
// panicking workload builder must fail the request (and its deduped
// waiters) with an error instead of leaving f.done unclosed forever.
func TestRunnerPanicReleasesWaiters(t *testing.T) {
	r := NewRunner()
	r.SetDisabled(false)
	started := make(chan struct{})
	release := make(chan struct{})
	s := histSpec()
	s.Workload = workload.NamedBuilder{
		Name: "hist-panics",
		Build: func() *workload.Workload {
			close(started)
			<-release // hold the flight open until a waiter dedups onto it
			panic("injected builder panic")
		},
	}

	errc := make(chan error, 2)
	go func() {
		_, err := r.Run(s)
		errc <- err
	}()
	<-started
	go func() {
		_, err := r.Run(s)
		errc <- err
	}()
	// Wait for the second request to park on the flight, then let the
	// builder panic.
	deadline := time.After(5 * time.Second)
	for r.Counters().Dedups == 0 {
		select {
		case <-deadline:
			t.Fatal("second request never deduped onto the flight")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(release)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errc:
			if err == nil || !strings.Contains(err.Error(), "panic") {
				t.Fatalf("request %d: got %v, want a panic-converted error", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("waiter deadlocked on a panicked flight")
		}
	}
	// The panicked flight is evicted like any failure: a retry with a
	// healthy builder under the same name must execute and succeed.
	if r.Len() != 0 {
		t.Fatalf("panicked flight left %d cache entries", r.Len())
	}
}

// fakeStore is an in-memory Store for hook tests.
type fakeStore struct {
	mu    sync.Mutex
	m     map[string]core.Report
	loads int
	saves int
}

func newFakeStore() *fakeStore { return &fakeStore{m: make(map[string]core.Report)} }

func (fs *fakeStore) Load(key string) (core.Report, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.loads++
	rep, ok := fs.m[key]
	return rep.Clone(), ok
}

func (fs *fakeStore) Save(key string, rep core.Report) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.saves++
	fs.m[key] = rep.Clone()
}

func TestRunnerSecondLevelStore(t *testing.T) {
	fs := newFakeStore()
	r := NewRunner()
	r.SetDisabled(false)
	r.SetStore(fs)

	rep, src, err := r.RunInfo(histSpec())
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceExecuted {
		t.Fatalf("cold run source = %v, want miss", src)
	}
	if fs.saves != 1 {
		t.Fatalf("store saves = %d, want 1", fs.saves)
	}

	// In-memory hit wins before the store is consulted.
	loadsBefore := fs.loads
	_, src, err = r.RunInfo(histSpec())
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceMemory || fs.loads != loadsBefore {
		t.Fatalf("warm run source = %v (loads %d→%d), want memory with no store load",
			src, loadsBefore, fs.loads)
	}

	// Dropping the in-memory entry falls back to the store, not a
	// re-execution.
	r.Evict(histSpec().Key())
	rep2, src, err := r.RunInfo(histSpec())
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceDisk {
		t.Fatalf("post-evict source = %v, want disk", src)
	}
	if rep2.Cycles != rep.Cycles {
		t.Fatalf("store round-trip changed the result: %d vs %d cycles", rep2.Cycles, rep.Cycles)
	}
	c := r.Counters()
	if c.Misses != 1 || c.DiskHits != 1 {
		t.Fatalf("counters = %+v, want 1 miss + 1 disk hit", c)
	}
}

func TestRunnerReset(t *testing.T) {
	r := NewRunner()
	r.SetDisabled(false)
	if _, err := r.Run(histSpec()); err != nil {
		t.Fatal(err)
	}
	r.Reset()
	if c := r.Counters(); c != (Counters{}) {
		t.Fatalf("counters after Reset = %+v", c)
	}
	if _, err := r.Run(histSpec()); err != nil {
		t.Fatal(err)
	}
	if c := r.Counters(); c.Misses != 1 || c.Hits != 0 {
		t.Fatalf("counters after Reset+Run = %+v, want a fresh miss", c)
	}
}

// TestInstrumentHostReconciles pins the single-source-of-truth
// contract: a /metrics scrape of an instrumented runner and a
// Counters() snapshot report the same tier tallies, and the latency
// histograms record exactly one observation per resolution.
func TestInstrumentHostReconciles(t *testing.T) {
	r := NewRunner()
	r.SetDisabled(false)
	reg := hostobs.NewRegistry()
	r.InstrumentHost(reg)

	if _, err := r.Run(histSpec()); err != nil { // miss
		t.Fatal(err)
	}
	if _, err := r.Run(histSpec()); err != nil { // memory hit
		t.Fatal(err)
	}
	traced := histSpec()
	traced.Opts.Obs = obs.New(0)
	if _, _, err := r.RunInfo(traced); err != nil { // bypass
		t.Fatal(err)
	}

	c := r.Counters()
	if c.Misses != 1 || c.Hits != 1 || c.Bypasses != 1 {
		t.Fatalf("counters = %+v, want 1 miss + 1 hit + 1 bypass", c)
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	scrape := buf.String()
	for _, want := range []string{
		`runner_resolves_total{tier="miss"} 1`,
		`runner_resolves_total{tier="memory"} 1`,
		`runner_resolves_total{tier="bypass"} 1`,
		`runner_resolves_total{tier="disk"} 0`,
		`runner_resolves_total{tier="dedup"} 0`,
		`runner_memory_entries 1`,
		`runner_resolve_seconds_count{tier="miss"} 1`,
		`runner_resolve_seconds_count{tier="memory"} 1`,
		`runner_resolve_seconds_count{tier="bypass"} 1`,
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q:\n%s", want, scrape)
		}
	}

	// Counter identity survives Reset: the registry holds the runner's
	// own instances, so the scrape tracks the snapshot after zeroing.
	r.Reset()
	buf.Reset()
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `runner_resolves_total{tier="miss"} 0`) {
		t.Fatalf("scrape after Reset still shows stale counts:\n%s", buf.String())
	}
}
