// Package runplan makes one simulation a declarative, comparable
// value. A Spec names everything that determines a run's result —
// which workload to build, the machine configuration, and the
// execution-model options — and canonically fingerprints it, so two
// experiments that describe the same simulation describe *equal*
// specs. The memoizing Runner exploits that: each distinct spec
// executes at most once process-wide, concurrent requests for an
// in-flight spec wait on it instead of duplicating it (single-flight),
// and every caller receives a deep copy of the cached report so no
// experiment can mutate another's input. The experiment harness
// resolves all of its runs through the shared Runner, which is what
// eliminates the suite's duplicated full-suite sweeps (DESIGN.md §12).
//
// A Runner can also be layered over a second-level Store (SetStore) —
// a persistent, typically disk-backed cache keyed by the same content
// addresses — which is how delta-serve survives restarts with a warm
// cache (DESIGN.md §15, internal/store).
package runplan

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"taskstream/internal/baseline"
	"taskstream/internal/config"
	"taskstream/internal/core"
	"taskstream/internal/hostobs"
	"taskstream/internal/workload"
)

// Spec declares one simulation: build Workload fresh, wire a machine
// from Config and Opts, run it, verify the results. The workload's
// Name is part of the spec's identity, so it must canonically
// determine what Build constructs — two builders may share a name only
// if they build equivalent workloads (the suite's parameterized
// builders, e.g. "spmv-g64", encode their parameters in the name).
type Spec struct {
	Workload workload.NamedBuilder
	Config   config.Config
	Opts     core.Options
}

// ForVariant is the common constructor: the spec realizing one
// baseline variant of a workload on the given datapath, exactly as
// baseline.Run would configure it.
func ForVariant(nb workload.NamedBuilder, v baseline.Variant, cfg config.Config) Spec {
	mcfg, opts := v.Configure(cfg)
	return Spec{Workload: nb, Config: mcfg, Opts: opts}
}

// ModelRevision names the simulated machine model a result was
// computed by. It prefixes every Spec.Key, so a persistent Store filled
// by a build of an earlier model misses instead of serving results
// this model no longer produces; store.DiskStore also names its entry
// files with it, so it can delete another model's entries on open.
// Bump it when a simulated result or the key encoding changes. A
// result is any line of bench_results.txt or of a policy golden, and
// TestModelRevisionTripwire fails until such a bump is made; no test
// catches a change to Spec.Key's encoding.
const ModelRevision = "r2"

// Key returns the spec's content address: the model revision, the
// workload name, and the canonical encodings of config and normalized
// options. No maps are ranged anywhere on this path, so the key is
// stable across processes and runs.
func (s Spec) Key() string {
	return ModelRevision + "|" + s.Workload.Name + "|" + s.Config.Canonical() + "|" + s.Opts.CacheKey()
}

// Cacheable reports whether the spec may be memoized; observed runs
// (Opts.Obs != nil) have an observable side channel and always
// execute fresh.
func (s Spec) Cacheable() bool { return s.Opts.Cacheable() }

// execute runs the spec from scratch and verifies the workload's
// results — the uncached path every cache entry is filled from. A
// panic anywhere in the workload builder or the simulation is
// converted into an error: the runner serves arbitrary (possibly
// inferred, possibly hostile) specs from a long-lived daemon, where
// one bad program must fail its request, not the process — and must
// never leave single-flight waiters parked on a flight that will
// never complete.
func (s Spec) execute() (rep core.Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			rep = core.Report{}
			err = fmt.Errorf("%s: panic during execution: %v", s.Workload.Name, p)
		}
	}()
	w := s.Workload.Build()
	rep, rerr := baseline.RunCfg(s.Config, s.Opts, w.Prog, w.Storage)
	if rerr != nil {
		return core.Report{}, fmt.Errorf("%s: %w", s.Workload.Name, rerr)
	}
	if verr := w.Verify(); verr != nil {
		return core.Report{}, fmt.Errorf("%s: verification failed: %w", s.Workload.Name, verr)
	}
	return rep, nil
}

// Store is a second-level cache layered under the in-memory flight
// map: a persistent content-addressed map from Spec.Key() to Report.
// Load returns (report, true) on a hit; a store that detects a
// corrupt entry must return a miss (the runner then re-executes)
// rather than surface garbage. Save may evict other entries (LRU,
// size bounds) and may fail silently — the store is a cache, never
// the source of truth. Implementations must be safe for concurrent
// use; the runner guarantees at most one Load/Save per key is in
// flight at a time (single-flight), but different keys proceed
// concurrently.
type Store interface {
	Load(key string) (core.Report, bool)
	Save(key string, rep core.Report)
}

// Source says where a Run's answer came from — the provenance
// delta-serve reports to its clients.
type Source int

const (
	// SourceExecuted: the request executed the simulation (a miss).
	SourceExecuted Source = iota
	// SourceMemory: answered from a completed in-memory entry.
	SourceMemory
	// SourceDisk: answered by the second-level store.
	SourceDisk
	// SourceDeduped: waited on a concurrent in-flight execution.
	SourceDeduped
	// SourceBypass: executed fresh because the spec is uncacheable or
	// the cache is disabled.
	SourceBypass
)

// String renders the source the way the delta-serve API reports it.
func (s Source) String() string {
	switch s {
	case SourceExecuted:
		return "miss"
	case SourceMemory:
		return "memory"
	case SourceDisk:
		return "disk"
	case SourceDeduped:
		return "dedup"
	case SourceBypass:
		return "bypass"
	default:
		return "unknown"
	}
}

// Counters is a snapshot of a Runner's accounting.
type Counters struct {
	// Misses counts specs executed by the runner (cache fills).
	Misses int64
	// Hits counts requests answered from a completed cache entry.
	Hits int64
	// Dedups counts requests that found their spec already in flight
	// and waited for it instead of re-running it.
	Dedups int64
	// Bypasses counts uncacheable or cache-disabled executions.
	Bypasses int64
	// DiskHits counts requests answered by the second-level store.
	DiskHits int64
}

// String renders the snapshot the way delta-bench reports it; the
// disk-hit column only appears when a second-level store produced any.
func (c Counters) String() string {
	s := fmt.Sprintf("%d runs, %d hits, %d dedups, %d bypasses",
		c.Misses, c.Hits, c.Dedups, c.Bypasses)
	if c.DiskHits > 0 {
		s += fmt.Sprintf(", %d disk hits", c.DiskHits)
	}
	return s
}

// flight is one cache entry: closed done publishes rep/err.
type flight struct {
	done chan struct{}
	rep  core.Report
	err  error
}

// Runner executes specs, memoizing by content address. The zero value
// is not usable; call NewRunner. Safe for concurrent use.
type Runner struct {
	mu      sync.Mutex
	flights map[string]*flight

	storeMu sync.RWMutex
	store   Store

	disabled atomic.Bool

	// Tier counters are hostobs primitives so one atomic serves both
	// Counters() snapshots and a /metrics scrape (InstrumentHost adopts
	// these same instances — the reconciliation contract delta-serve's
	// CI job asserts). Indexing is by Source.
	misses   hostobs.Counter
	hits     hostobs.Counter
	dedups   hostobs.Counter
	bypasses hostobs.Counter
	diskHits hostobs.Counter

	// lat[src] is the wall-clock resolve latency distribution of
	// requests answered with that provenance — always recorded (three
	// atomic adds per Run), named for export only via InstrumentHost.
	lat [5]hostobs.Histogram
}

// NewRunner returns an empty, memoizing runner.
func NewRunner() *Runner {
	return &Runner{flights: make(map[string]*flight)}
}

// counterFor maps a provenance to its tier counter.
func (r *Runner) counterFor(src Source) *hostobs.Counter {
	switch src {
	case SourceMemory:
		return &r.hits
	case SourceDisk:
		return &r.diskHits
	case SourceDeduped:
		return &r.dedups
	case SourceBypass:
		return &r.bypasses
	default:
		return &r.misses
	}
}

// InstrumentHost names the runner's tier counters and resolve-latency
// histograms in reg for export:
//
//	runner_resolves_total{tier="memory"|"disk"|"dedup"|"miss"|"bypass"}
//	runner_resolve_seconds{tier=...}  (histogram)
//	runner_memory_entries             (gauge, live Len())
//
// The registered counters are the Runner's own instances, so a
// /metrics scrape and a Counters() snapshot can never disagree.
func (r *Runner) InstrumentHost(reg *hostobs.Registry) {
	const (
		cname = "runner_resolves_total"
		chelp = "Run requests resolved, by cache tier (provenance)."
		hname = "runner_resolve_seconds"
		hhelp = "Wall-clock latency of Run requests, by cache tier."
	)
	for _, src := range []Source{SourceExecuted, SourceMemory, SourceDisk, SourceDeduped, SourceBypass} {
		reg.RegisterCounter(cname, chelp, r.counterFor(src), "tier", src.String())
		reg.RegisterHistogram(hname, hhelp, &r.lat[src], "tier", src.String())
	}
	reg.GaugeFunc("runner_memory_entries", "In-memory run-cache entries (completed or in flight).",
		func() int64 { return int64(r.Len()) })
}

// Shared is the process-wide runner the experiment harness resolves
// every spec through; sharing it is what dedups runs across
// concurrently executing experiments.
var Shared = NewRunner()

// SetDisabled turns memoization off (every Run executes fresh) or back
// on. Already-cached results are kept and served again once
// re-enabled.
func (r *Runner) SetDisabled(v bool) { r.disabled.Store(v) }

// Disabled reports whether memoization is off.
func (r *Runner) Disabled() bool { return r.disabled.Load() }

// SetStore installs (or, with nil, removes) the second-level store
// consulted on in-memory misses and filled on successful executions.
func (r *Runner) SetStore(s Store) {
	r.storeMu.Lock()
	defer r.storeMu.Unlock()
	r.store = s
}

func (r *Runner) secondLevel() Store {
	r.storeMu.RLock()
	defer r.storeMu.RUnlock()
	return r.store
}

// Reset drops every cached in-memory result and zeroes the counters
// (the second-level store, if any, is untouched). Not safe to call
// while runs are in flight.
func (r *Runner) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flights = make(map[string]*flight)
	r.misses.Reset()
	r.hits.Reset()
	r.dedups.Reset()
	r.bypasses.Reset()
	r.diskHits.Reset()
	for i := range r.lat {
		r.lat[i].Reset()
	}
}

// Evict removes the in-memory entry for key, reporting whether one
// existed. Safe at any time: waiters on an in-flight entry hold their
// own pointer to it and still complete; only future Runs re-execute.
// This is the eviction-safe surface delta-serve uses to bound the
// daemon's resident set.
func (r *Runner) Evict(key string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.flights[key]
	delete(r.flights, key)
	return ok
}

// Len reports the number of in-memory entries (completed or in
// flight).
func (r *Runner) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.flights)
}

// Counters returns a snapshot of the runner's accounting.
func (r *Runner) Counters() Counters {
	return Counters{
		Misses:   r.misses.Value(),
		Hits:     r.hits.Value(),
		Dedups:   r.dedups.Value(),
		Bypasses: r.bypasses.Value(),
		DiskHits: r.diskHits.Value(),
	}
}

// Run resolves the spec: from the cache when an equal spec already
// completed, by waiting when one is in flight, by executing otherwise.
// Concurrent requesters of a failing spec all receive its error, but
// the failure is not memoized — the failed entry is evicted once its
// waiters are released, so a later Run retries (one transient fault
// must not poison the key forever). The returned report is always a
// deep copy; callers own it outright.
func (r *Runner) Run(s Spec) (core.Report, error) {
	rep, _, err := r.RunInfo(s)
	return rep, err
}

// RunInfo is Run plus provenance: where the answer came from. Every
// resolution is timed into the per-tier latency histogram (host-side
// accounting only; see InstrumentHost).
func (r *Runner) RunInfo(s Spec) (core.Report, Source, error) {
	t0 := time.Now()
	rep, src, err := r.runInfo(s)
	r.lat[src].Observe(time.Since(t0))
	return rep, src, err
}

func (r *Runner) runInfo(s Spec) (core.Report, Source, error) {
	if r.Disabled() || !s.Cacheable() {
		r.bypasses.Add(1)
		rep, err := s.execute()
		return rep, SourceBypass, err
	}
	key := s.Key()
	r.mu.Lock()
	f, ok := r.flights[key]
	if !ok {
		f = &flight{done: make(chan struct{})}
		r.flights[key] = f
		r.mu.Unlock()
		src := r.fill(key, f, s)
		return f.rep.Clone(), src, f.err
	}
	r.mu.Unlock()
	select {
	case <-f.done:
		r.hits.Add(1)
		return f.rep.Clone(), SourceMemory, f.err
	default:
		r.dedups.Add(1)
		<-f.done
		return f.rep.Clone(), SourceDeduped, f.err
	}
}

// fill completes a freshly created flight: from the second-level store
// when it holds the key, by executing otherwise (populating the store
// on success). done is always closed — execute converts panics into
// errors, so no waiter can park forever — and a failed flight is
// evicted after release so the next Run retries.
func (r *Runner) fill(key string, f *flight, s Spec) Source {
	src := SourceExecuted
	func() {
		defer close(f.done)
		if st := r.secondLevel(); st != nil {
			if rep, ok := st.Load(key); ok {
				r.diskHits.Add(1)
				f.rep = rep
				src = SourceDisk
				return
			}
		}
		r.misses.Add(1)
		f.rep, f.err = s.execute()
		if f.err == nil {
			if st := r.secondLevel(); st != nil {
				st.Save(key, f.rep)
			}
		}
	}()
	if f.err != nil {
		r.mu.Lock()
		// Only evict our own flight: a concurrent Run may already have
		// replaced the slot after an earlier eviction.
		if r.flights[key] == f {
			delete(r.flights, key)
		}
		r.mu.Unlock()
	}
	return src
}
