package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"taskstream/internal/baseline"
	"taskstream/internal/config"
	"taskstream/internal/core"
	"taskstream/internal/runplan"
	"taskstream/internal/store"
	"taskstream/internal/workload"
)

// The serve-mixed traffic: two closed-loop clients send POST /v1/run
// to an in-process server with two simulation workers, in rounds with
// a fixed mix. Hot requests repeat the suite specs, which the memory
// tier answers; disk requests touch specs pre-filled into the disk
// store before the server started; miss requests name specs never seen
// before, which the server simulates.
const (
	serveClients = 2
	serveWorkers = 2
	roundHot     = 90
	roundDisk    = 5
	roundMiss    = 5
	// diskPool is how many distinct specs are pre-filled on disk, enough
	// for every disk request of a 60 s window to be a first touch. Should
	// a run outlast it, the benchmark evicts each disk-tier answer from
	// the server's memory tier, so a second touch reads the disk again.
	diskPool = 1024
)

// cfgSpec is a suite workload on a non-default machine: the disk and
// miss requests use cheap workloads at lane and channel counts no hot
// spec uses, so they never collide with the memory tier.
type cfgSpec struct {
	name            string
	variant         baseline.Variant
	lanes, channels int
}

var (
	diskBases = []cfgSpec{
		{"hist", baseline.Static, 16, 4}, {"join", baseline.Delta, 4, 4},
		{"gemm", baseline.Delta, 16, 2}, {"stencil", baseline.Static, 4, 8},
	}
	missBases = []cfgSpec{
		{"hist", baseline.Delta, 4, 2}, {"join", baseline.Static, 16, 8},
		{"gemm", baseline.Static, 4, 8}, {"stencil", baseline.Delta, 16, 2},
	}
)

// Distinct requests for the same simulation differ only in their cycle
// budget, which enters the spec's cache key but not its result: every
// budget here is far above any run's cycles.
const (
	diskBudget = int64(1) << 40
	missBudget = int64(1) << 41
)

// servedSpec is one simulation the server may be asked for, with the
// report a local baseline.RunCfg run produced for it.
type servedSpec struct {
	label string
	delta bool
	wire  runplan.WireSpec
	rep   core.Report
	want  []byte // core.EncodeReport(rep)
}

func newServedSpec(nb workload.NamedBuilder, v baseline.Variant, cfg config.Config) (*servedSpec, error) {
	spec := runplan.ForVariant(nb, v, cfg)
	ws, err := spec.Wire()
	if err != nil {
		return nil, err
	}
	label := fmt.Sprintf("%s/%s/%dl/%dch", nb.Name, v, cfg.Lanes, cfg.DRAM.Channels)
	w := nb.Build()
	rep, err := baseline.RunCfg(spec.Config, spec.Opts, w.Prog, w.Storage)
	if err == nil {
		err = w.Verify()
	}
	if err != nil {
		return nil, fmt.Errorf("reference run %s: %w", label, err)
	}
	want, err := core.EncodeReport(rep)
	if err != nil {
		return nil, err
	}
	return &servedSpec{label, v == baseline.Delta, ws, rep, want}, nil
}

func cfgSpecs(bases []cfgSpec) ([]*servedSpec, error) {
	var out []*servedSpec
	for _, b := range bases {
		nb := workload.ByName(b.name)
		if nb == nil {
			return nil, fmt.Errorf("unknown workload %q", b.name)
		}
		cfg := config.Default8().WithLanes(b.lanes)
		cfg.DRAM.Channels = b.channels
		s, err := newServedSpec(*nb, b.variant, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// withBudget returns the spec's wire form under a distinct cycle budget.
func (s *servedSpec) withBudget(budget int64) runplan.WireSpec {
	ws := s.wire
	ws.Opts.MaxCycles = budget
	return ws
}

// serveEnv is one started server over a pre-filled store directory.
type serveEnv struct {
	dir    string
	disk   *store.DiskStore
	runner *runplan.Runner
	srv    *store.Server
	hs     *http.Server
	url    string
	served chan error
}

// prefill creates a store directory holding the disk pool, as a
// daemon's earlier life would have left it.
func prefill(root string, pool []*servedSpec) (dir string, err error) {
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	if dir, err = os.MkdirTemp(base, "serve-"); err != nil {
		return "", err
	}
	d, err := store.Open(dir, 0)
	if err != nil {
		os.RemoveAll(dir)
		return "", err
	}
	for k := 0; k < diskPool; k++ {
		s := pool[k%len(pool)]
		spec, err := s.withBudget(diskBudget + int64(k)).Spec()
		if err != nil {
			os.RemoveAll(dir)
			return "", err
		}
		d.Save(spec.Key(), s.rep)
	}
	if n := d.Len(); n != diskPool {
		os.RemoveAll(dir)
		return "", fmt.Errorf("pre-fill stored %d of %d entries", n, diskPool)
	}
	return dir, nil
}

// restart does what a restarted delta-serve does: opens the store in
// dir, builds a new runner and server over it, listens on loopback and
// answers its first request.
func restart(dir string) (*serveEnv, error) {
	e := &serveEnv{dir: dir, runner: runplan.NewRunner(), served: make(chan error, 1)}
	var err error
	if e.disk, err = store.Open(dir, 0); err != nil {
		return nil, err
	}
	e.srv = store.NewServer(e.runner, e.disk, serveWorkers)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.url = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: e.srv}
	go func() { e.served <- e.hs.Serve(ln) }()
	resp, err := http.Get(e.url + "/v1/stats")
	if err != nil {
		e.close()
		return nil, err
	}
	resp.Body.Close()
	return e, nil
}

// close stops the server and waits for it.
func (e *serveEnv) close() {
	e.hs.Close()
	<-e.served
}

// request is one POST /v1/run and what came back.
type request struct {
	spec *servedSpec
	body []byte

	lat    time.Duration
	tier   string
	report []byte
	err    error
}

// lockedBuffer is the server's request log sink.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// take returns what was logged and empties the buffer.
func (b *lockedBuffer) take() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := append([]byte(nil), b.buf.Bytes()...)
	b.buf.Reset()
	return out
}

// timedStore times the disk store's loads and saves for the per-layer
// run; it is installed as the runner's second level only then.
type timedStore struct {
	inner      runplan.Store
	mu         sync.Mutex
	load, save latencies
}

func (t *timedStore) Load(key string) (core.Report, bool) {
	t0 := time.Now()
	rep, ok := t.inner.Load(key)
	d := time.Since(t0)
	if ok {
		t.mu.Lock()
		t.load.add(d)
		t.mu.Unlock()
	}
	return rep, ok
}

func (t *timedStore) Save(key string, rep core.Report) {
	t0 := time.Now()
	t.inner.Save(key, rep)
	d := time.Since(t0)
	t.mu.Lock()
	t.save.add(d)
	t.mu.Unlock()
}

// medians returns the median load and save times. The server's
// goroutines append under mu, and only the response over TCP orders
// them before this read, so it takes mu too.
func (t *timedStore) medians() (load, save float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.load.p50(), t.save.p50()
}

// send runs reqs through serveClients closed-loop clients. A disk-tier
// answer evicts its spec from the memory tier, so the spec is again
// only on disk.
func (e *serveEnv) send(hc *http.Client, reqs []*request, tr *tracer) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				q := reqs[i]
				t0 := time.Now()
				key := q.do(hc, e.url)
				if tr != nil {
					tr.record(tr.id(), 0, "serve.request "+q.tier, t0, time.Now())
				}
				if q.tier == "disk" {
					e.runner.Evict(key)
				}
			}
		}()
	}
	wg.Wait()
}

// do posts the request and records latency, tier and report. The
// latency covers the round trip and decoding the response envelope.
func (q *request) do(hc *http.Client, url string) (key string) {
	t0 := time.Now()
	resp, err := hc.Post(url+"/v1/run", "application/json", bytes.NewReader(q.body))
	if err != nil {
		q.err = err
		return ""
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	var rr store.RunResponse
	if err == nil {
		err = json.Unmarshal(b, &rr)
	}
	q.lat = time.Since(t0)
	q.tier, q.report = rr.Cached, rr.Report
	switch {
	case err != nil:
		q.err = err
	case rr.Error != "":
		q.err = errors.New(rr.Error)
	case resp.StatusCode != http.StatusOK:
		q.err = fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return rr.Key
}

// check verifies a served report: it decodes, and it is byte for byte
// the report the local reference run encoded.
func (q *request) check() error {
	if q.err != nil {
		return fmt.Errorf("%s: %w", q.spec.label, q.err)
	}
	rep, err := core.DecodeReport(q.report)
	if err != nil {
		return fmt.Errorf("%s: %w", q.spec.label, err)
	}
	if rep.Cycles != q.spec.rep.Cycles || !bytes.Equal(q.report, q.spec.want) {
		return fmt.Errorf("%s: served report (%d cycles) differs from the local run (%d cycles)",
			q.spec.label, rep.Cycles, q.spec.rep.Cycles)
	}
	return nil
}

func newRequest(s *servedSpec, ws runplan.WireSpec) (*request, error) {
	body, err := json.Marshal(store.RunRequest{Spec: ws})
	return &request{spec: s, body: body}, err
}

func runServeMixed(c *runCtx) (*result, error) {
	r := newResult("serve-mixed", c)
	var hot []*servedSpec
	suite := workload.Suite()
	if c.smoke {
		suite = nil
		for _, n := range smokeSet {
			suite = append(suite, *workload.ByName(n))
		}
	}
	for _, nb := range suite {
		for _, v := range pair {
			s, err := newServedSpec(nb, v, config.Default8())
			if err != nil {
				return nil, err
			}
			hot = append(hot, s)
		}
	}
	diskSpecs, err := cfgSpecs(diskBases)
	if err != nil {
		return nil, err
	}
	missSpecs, err := cfgSpecs(missBases)
	if err != nil {
		return nil, err
	}

	// The store is filled once, untimed, as a daemon's earlier life
	// would have left it; set-up is the restart over it. Timing the
	// fill's thousand file writes would measure the disk's noise.
	dir, err := prefill(c.root, diskSpecs)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e, setup, err := setupSeconds(setupReps, func() (*serveEnv, error) { return restart(dir) },
		func(e *serveEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	defer e.close()
	r.set("setup_s", setup)
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	defer hc.CloseIdleConnections()

	// Warm-up: the first serving of each hot spec is simulated by the
	// server and must match the local run.
	var warm []*request
	for _, s := range hot {
		q, err := newRequest(s, s.wire)
		if err != nil {
			return nil, err
		}
		warm = append(warm, q)
	}
	e.send(hc, warm, nil)
	for _, q := range warm {
		r.Attempted++
		if err := q.check(); err != nil {
			r.opFailed(err)
		}
	}

	rng := rand.New(rand.NewSource(int64(c.seed)))
	hotN, diskN, missN := roundHot, roundDisk, roundMiss
	if c.smoke {
		hotN, diskN, missN = 18, 1, 1
	}
	var (
		diskNext, missNext int64
		ops                opStats
		tracedMemory       latencies
		missCycles         int64
		missSeconds        float64
		reportBytes, nrep  int64
		unexpected         int
		handler            = map[string]*latencies{"memory": {}, "disk": {}, "miss": {}}
		logBuf             lockedBuffer
		l                  = newLayers()
		ts                 = &timedStore{inner: e.disk}
	)
	before := e.runner.Counters()
	round := func() ([]*request, error) {
		var reqs []*request
		add := func(s *servedSpec, ws runplan.WireSpec) error {
			q, err := newRequest(s, ws)
			reqs = append(reqs, q)
			return err
		}
		for i := 0; i < hotN; i++ {
			s := hot[rng.Intn(len(hot))]
			if err := add(s, s.wire); err != nil {
				return nil, err
			}
		}
		for i := 0; i < diskN; i++ {
			k := diskNext % diskPool
			diskNext++
			s := diskSpecs[k%int64(len(diskSpecs))]
			if err := add(s, s.withBudget(diskBudget+k)); err != nil {
				return nil, err
			}
		}
		for i := 0; i < missN; i++ {
			s := missSpecs[missNext%int64(len(missSpecs))]
			if err := add(s, s.withBudget(missBudget+missNext)); err != nil {
				return nil, err
			}
			missNext++
		}
		rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
		return reqs, nil
	}
	pt, err := runPasses(c, l, func(traced bool) (int, error) {
		reqs, err := round()
		if err != nil {
			return 0, err
		}
		var tr *tracer
		if traced {
			tr = l.tr
			e.srv.SetRequestLog(&logBuf, "json")
			e.runner.SetStore(ts)
		}
		e.send(hc, reqs, tr)
		if traced {
			e.srv.SetRequestLog(nil, "")
			e.runner.SetStore(e.disk)
			if err := parseRequestLog(logBuf.take(), handler); err != nil {
				return 0, err
			}
		}
		for _, q := range reqs {
			r.Attempted++
			if err := q.check(); err != nil {
				r.opFailed(err)
				continue
			}
			reportBytes += int64(len(q.report))
			nrep++
			switch q.tier {
			case "memory", "disk", "miss":
			default:
				unexpected++
				continue
			}
			ops.add(q.tier, q.lat)
			if traced && q.tier == "memory" {
				tracedMemory.add(q.lat)
			}
			if q.tier == "miss" {
				missCycles += q.spec.rep.Cycles
				missSeconds += q.lat.Seconds()
			}
		}
		return len(reqs), nil
	})
	if err != nil {
		return nil, err
	}
	after := e.runner.Counters()
	if unexpected > 0 {
		r.notef("%d answers came from neither the memory, disk nor miss tier", unexpected)
	}

	pt.emitRate(r)
	ops.emit(r)
	if missSeconds > 0 {
		r.set("sim_cycles_per_s", float64(missCycles)/missSeconds)
	}
	r.notef("%d rounds of %d requests from %d clients; %d memory, %d disk, %d miss answers",
		len(pt.all), hotN+diskN+missN, serveClients, len(ops.class("memory")), len(ops.class("disk")), len(ops.class("miss")))
	var reps []runRep
	for _, s := range hot {
		reps = append(reps, runRep{s.wire.Workload, s.delta, s.rep, s.wire.Config.DRAM.Channels})
	}
	emitOutcome(r, reps)

	if c.trace {
		for _, t := range []string{"memory", "disk", "miss"} {
			lat := ops.class(t)
			r.set("serve."+t+"_ms_p50", lat.p50())
			r.set("serve."+t+"_ms_tail", lat.tailMS(r, "serve."+t+"_ms_tail"))
			r.set("serve.handler_ms_p50."+t, handler[t].p50())
		}
		r.set("serve.http_ms_p50", tracedMemory.p50()-handler["memory"].p50())
		if nrep > 0 {
			r.set("serve.report_kb", float64(reportBytes)/1e3/float64(nrep))
		}
		load, save := ts.medians()
		r.set("store.load_ms_p50", load)
		r.set("store.save_ms_p50", save)
		st := e.disk.Stats()
		r.set("store.entries", float64(st.Entries))
		r.set("store.mb", float64(st.Bytes)/1e6)
		r.set("core.encode_ms_p50", encodeMS(hot))
		emitRunplan(r, after.Misses-before.Misses, after.Hits-before.Hits,
			after.Dedups-before.Dedups, after.DiskHits-before.DiskHits)
		emitSimCounts(r, reps)
		l.emit(r)
		pt.emitOverhead(r)
	}
	return r, nil
}

// parseRequestLog adds each /v1/run line's handler time to its tier.
func parseRequestLog(b []byte, handler map[string]*latencies) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	for dec.More() {
		var line struct {
			Route  string  `json:"route"`
			MS     float64 `json:"ms"`
			Cached string  `json:"cached"`
		}
		if err := dec.Decode(&line); err != nil {
			return fmt.Errorf("request log: %w", err)
		}
		if h, ok := handler[line.Cached]; ok && line.Route == "/v1/run" {
			*h = append(*h, line.MS)
		}
	}
	return nil
}

// encodeMS is the median time core.EncodeReport takes on the hot
// reports, each encoded encodeReps times.
func encodeMS(specs []*servedSpec) float64 {
	const encodeReps = 5
	var lat latencies
	for _, s := range specs {
		for i := 0; i < encodeReps; i++ {
			t0 := time.Now()
			core.EncodeReport(s.rep) // cannot fail: newServedSpec encoded this report already
			lat.add(time.Since(t0))
		}
	}
	return lat.p50()
}

// emitRunplan reports the run cache's accounting.
func emitRunplan(r *result, misses, hits, dedups, disk int64) {
	r.set("runplan.misses", float64(misses))
	r.set("runplan.hits", float64(hits))
	r.set("runplan.dedups", float64(dedups))
	r.set("runplan.disk_hits", float64(disk))
	if total := misses + hits + dedups + disk; total > 0 {
		r.set("runplan.hit_frac", float64(hits+dedups+disk)/float64(total))
	}
}
