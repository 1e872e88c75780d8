package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"taskstream/internal/core"
	"taskstream/internal/hostobs"
	"taskstream/internal/runplan"

	// The server accepts specs by workload name, so it must know the
	// full name grammar: the suite + parameterized builders (package
	// workload) and the "+inferred" synthesis suffix, which this
	// import registers.
	_ "taskstream/internal/analysis/infer"
)

// Server is the delta-serve HTTP handler: it resolves wire specs
// through a shared runplan.Runner (single-flight, memoizing), layered
// over an optional persistent DiskStore, bounding concurrent
// simulations at workers.
type Server struct {
	runner *runplan.Runner
	disk   *DiskStore
	sem    chan struct{}
	mux    *http.ServeMux

	// Host observability (hostmetrics.go): the metrics registry behind
	// /metrics, the request id sequence, and the optional structured
	// access log.
	host    *hostobs.Registry
	reqSeq  atomic.Int64
	logMu   sync.Mutex
	logW    io.Writer
	logJSON bool
}

// NewServer wires a server over runner. disk may be nil (memory-only
// service); when set it is installed as the runner's second level.
// workers bounds simulations in flight across all requests (<= 0
// means unbounded).
func NewServer(runner *runplan.Runner, disk *DiskStore, workers int) *Server {
	if disk != nil {
		runner.SetStore(disk)
	}
	s := &Server{runner: runner, disk: disk, host: hostobs.NewRegistry()}
	if workers > 0 {
		s.sem = make(chan struct{}, workers)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/run", s.handleRun)
	s.mux.HandleFunc("/v1/suite", s.handleSuite)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	runner.InstrumentHost(s.host)
	if disk != nil {
		s.instrumentDisk()
	}
	return s
}

// ServeHTTP implements http.Handler, routing every request through the
// observation middleware (hostmetrics.go).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.observe(w, r) }

// resolve answers one wire spec through the runner under the worker
// bound. A waiter that dedups onto an in-flight run parks while
// holding its slot; the executing flight always holds its own slot
// and progresses, so the bound cannot deadlock (same argument as the
// harness budget, DESIGN.md §12).
func (s *Server) resolve(ws runplan.WireSpec) RunResponse {
	spec, err := ws.Spec()
	if err != nil {
		return RunResponse{Error: err.Error()}
	}
	if s.sem != nil {
		s.sem <- struct{}{}
		defer func() { <-s.sem }()
	}
	key := spec.Key()
	rep, src, err := s.runner.RunInfo(spec)
	if err != nil {
		return RunResponse{Key: key, Cached: src.String(), Error: err.Error()}
	}
	b, err := core.EncodeReport(rep)
	if err != nil {
		return RunResponse{Key: key, Cached: src.String(), Error: fmt.Sprintf("encode report: %v", err)}
	}
	return RunResponse{Key: key, Cached: src.String(), Report: b}
}

// maxRequestBytes bounds a /v1/run or /v1/suite request body. One
// suite wire spec marshals to about 600 B, so the bound admits batches
// of tens of thousands of specs while keeping one client from making
// the daemon buffer an arbitrarily large JSON document.
const maxRequestBytes = 16 << 20

// decodeRequest decodes r's JSON body into v, reading at most
// maxRequestBytes. On failure it answers the request itself — 413 for
// an oversized body, 400 for a malformed one, both with a RunResponse
// error — and returns false.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, status, RunResponse{Error: fmt.Sprintf("bad request: %v", err)})
	return false
}

// handleRun implements POST /v1/run: one spec in, one report out.
// Unresolvable specs are the client's fault (400); execution failures
// are the simulation's (500); both carry a RunResponse body with
// Error set.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req RunRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	resp := s.resolve(req.Spec)
	if ri := infoFrom(r.Context()); ri != nil {
		ri.key, ri.cached = resp.Key, resp.Cached
	}
	status := http.StatusOK
	if resp.Error != "" {
		if resp.Key == "" { // never resolved to a runnable spec
			status = http.StatusBadRequest
		} else {
			status = http.StatusInternalServerError
		}
	}
	writeJSON(w, status, resp)
}

// handleSuite implements POST /v1/suite: a batch of specs in, one
// SuiteItem JSON line out per spec, streamed in completion order and
// flushed per item. Specs fan out under the worker bound; duplicate
// specs inside one batch (or across concurrent batches) single-flight
// through the shared runner.
func (s *Server) handleSuite(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req SuiteRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	var writeMu sync.Mutex
	enc := json.NewEncoder(w)
	emit := func(item SuiteItem) {
		writeMu.Lock()
		defer writeMu.Unlock()
		enc.Encode(item) // Encode appends the newline delimiter
		if flusher != nil {
			flusher.Flush()
		}
	}

	var wg sync.WaitGroup
	for i, ws := range req.Specs {
		wg.Add(1)
		go func(i int, ws runplan.WireSpec) {
			defer wg.Done()
			emit(SuiteItem{Index: i, RunResponse: s.resolve(ws)})
		}(i, ws)
	}
	wg.Wait()
}

// handleStats implements GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	resp := StatsResponse{
		Counters:      s.runner.Counters(),
		MemoryEntries: s.runner.Len(),
	}
	if s.disk != nil {
		st := s.disk.Stats()
		resp.Store = &st
	}
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
