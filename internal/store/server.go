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
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	runner.InstrumentHost(s.host)
	s.instrumentHostProf()
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

// maxRequestBytes bounds a /v1/run request body, which carries one
// spec. A default-config wire spec marshals to about 500 B, so the
// bound leaves two orders of magnitude of headroom while keeping one
// client from making the daemon buffer an arbitrarily large document.
const maxRequestBytes = 64 << 10

// decodeRequest decodes r's JSON body into v, reading at most
// maxRequestBytes. A field v does not have is an error, so a misspelt
// or retired option fails instead of silently running with its
// default. On failure it answers the request itself — 413 for an
// oversized body, 400 for a malformed one, both with a RunResponse
// error — and returns false.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
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

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
