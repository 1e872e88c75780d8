package store

import (
	"encoding/json"

	"taskstream/internal/runplan"
)

// The delta-serve HTTP/JSON API, version 1:
//
//	POST /v1/run   RunRequest → RunResponse
//	GET  /metrics  Prometheus text exposition (hostmetrics.go)
//
// /v1/run is the one run route: it answers one spec, and concurrent
// requests for the same uncached spec single-flight through the
// server's shared runner, so N clients cost one simulation. /metrics
// is the one read surface: runner tiers, disk-store accounting, the
// sim run meter and per-route HTTP series.

// RunRequest asks for one spec.
type RunRequest struct {
	Spec runplan.WireSpec `json:"spec"`
}

// RunResponse answers one spec. Cached is the answer's provenance —
// "memory" (warm in-process entry), "disk" (persistent store),
// "dedup" (waited on a concurrent identical request), "miss"
// (executed), or "bypass" (cache disabled) — and Report holds
// core.EncodeReport bytes when Error is empty.
type RunResponse struct {
	Key    string          `json:"key,omitempty"`
	Cached string          `json:"cached,omitempty"`
	Report json.RawMessage `json:"report,omitempty"`
	Error  string          `json:"error,omitempty"`
}
