package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"taskstream/internal/core"
	"taskstream/internal/runplan"
)

// Client resolves run specs against a delta-serve daemon. It tallies
// per-provenance answer counts so a harness can report how much of
// its suite the server answered from cache (delta-bench prints the
// tally on stderr in -server mode). Safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client

	memory, disk, dedup, miss, bypass, local atomic.Int64
}

// NewClient returns a client for the daemon at base (e.g.
// "http://localhost:8177"). Simulations can be minutes long, so the
// client never times out a request on its own.
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
}

// Resolve answers one spec the way runplan.Runner.Run would, but
// remotely: cacheable specs go to the server, uncacheable ones (live
// obs side channels cannot cross the wire) execute in-process
// through the shared runner. This is the resolver delta-bench installs
// in -server mode.
func (c *Client) Resolve(s runplan.Spec) (core.Report, error) {
	if !s.Cacheable() {
		c.local.Add(1)
		return runplan.Shared.Run(s)
	}
	ws, err := s.Wire()
	if err != nil {
		return core.Report{}, err
	}
	rep, cached, err := c.RunWire(ws)
	if err != nil {
		return core.Report{}, err
	}
	c.tally(cached)
	return rep, nil
}

// RunWire posts one wire spec to /v1/run, returning the report and
// its cache provenance ("memory", "disk", "dedup", "miss", "bypass").
func (c *Client) RunWire(ws runplan.WireSpec) (core.Report, string, error) {
	body, err := json.Marshal(RunRequest{Spec: ws})
	if err != nil {
		return core.Report{}, "", err
	}
	httpResp, err := c.hc.Post(c.base+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return core.Report{}, "", fmt.Errorf("store client: %w", err)
	}
	defer httpResp.Body.Close()
	var resp RunResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return core.Report{}, "", fmt.Errorf("store client: %s: bad response: %v", ws.Workload, err)
	}
	if resp.Error != "" {
		return core.Report{}, resp.Cached, fmt.Errorf("server: %s", resp.Error)
	}
	if httpResp.StatusCode != http.StatusOK {
		return core.Report{}, "", fmt.Errorf("store client: %s: HTTP %d", ws.Workload, httpResp.StatusCode)
	}
	rep, err := core.DecodeReport(resp.Report)
	if err != nil {
		return core.Report{}, "", fmt.Errorf("store client: %s: %v", ws.Workload, err)
	}
	return rep, resp.Cached, nil
}

// WaitReady polls GET /metrics until the server answers 200 or the
// timeout elapses — the startup handshake scripts use.
func (c *Client) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		err := c.ping()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("store client: server at %s not ready after %v: %w", c.base, timeout, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// ping GETs /metrics once, succeeding only on a 200.
func (c *Client) ping() error {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	return nil
}

func (c *Client) tally(cached string) {
	switch cached {
	case "memory":
		c.memory.Add(1)
	case "disk":
		c.disk.Add(1)
	case "dedup":
		c.dedup.Add(1)
	case "bypass":
		c.bypass.Add(1)
	default:
		c.miss.Add(1)
	}
}

// CountsLine renders the client-side provenance tally the way
// delta-bench prints it on stderr.
func (c *Client) CountsLine() string {
	return fmt.Sprintf("%d memory, %d disk, %d dedup, %d miss, %d bypass, %d local",
		c.memory.Load(), c.disk.Load(), c.dedup.Load(), c.miss.Load(), c.bypass.Load(), c.local.Load())
}
