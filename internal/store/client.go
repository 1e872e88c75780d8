package store

import (
	"bufio"
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

// Suite posts a batch to /v1/suite and reassembles the streamed
// completion-order items into request order. Reports and provenance
// come back index-aligned with specs; the first per-item error fails
// the batch (after the stream drains).
func (c *Client) Suite(specs []runplan.WireSpec) ([]core.Report, []string, error) {
	body, err := json.Marshal(SuiteRequest{Specs: specs})
	if err != nil {
		return nil, nil, err
	}
	httpResp, err := c.hc.Post(c.base+"/v1/suite", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, fmt.Errorf("store client: %w", err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(httpResp.Body)
		return nil, nil, fmt.Errorf("store client: suite: HTTP %d: %s", httpResp.StatusCode, bytes.TrimSpace(b))
	}
	reports := make([]core.Report, len(specs))
	cached := make([]string, len(specs))
	seen := make([]bool, len(specs))
	var firstErr error
	sc := bufio.NewScanner(httpResp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20) // reports for big configs are wide
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var item SuiteItem
		if err := json.Unmarshal(line, &item); err != nil {
			return nil, nil, fmt.Errorf("store client: suite stream: %v", err)
		}
		if item.Index < 0 || item.Index >= len(specs) || seen[item.Index] {
			return nil, nil, fmt.Errorf("store client: suite stream: bad index %d", item.Index)
		}
		seen[item.Index] = true
		if item.Error != "" {
			if firstErr == nil {
				firstErr = fmt.Errorf("server: %s: %s", specs[item.Index].Workload, item.Error)
			}
			continue
		}
		rep, err := core.DecodeReport(item.Report)
		if err != nil {
			return nil, nil, fmt.Errorf("store client: %s: %v", specs[item.Index].Workload, err)
		}
		reports[item.Index] = rep
		cached[item.Index] = item.Cached
		c.tally(item.Cached)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("store client: suite stream: %w", err)
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}
	for i, ok := range seen {
		if !ok {
			return nil, nil, fmt.Errorf("store client: suite stream ended without answering spec %d (%s)", i, specs[i].Workload)
		}
	}
	return reports, cached, nil
}

// Stats fetches the server's /v1/stats snapshot.
func (c *Client) Stats() (StatsResponse, error) {
	httpResp, err := c.hc.Get(c.base + "/v1/stats")
	if err != nil {
		return StatsResponse{}, fmt.Errorf("store client: %w", err)
	}
	defer httpResp.Body.Close()
	var resp StatsResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return StatsResponse{}, fmt.Errorf("store client: stats: %v", err)
	}
	return resp, nil
}

// WaitReady polls /v1/stats until the server answers or the timeout
// elapses — the startup handshake scripts use.
func (c *Client) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if _, err := c.Stats(); err == nil {
			return nil
		} else if time.Now().After(deadline) {
			return fmt.Errorf("store client: server at %s not ready after %v: %w", c.base, timeout, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
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
