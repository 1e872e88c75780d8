// Package store is the persistence layer of simulation-as-a-service:
// a disk-backed content-addressed report store (DiskStore) that plugs
// in under the in-memory runplan.Runner, plus the HTTP/JSON server
// and client that make one warm runner usable by many processes
// (cmd/delta-serve, delta-bench -server). See DESIGN.md §15.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"taskstream/internal/core"
	"taskstream/internal/runplan"
)

// envelope is one entry file: the key it answers, the hex SHA-256 of
// the serialized report, and the report bytes themselves
// (core.EncodeReport's stable encoding). Load re-hashes Report and
// compares against SHA256 — a truncated or bit-flipped entry fails
// the check and is discarded instead of served.
type envelope struct {
	Key    string          `json:"key"`
	SHA256 string          `json:"sha256"`
	Report json.RawMessage `json:"report"`
}

// entry is the in-memory index record for one on-disk file.
type entry struct {
	file string // file name inside dir (fileFor of its key)
	size int64
}

// StoreStats is a snapshot of a DiskStore's accounting; delta-serve
// exports every field but Dir as a store_* gauge at /metrics.
type StoreStats struct {
	Dir       string
	Entries   int
	Bytes     int64
	MaxBytes  int64
	Loads     int64
	LoadHits  int64
	Corrupt   int64
	Saves     int64
	Evictions int64
}

// DiskStore is a persistent content-addressed cache of simulation
// reports, implementing runplan.Store. Entries are files named by the
// model revision and the SHA-256 of their key, integrity-checked on
// load, and LRU-evicted once the total size exceeds a configurable
// bound. Safe for concurrent use. It is a cache: every failure path
// (unreadable file, failed integrity check, write error) degrades to a
// miss or a dropped save, never to a wrong answer or a runner error.
type DiskStore struct {
	dir string
	max int64 // size bound in bytes; <= 0 means unbounded

	mu      sync.Mutex
	entries map[string]*entry // by file name
	lruList []string          // file names, least recently used first
	total   int64

	loads, loadHits, corrupt, saves, evictions int64
}

// Open returns a store rooted at dir (created if missing), holding at
// most maxBytes of entries (<= 0 = unbounded). Existing entries of the
// current runplan.ModelRevision are indexed by file modification time,
// so the LRU order — refreshed on every load — survives restarts.
// Entries of any other revision, and the bare "<sha256>.json" entries
// of builds before file names carried one, are deleted: no key this
// build computes can hit them. Every other file in dir is left alone,
// never indexed and never evicted.
func Open(dir string, maxBytes int64) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d := &DiskStore{
		dir:     dir,
		max:     maxBytes,
		entries: make(map[string]*entry),
	}
	type aged struct {
		entry
		mtime time.Time
	}
	var found []aged
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, f := range files {
		if f.IsDir() {
			continue
		}
		rev, ok := entryRevision(f.Name())
		if !ok {
			continue
		}
		if rev != runplan.ModelRevision {
			os.Remove(filepath.Join(dir, f.Name())) // best-effort; the next Open retries
			continue
		}
		info, err := f.Info()
		if err != nil {
			continue
		}
		found = append(found, aged{entry{file: f.Name(), size: info.Size()}, info.ModTime()})
	}
	sort.Slice(found, func(i, j int) bool {
		if !found[i].mtime.Equal(found[j].mtime) {
			return found[i].mtime.Before(found[j].mtime)
		}
		return found[i].file < found[j].file
	})
	for _, a := range found {
		e := a.entry
		d.entries[e.file] = &e
		d.lruList = append(d.lruList, e.file)
		d.total += e.size
	}
	d.evictOverLocked()
	return d, nil
}

// fileFor returns the content-addressed file name for a key:
// "<ModelRevision>-<sha256(key) in hex>.json".
func fileFor(key string) string {
	sum := sha256.Sum256([]byte(key))
	return runplan.ModelRevision + "-" + hex.EncodeToString(sum[:]) + ".json"
}

// entryRevision parses an entry file name, "<revision>-<sha256>.json"
// with a lower-case alphanumeric revision and a lower-case hex hash,
// reporting the revision. A bare "<sha256>.json" parses with revision
// "". ok is false for every other name: files the store did not write.
func entryRevision(name string) (rev string, ok bool) {
	base, isJSON := strings.CutSuffix(name, ".json")
	n := len(base) - hex.EncodedLen(sha256.Size)
	// Trimming a cutset leaves "" exactly when every byte is in it.
	if !isJSON || n < 0 || strings.Trim(base[n:], "0123456789abcdef") != "" {
		return "", false
	}
	if n == 0 {
		return "", true
	}
	rev, dashed := strings.CutSuffix(base[:n], "-")
	return rev, dashed && rev != "" && strings.Trim(rev, "0123456789abcdefghijklmnopqrstuvwxyz") == ""
}

// Load implements runplan.Store: fetch, integrity-check, and decode
// the entry for key. Any defect — missing file, malformed envelope,
// key mismatch, hash mismatch, undecodable report — discards the
// entry and reports a miss, so a corrupted store heals by
// re-execution instead of serving garbage.
func (d *DiskStore) Load(key string) (core.Report, bool) {
	file := fileFor(key)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.loads++
	e, ok := d.entries[file]
	if !ok {
		return core.Report{}, false
	}
	path := filepath.Join(d.dir, file)
	b, err := os.ReadFile(path)
	if err != nil {
		d.dropLocked(e, true)
		return core.Report{}, false
	}
	var env envelope
	if err := json.Unmarshal(b, &env); err != nil {
		d.dropLocked(e, true)
		return core.Report{}, false
	}
	sum := sha256.Sum256(env.Report)
	if env.Key != key || env.SHA256 != hex.EncodeToString(sum[:]) {
		d.dropLocked(e, true)
		return core.Report{}, false
	}
	rep, err := core.DecodeReport(env.Report)
	if err != nil {
		d.dropLocked(e, true)
		return core.Report{}, false
	}
	d.touchLocked(file)
	now := time.Now()
	os.Chtimes(path, now, now) // persist the LRU refresh across restarts; best-effort
	d.loadHits++
	return rep, true
}

// Save implements runplan.Store: write the entry atomically
// (temp file + rename) and evict least-recently-used entries while
// the store exceeds its size bound. Failures drop the save.
func (d *DiskStore) Save(key string, rep core.Report) {
	repBytes, err := core.EncodeReport(rep)
	if err != nil {
		return
	}
	sum := sha256.Sum256(repBytes)
	b, err := json.Marshal(envelope{
		Key:    key,
		SHA256: hex.EncodeToString(sum[:]),
		Report: repBytes,
	})
	if err != nil {
		return
	}
	file := fileFor(key)
	d.mu.Lock()
	defer d.mu.Unlock()
	tmp, err := os.CreateTemp(d.dir, "tmp-*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), filepath.Join(d.dir, file)); err != nil {
		os.Remove(tmp.Name())
		return
	}
	d.saves++
	if old, ok := d.entries[file]; ok {
		d.total -= old.size
		old.size = int64(len(b))
		d.total += old.size
		d.touchLocked(file)
	} else {
		d.entries[file] = &entry{file: file, size: int64(len(b))}
		d.lruList = append(d.lruList, file)
		d.total += int64(len(b))
	}
	d.evictOverLocked()
}

// touchLocked moves file to the most-recently-used end.
func (d *DiskStore) touchLocked(file string) {
	for i, f := range d.lruList {
		if f == file {
			d.lruList = append(append(d.lruList[:i:i], d.lruList[i+1:]...), file)
			return
		}
	}
}

// dropLocked removes an entry from index and disk; corrupt marks it
// as an integrity casualty rather than a plain eviction.
func (d *DiskStore) dropLocked(e *entry, corrupt bool) {
	os.Remove(filepath.Join(d.dir, e.file))
	delete(d.entries, e.file)
	for i, f := range d.lruList {
		if f == e.file {
			d.lruList = append(d.lruList[:i], d.lruList[i+1:]...)
			break
		}
	}
	d.total -= e.size
	if corrupt {
		d.corrupt++
	} else {
		d.evictions++
	}
}

// evictOverLocked enforces the size bound: least recently used first.
func (d *DiskStore) evictOverLocked() {
	if d.max <= 0 {
		return
	}
	for d.total > d.max && len(d.lruList) > 0 {
		d.dropLocked(d.entries[d.lruList[0]], false)
	}
}

// Len reports the number of stored entries.
func (d *DiskStore) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries)
}

// Bytes reports the total size of stored entries.
func (d *DiskStore) Bytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.total
}

// Stats returns a snapshot of the store's accounting.
func (d *DiskStore) Stats() StoreStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return StoreStats{
		Dir:       d.dir,
		Entries:   len(d.entries),
		Bytes:     d.total,
		MaxBytes:  d.max,
		Loads:     d.loads,
		LoadHits:  d.loadHits,
		Corrupt:   d.corrupt,
		Saves:     d.saves,
		Evictions: d.evictions,
	}
}
