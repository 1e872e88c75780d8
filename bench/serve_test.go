package main

import (
	"sync"
	"testing"

	"taskstream/internal/core"
)

// memStore is a runplan.Store that keeps reports in a map.
type memStore struct {
	mu sync.Mutex
	m  map[string]core.Report
}

func (s *memStore) Load(key string) (core.Report, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, ok := s.m[key]
	return rep, ok
}

func (s *memStore) Save(key string, rep core.Report) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = rep
}

// TestTimedStoreConcurrentUse drives the timing wrapper from as many
// goroutines as the server has workers, then reads its medians.
func TestTimedStoreConcurrentUse(t *testing.T) {
	ts := &timedStore{inner: &memStore{m: map[string]core.Report{}}}
	var wg sync.WaitGroup
	for w := 0; w < serveWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ts.Save("k", core.Report{Cycles: int64(i)})
				ts.Load("k")
				ts.Load("missing")
			}
		}()
	}
	wg.Wait()
	load, save := ts.medians()
	if load < 0 || save < 0 {
		t.Fatalf("medians %v %v", load, save)
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if n := len(ts.save); n != 100*serveWorkers {
		t.Errorf("%d saves timed, want %d", n, 100*serveWorkers)
	}
	if n := len(ts.load); n != 100*serveWorkers {
		t.Errorf("%d loads timed, want %d: only hits count", n, 100*serveWorkers)
	}
}
