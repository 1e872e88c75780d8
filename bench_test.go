// Package taskstream's root benchmark harness exposes every evaluation
// experiment (E1–E15, DESIGN.md §5) as a testing.B benchmark. Each
// bench runs its experiment once per iteration and reports the
// experiment's headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the full evaluation and
//
//	go test -bench=BenchmarkE3 .
//
// regenerates just the headline figure. BenchmarkAllExperiments times
// a full-suite regeneration at the serial and one-worker-per-CPU
// settings (the delta-bench -j axis). The per-workload benches at the
// bottom time single simulator runs for profiling the simulator
// itself.
package taskstream

import (
	"testing"

	"taskstream/internal/baseline"
	"taskstream/internal/config"
	"taskstream/internal/experiments"
	"taskstream/internal/parallel"
	"taskstream/internal/runplan"
	"taskstream/internal/sim"
	"taskstream/internal/workload"
)

// benchExperiment runs one experiment per b.N iteration and publishes
// its metrics. The shared run cache is dropped each iteration so every
// iteration simulates — the benchmark times the experiment, not a
// cache lookup.
func benchExperiment(b *testing.B, fn func() (experiments.Result, error)) {
	b.Helper()
	var last experiments.Result
	for i := 0; i < b.N; i++ {
		runplan.Shared.Reset()
		r, err := fn()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for k, v := range last.Metrics {
		b.ReportMetric(v, k)
	}
	if testing.Verbose() {
		for _, tb := range last.Tables {
			b.Log("\n" + tb.String())
		}
	}
}

func BenchmarkE1_Characterization(b *testing.B) {
	benchExperiment(b, experiments.E1Characterization)
}

func BenchmarkE2_Configuration(b *testing.B) {
	benchExperiment(b, experiments.E2Configuration)
}

func BenchmarkE3_Speedup(b *testing.B) {
	benchExperiment(b, experiments.E3Speedup)
}

func BenchmarkE4_Ablation(b *testing.B) {
	benchExperiment(b, experiments.E4Ablation)
}

func BenchmarkE5_Imbalance(b *testing.B) {
	benchExperiment(b, experiments.E5Imbalance)
}

func BenchmarkE6_Scaling(b *testing.B) {
	benchExperiment(b, experiments.E6Scaling)
}

func BenchmarkE7_Granularity(b *testing.B) {
	benchExperiment(b, experiments.E7Granularity)
}

func BenchmarkE8_Bandwidth(b *testing.B) {
	benchExperiment(b, experiments.E8Bandwidth)
}

func BenchmarkE9_Traffic(b *testing.B) {
	benchExperiment(b, experiments.E9Traffic)
}

func BenchmarkE10_Area(b *testing.B) {
	benchExperiment(b, experiments.E10Area)
}

func BenchmarkE11_Window(b *testing.B) {
	benchExperiment(b, experiments.E11Window)
}

func BenchmarkE12_Hints(b *testing.B) {
	benchExperiment(b, experiments.E12Hints)
}

func BenchmarkE13_QueueDepth(b *testing.B) {
	benchExperiment(b, experiments.E13QueueDepth)
}

func BenchmarkE14_Energy(b *testing.B) {
	benchExperiment(b, experiments.E14Energy)
}

func BenchmarkE15_Inference(b *testing.B) {
	benchExperiment(b, experiments.E15Inference)
}

// benchAll regenerates the entire E-suite once per iteration at the
// given worker budget — the wall-clock number behind delta-bench -j.
// The run cache is dropped between iterations (so each regenerates
// from scratch) but live within one, exactly like a delta-bench
// invocation: cross-experiment dedup is part of what this measures.
func benchAll(b *testing.B, workers int) {
	b.Helper()
	old := experiments.Workers()
	defer experiments.SetWorkers(old)
	experiments.SetWorkers(workers)
	for i := 0; i < b.N; i++ {
		runplan.Shared.Reset()
		if _, err := experiments.All(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllExperimentsSerial(b *testing.B)   { benchAll(b, 1) }
func BenchmarkAllExperimentsParallel(b *testing.B) { benchAll(b, parallel.DefaultWorkers()) }

// Per-workload single-run benches: simulator throughput (wall time per
// simulated run) for each suite workload under the full Delta model,
// and under Static for the workloads that also run it here. bfs, tri
// and gemm under both are the coordinator-heavy runs; with -benchmem
// their B/op and allocs/op repeat exactly, so they A/B the dispatch
// path. Useful for profiling the simulator, not for paper claims.

func benchWorkload(b *testing.B, name string, v baseline.Variant) {
	b.Helper()
	nb := workload.ByName(name)
	if nb == nil {
		b.Fatalf("unknown workload %s", name)
	}
	var cycles int64
	for i := 0; i < b.N; i++ {
		w := nb.Build()
		rep, err := baseline.Run(v, config.Default8(), w.Prog, w.Storage)
		if err != nil {
			b.Fatal(err)
		}
		cycles = rep.Cycles
	}
	b.ReportMetric(float64(cycles), "sim_cycles")
}

// Hot-path allocation bench (DESIGN.md §16): the event pipe must run
// allocation-free in steady state, and the bench asserts allocs/op == 0
// outright — a regression fails the bench, not just a metric. The
// memory-response path has the same check in core's
// TestMemResponsesAllocateNothing.

func BenchmarkPipePush(b *testing.B) {
	p := sim.NewPipe[uint64](4)
	const batch = 32
	cycle := func() {
		for i := 0; i < batch; i++ {
			p.Send(0, uint64(i))
		}
		for i := 0; i < batch; i++ {
			if _, ok := p.Recv(sim.Never); !ok {
				b.Fatal("warmed pipe lost an item")
			}
		}
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		b.Fatalf("warmed pipe allocated %v allocs/op, want 0", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

func BenchmarkRunSpMVDelta(b *testing.B)    { benchWorkload(b, "spmv", baseline.Delta) }
func BenchmarkRunSpMVStatic(b *testing.B)   { benchWorkload(b, "spmv", baseline.Static) }
func BenchmarkRunBFSDelta(b *testing.B)     { benchWorkload(b, "bfs", baseline.Delta) }
func BenchmarkRunBFSStatic(b *testing.B)    { benchWorkload(b, "bfs", baseline.Static) }
func BenchmarkRunJoinDelta(b *testing.B)    { benchWorkload(b, "join", baseline.Delta) }
func BenchmarkRunTriDelta(b *testing.B)     { benchWorkload(b, "tri", baseline.Delta) }
func BenchmarkRunTriStatic(b *testing.B)    { benchWorkload(b, "tri", baseline.Static) }
func BenchmarkRunSortDelta(b *testing.B)    { benchWorkload(b, "sort", baseline.Delta) }
func BenchmarkRunKMeansDelta(b *testing.B)  { benchWorkload(b, "kmeans", baseline.Delta) }
func BenchmarkRunGEMMDelta(b *testing.B)    { benchWorkload(b, "gemm", baseline.Delta) }
func BenchmarkRunGEMMStatic(b *testing.B)   { benchWorkload(b, "gemm", baseline.Static) }
func BenchmarkRunStencilDelta(b *testing.B) { benchWorkload(b, "stencil", baseline.Delta) }
func BenchmarkRunHistDelta(b *testing.B)    { benchWorkload(b, "hist", baseline.Delta) }
