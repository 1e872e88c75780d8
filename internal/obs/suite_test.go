package obs_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"taskstream/internal/baseline"
	"taskstream/internal/config"
	"taskstream/internal/obs"
	"taskstream/internal/workload"
)

// TestTracedSuiteExport runs every suite workload observed under delta
// on the default config, with delta-sim's default 250k-event buffer,
// and pins the acceptance criterion: the export is byte for byte the
// reference encoder's, valid trace-event JSON whose every event carries
// ph/ts/pid/tid, with lane, stream-engine, NoC, and DRAM tracks all
// populated. Every lane's cycles must also split exactly over the lane
// causes: what stall attribution reports is the whole run.
func TestTracedSuiteExport(t *testing.T) {
	for _, nb := range workload.Suite() {
		name := nb.Name
		t.Run(name, func(t *testing.T) {
			w := nb.Build()
			cfg, opts := baseline.Delta.Configure(config.Default8())
			sink := obs.New(250000)
			opts.Obs = sink
			rep, err := baseline.RunCfg(cfg, opts, w.Prog, w.Storage)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if err := w.Verify(); err != nil {
				t.Fatalf("verify: %v", err)
			}
			if rep.Cycles <= 0 || sink.Len() == 0 {
				t.Fatalf("cycles=%d events=%d", rep.Cycles, sink.Len())
			}
			m := sink.Metrics()
			for lane := 0; lane < cfg.Lanes; lane++ {
				var sum int64
				for c := obs.Cause(0); c < obs.NumCauses; c++ {
					sum += m.LaneCause(lane, c)
				}
				if sum != rep.Cycles {
					t.Errorf("lane %d: causes sum to %d cycles, run took %d", lane, sum, rep.Cycles)
				}
			}

			var buf, ref bytes.Buffer
			if err := obs.WriteChromeTrace(&buf, sink); err != nil {
				t.Fatalf("export: %v", err)
			}
			if err := obs.WriteReferenceTrace(&ref, sink); err != nil {
				t.Fatalf("reference export: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), ref.Bytes()) {
				t.Fatalf("export (%d bytes) differs from the reference encoder's (%d bytes)", buf.Len(), ref.Len())
			}
			if !json.Valid(buf.Bytes()) {
				t.Fatal("export is not valid JSON")
			}
			var top struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			// pid 2..6 = lanes, stream-engines, noc, dram, multicast
			// (export.go). A workload whose every read multicasts
			// (gemm) issues no stream-engine spans: each span is one
			// line a lane reads from DRAM itself.
			want := map[float64]string{2: "lane", 4: "noc", 5: "dram"}
			if rep.Stats.Get("lane_dram_line_reads") > 0 {
				want[3] = "stream-engine"
			}
			if rep.Stats.Get("mcast_joins") > 0 {
				want[6] = "multicast"
			}
			tracks := map[float64]int{}
			for i, ev := range top.TraceEvents {
				for _, field := range []string{"ph", "ts", "pid", "tid"} {
					if _, ok := ev[field]; !ok {
						t.Fatalf("event %d missing %q", i, field)
					}
				}
				if ev["ph"] != "M" {
					tracks[ev["pid"].(float64)]++
				}
			}
			for pid, label := range want {
				if tracks[pid] == 0 {
					t.Fatalf("no %s events in the %s trace (tracks: %v)", label, name, tracks)
				}
			}
		})
	}
}
