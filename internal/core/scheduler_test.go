package core

import (
	"bytes"
	"testing"
)

func TestParsePolicyRoundTrip(t *testing.T) {
	for p := Policy(0); p < NumPolicies; p++ {
		got, err := ParsePolicy(p.String())
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", p, err)
		}
		if got != p {
			t.Fatalf("ParsePolicy(%q) = %v, want %v", p, got, p)
		}
	}
	if _, err := ParsePolicy("fifo"); err == nil {
		t.Fatal("ParsePolicy accepted an unknown name")
	}
	if _, err := ParsePolicy("Dynamic"); err == nil {
		t.Fatal("ParsePolicy is case-sensitive; accepted Dynamic")
	}
}

// TestPipelineEqualsDynamicWithoutForwarding pins what separates the
// pipeline policy from dynamic: only where a forward group goes. With
// forwarding off no group forms, so on every generated program, with
// and without work-aware balancing, both policies must report the same
// bytes.
func TestPipelineEqualsDynamicWithoutForwarding(t *testing.T) {
	for seed := uint64(70); seed <= 79; seed++ {
		for _, lb := range []bool{true, false} {
			cfg := testConfig(4)
			cfg.Task.EnableForwarding = false
			cfg.Task.EnableWorkAwareLB = lb
			var enc [2][]byte
			for i, p := range []Policy{PolicyDynamic, PolicyPipeline} {
				prog, st, _ := randomProgram(seed)
				b, err := EncodeReport(buildAndRun(t, cfg, prog, st, Options{Policy: p}))
				if err != nil {
					t.Fatal(err)
				}
				enc[i] = b
			}
			if !bytes.Equal(enc[0], enc[1]) {
				t.Fatalf("seed %d, work-aware %t: pipeline report differs from dynamic's:\n%s\n%s",
					seed, lb, enc[1], enc[0])
			}
		}
	}
}

// TestWeightedLanesPlacement pins the pipeline policy's group
// placement: the consumer (last weight) anchors on the least-loaded
// lane, the heaviest producer takes the next-least-loaded, and the
// result stays aligned to member order.
func TestWeightedLanesPlacement(t *testing.T) {
	c := newIdleMachine(t, 4).coord
	c.laneWork[0] = 400
	c.laneWork[1] = 300
	c.laneWork[2] = 200
	c.laneWork[3] = 100

	// Members: light producer (w=10), heavy producer (w=90), consumer.
	lanes := c.weightedLanes([]int64{10, 90, 50})
	if len(lanes) != 3 {
		t.Fatalf("got %d lanes, want 3", len(lanes))
	}
	if lanes[2] != 3 {
		t.Fatalf("consumer on lane %d, want 3 (least loaded)", lanes[2])
	}
	if lanes[1] != 2 {
		t.Fatalf("heavy producer on lane %d, want 2 (next least loaded)", lanes[1])
	}
	if lanes[0] != 1 {
		t.Fatalf("light producer on lane %d, want 1", lanes[0])
	}

	// Equal loads tie toward the lowest lane index, member by member.
	for i := range c.laneWork {
		c.laneWork[i] = 0
	}
	if got := c.weightedLanes([]int64{10, 90, 50}); got[2] != 0 || got[1] != 1 || got[0] != 2 {
		t.Fatalf("tied lanes = %v, want [2 1 0] (consumer, heavy, light from lane 0 up)", got)
	}
}

// TestWeightedLanesRefusesWhenFull reports nil when fewer free lanes
// exist than group members.
func TestWeightedLanesRefusesWhenFull(t *testing.T) {
	c := newIdleMachine(t, 2).coord
	if lanes := c.weightedLanes([]int64{1, 2, 3}); lanes != nil {
		t.Fatalf("got %v for a 3-member group on 2 lanes, want nil", lanes)
	}
}
