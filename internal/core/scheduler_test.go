package core

import (
	"reflect"
	"testing"

	"taskstream/internal/mem"
)

// newPolicyMachine builds an idle machine running the given policy,
// for direct unit testing of scheduler internals.
func newPolicyMachine(t *testing.T, lanes int, p Policy) *Machine {
	t.Helper()
	prog := &Program{Name: "idle", Types: []*TaskType{copyType()}, NumPhases: 1}
	m, err := NewMachine(testConfig(lanes), prog, mem.NewStorage(), Options{Policy: p})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

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

// TestSchedulerNamesMatchPolicies pins the policy → scheduler mapping:
// pipeline is the dynamic scheduler with weighted group placement.
func TestSchedulerNamesMatchPolicies(t *testing.T) {
	want := map[string]Scheduler{
		"dynamic":  &dynamicSched{},
		"static":   &staticSched{},
		"pipeline": &dynamicSched{weighted: true},
	}
	for p := Policy(0); p < NumPolicies; p++ {
		sched, err := newScheduler(p)
		if err != nil {
			t.Fatalf("newScheduler(%v): %v", p, err)
		}
		if !reflect.DeepEqual(sched, want[p.String()]) {
			t.Fatalf("policy %v builds %#v, want %#v", p, sched, want[p.String()])
		}
	}
	if _, err := newScheduler(NumPolicies); err == nil {
		t.Fatal("newScheduler accepted an unregistered policy")
	}
}

// TestWeightedLanesPlacement pins the pipeline policy's group
// placement: the consumer (last weight) anchors on the least-loaded
// lane, the heaviest producer takes the next-least-loaded, and the
// result stays aligned to member order.
func TestWeightedLanesPlacement(t *testing.T) {
	m := newPolicyMachine(t, 4, PolicyPipeline)
	s := &m.coord.state
	m.coord.laneWork[0] = 400
	m.coord.laneWork[1] = 300
	m.coord.laneWork[2] = 200
	m.coord.laneWork[3] = 100

	// Members: light producer (w=10), heavy producer (w=90), consumer.
	lanes := weightedLanes(s, []int64{10, 90, 50})
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
	for i := range m.coord.laneWork {
		m.coord.laneWork[i] = 0
	}
	if got := weightedLanes(s, []int64{10, 90, 50}); got[2] != 0 || got[1] != 1 || got[0] != 2 {
		t.Fatalf("tied lanes = %v, want [2 1 0] (consumer, heavy, light from lane 0 up)", got)
	}
}

// TestWeightedLanesRefusesWhenFull reports nil when fewer free lanes
// exist than group members.
func TestWeightedLanesRefusesWhenFull(t *testing.T) {
	m := newPolicyMachine(t, 2, PolicyPipeline)
	s := &m.coord.state
	if lanes := weightedLanes(s, []int64{1, 2, 3}); lanes != nil {
		t.Fatalf("got %v for a 3-member group on 2 lanes, want nil", lanes)
	}
}
