package dist

import (
	"testing"
	"time"
)

// TestFaultPlanParseRoundTrip pins the plan grammar: every fault kind
// parses into the expected schedule and renders back to the same
// string, so plans survive flags and logs unchanged.
func TestFaultPlanParseRoundTrip(t *testing.T) {
	const text = "kill:w2@r1+rejoin2;stall:w0@r3;delay:w1@r2+30ms;restart:ps1@r4"
	plan, err := ParseFaultPlan(text)
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{
		{Kind: FaultKillWorker, Worker: 2, Step: 1, Rejoin: 2},
		{Kind: FaultStallWorker, Worker: 0, Step: 3},
		{Kind: FaultDelayPush, Worker: 1, Step: 2, Delay: 30 * time.Millisecond},
		{Kind: FaultRestartShard, Shard: 1, Step: 4},
	}
	if len(plan.Faults) != len(want) {
		t.Fatalf("parsed %d faults, want %d", len(plan.Faults), len(want))
	}
	for i, f := range plan.Faults {
		if f != want[i] {
			t.Errorf("fault %d = %+v, want %+v", i, f, want[i])
		}
	}
	if got := plan.String(); got != text {
		t.Fatalf("String() = %q, want the input %q", got, text)
	}
	if !plan.HasKind(FaultRestartShard) || plan.HasKind(FaultKind(99)) {
		t.Fatal("HasKind misreports the schedule")
	}
	if got := plan.FaultsAt(1); len(got) != 1 || got[0].Kind != FaultKillWorker {
		t.Fatalf("FaultsAt(1) = %+v", got)
	}
}

// TestFaultPlanParseRejects spot-checks the parser's error paths.
func TestFaultPlanParseRejects(t *testing.T) {
	bad := []string{
		"",
		";;",
		"kill",
		"kill:w1",
		"kill:ps1@r2",
		"kill:w-1@r2",
		"kill:w1@rX",
		"kill:w1@r2+rejoin0",
		"stall:w1@r2+rejoin1",
		"delay:w1@r2",
		"delay:w1@r2+0s",
		"delay:w1@r2+fast",
		"restart:w1@r2",
		"explode:w1@r2",
	}
	for _, s := range bad {
		if _, err := ParseFaultPlan(s); err == nil {
			t.Errorf("ParseFaultPlan(%q) accepted", s)
		}
	}
}

// TestFaultPlanValidate checks the cluster-shape checks: out-of-range
// targets, off-boundary restarts, all-dead rounds and stalls or delays
// of a dead worker are rejected, and a rejoin revives its worker for
// later faults.
func TestFaultPlanValidate(t *testing.T) {
	valid := func(s string) *FaultPlan {
		t.Helper()
		p, err := ParseFaultPlan(s)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	type tc struct {
		name string
		plan *FaultPlan
		ok   bool
	}
	cases := []tc{
		{"in range", valid("kill:w1@r1+rejoin1;restart:ps0@r2"), true},
		{"worker out of range", valid("kill:w4@r1"), false},
		{"shard out of range", valid("restart:ps2@r2"), false},
		{"round out of range", valid("kill:w0@r6"), false},
		{"restart off boundary", valid("restart:ps0@r3"), false},
		{"restart at round zero", &FaultPlan{Faults: []Fault{{Kind: FaultRestartShard, Step: 0}}}, false},
		{"double kill", valid("kill:w0@r1;kill:w0@r2"), false},
		{"kill revived worker", valid("kill:w0@r1+rejoin1;kill:w0@r3"), true},
		{"all dead", valid("kill:w0@r1;kill:w1@r1;kill:w2@r1;kill:w3@r1"), false},
		{"delay without duration", &FaultPlan{Faults: []Fault{{Kind: FaultDelayPush, Worker: 0, Step: 1}}}, false},
		{"unknown kind", &FaultPlan{Faults: []Fault{{Kind: FaultKind(42), Step: 1}}}, false},
		{"stall of a dead worker", valid("kill:w0@r1;stall:w0@r2"), false},
		{"delay of a dead worker", valid("kill:w0@r1+rejoin2;delay:w0@r2+5ms"), false},
		{"stall at its kill round", valid("stall:w0@r1;kill:w0@r1"), false},
		{"stall of a rejoined worker", valid("kill:w0@r1+rejoin1;stall:w0@r2;delay:w0@r3+5ms"), true},
		{"delay before the kill", valid("delay:w0@r1+5ms;kill:w0@r2"), true},
	}
	for _, c := range cases {
		err := c.plan.Validate(4, 2, 6, 2)
		if c.ok && err != nil {
			t.Errorf("%s: rejected: %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// A restart needs checkpointing enabled at all.
	if err := valid("restart:ps0@r2").Validate(4, 2, 6, 0); err == nil {
		t.Error("restart accepted with checkpointing disabled")
	}
}

// TestRandomFaultPlanDeterministic pins the seeded generator: the same
// seed always draws the same churn schedule, the schedule validates
// against its cluster shape, and different seeds explore different
// schedules.
func TestRandomFaultPlanDeterministic(t *testing.T) {
	a := RandomFaultPlan(42, 4, 6)
	b := RandomFaultPlan(42, 4, 6)
	if a.String() != b.String() {
		t.Fatalf("seed 42 drew %q then %q", a.String(), b.String())
	}
	if err := a.Validate(4, 2, 6, 0); err != nil {
		t.Fatalf("random plan does not validate: %v", err)
	}
	distinct := false
	for seed := int64(0); seed < 10; seed++ {
		if RandomFaultPlan(seed, 4, 6).String() != a.String() {
			distinct = true
			break
		}
	}
	if !distinct {
		t.Fatal("ten seeds drew identical plans")
	}
	// Every drawn kill rejoins, so long chaos runs keep their workers.
	for _, f := range a.Faults {
		if f.Kind != FaultKillWorker || f.Rejoin < 1 {
			t.Fatalf("random plan drew %+v, want kills with rejoins", f)
		}
	}
}
