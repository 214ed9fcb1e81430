package bench

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestRobustnessReplayDeterminism pins the repo seeding convention for
// the whole suite: two runs with the same options must serialize to
// byte-identical JSON (the property the committed CI baseline relies
// on — the result carries no timestamps or wall-clock).
func TestRobustnessReplayDeterminism(t *testing.T) {
	o := Options{Rows: 4000, Queries: 120, Seed: 7}
	a, err := RunRobustness(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunRobustness(o)
	if err != nil {
		t.Fatal(err)
	}
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatalf("same options did not replay identically:\n%s\n---\n%s", aj, bj)
	}
}

// TestRobustnessMatrixShape checks every scenario family runs every arm
// and that the easy (non-adversarial) families converge in all arms —
// stochastic selection must not cost convergence on benign workloads.
func TestRobustnessMatrixShape(t *testing.T) {
	r, err := RunRobustness(Options{Rows: 4000, Queries: 120})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Scenarios) != 5 {
		t.Fatalf("suite ran %d scenario families, want 5", len(r.Scenarios))
	}
	for _, sc := range r.Scenarios {
		if len(sc.Arms) != 3 {
			t.Fatalf("%s ran %d arms, want 3", sc.Scenario, len(sc.Arms))
		}
		if sc.Scenario == "adversarial-displacement" {
			continue
		}
		for _, a := range sc.Arms {
			if !a.Achieved {
				t.Errorf("%s/%s did not converge on a benign workload (max coverage %.2f)",
					sc.Scenario, a.Arm, a.MaxCoverage)
			}
		}
	}
}

// TestRobustnessAdversarialCriterion is the issue's acceptance
// criterion: under the just-displaced adversary, a stochastic arm must
// reach 95% coverage in at most half the ops of the deterministic
// ascending-counter arm. This is the Halim-style collapse the
// DisplacementJitter knob exists to break, measured end to end through
// the engine and the convergence detector.
func TestRobustnessAdversarialCriterion(t *testing.T) {
	r, err := RunRobustness(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckAdversarial(); err != nil {
		t.Fatal(err)
	}
	sc := r.scenario("adversarial-displacement")
	for _, a := range sc.Arms {
		if a.Arm == "ascending" && a.Achieved {
			t.Errorf("deterministic arm escaped the adversary in %d ops — the starvation scenario has lost its teeth", a.OpsToTarget)
		}
	}
}

// mkResult builds a synthetic two-arm result for gate-logic tests.
func mkResult(ops int, ascOps, jitOps int, ascAchieved, jitAchieved bool) *RobustnessResult {
	return &RobustnessResult{
		Ops: ops,
		Scenarios: []RobustnessScenarioResult{{
			Scenario: "adversarial-displacement",
			Arms: []RobustnessArmResult{
				{Arm: "ascending", OpsToTarget: ascOps, Achieved: ascAchieved},
				{Arm: "random+jitter", OpsToTarget: jitOps, Achieved: jitAchieved},
			},
		}},
	}
}

func TestCheckAdversarial(t *testing.T) {
	cases := []struct {
		name    string
		r       *RobustnessResult
		wantErr string
	}{
		{"passes", mkResult(500, 500, 40, false, true), ""},
		{"exact half passes", mkResult(500, 80, 40, true, true), ""},
		{"margin too small", mkResult(500, 79, 40, true, true), "advantage too small"},
		{"stochastic never converges", mkResult(500, 500, 500, false, false), "no stochastic arm converged"},
		{"missing scenario", &RobustnessResult{Ops: 10}, "no adversarial-displacement scenario"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.r.CheckAdversarial()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %v, want substring %q", err, c.wantErr)
			}
		})
	}
}

func TestCompareBaseline(t *testing.T) {
	base := mkResult(500, 100, 40, true, true)
	if regs := mkResult(500, 100, 40, true, true).CompareBaseline(base); len(regs) != 0 {
		t.Fatalf("identical result flagged: %v", regs)
	}
	// Within tolerance: 25% + 10 ops slack.
	if regs := mkResult(500, 135, 50, true, true).CompareBaseline(base); len(regs) != 0 {
		t.Fatalf("in-tolerance drift flagged: %v", regs)
	}
	// Improvements never fail the gate.
	if regs := mkResult(500, 20, 5, true, true).CompareBaseline(base); len(regs) != 0 {
		t.Fatalf("improvement flagged: %v", regs)
	}
	if regs := mkResult(500, 200, 40, true, true).CompareBaseline(base); len(regs) != 1 ||
		!strings.Contains(regs[0], "regressed 100 → 200") {
		t.Fatalf("slowdown not flagged: %v", regs)
	}
	if regs := mkResult(500, 500, 40, false, true).CompareBaseline(base); len(regs) != 1 ||
		!strings.Contains(regs[0], "no longer converges") {
		t.Fatalf("lost convergence not flagged: %v", regs)
	}
	if regs := (&RobustnessResult{Ops: 500}).CompareBaseline(base); len(regs) != 1 ||
		!strings.Contains(regs[0], "scenario missing") {
		t.Fatalf("missing scenario not flagged: %v", regs)
	}
	if regs := mkResult(500, 100, 40, true, true).CompareBaseline(nil); len(regs) != 1 {
		t.Fatalf("nil baseline not flagged: %v", regs)
	}
	// An arm the baseline never converged on cannot regress.
	neverBase := mkResult(500, 500, 40, false, true)
	if regs := mkResult(500, 500, 45, false, true).CompareBaseline(neverBase); len(regs) != 0 {
		t.Fatalf("never-converged arm flagged: %v", regs)
	}
}
