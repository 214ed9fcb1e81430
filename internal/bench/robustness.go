// Workload-robustness suite: drives the five internal/workload scenario
// families against three page-selection arms — the paper's deterministic
// ascending-counter policy, RandomOrder, and RandomOrder plus
// displacement jitter — and measures queries-to-95%-coverage with the
// adaptation-timeline convergence detector. The point is the failure
// mode stochastic cracking (Halim et al.) documented for deterministic
// adaptive indexing: under the adversarial just-displaced pattern the
// deterministic policy's coverage plateaus indefinitely while the
// stochastic arms converge. RunRobustness emits a deterministic,
// baseline-comparable result (BENCH_robustness.json in CI).
package bench

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/storage"
	"repro/internal/timeline"
	"repro/internal/workload"
)

// RobustnessArm is one page-selection policy under test.
type RobustnessArm struct {
	Name      string
	Selection core.SelectionOrder
	Jitter    float64 // core.Config.DisplacementJitter
}

// DefaultArms returns the three arms of the robustness matrix: the
// paper's deterministic policy and the two stochastic escapes.
func DefaultArms() []RobustnessArm {
	return []RobustnessArm{
		{Name: "ascending", Selection: core.AscendingCounter, Jitter: 0},
		{Name: "random", Selection: core.RandomOrder, Jitter: 0},
		{Name: "random+jitter", Selection: core.RandomOrder, Jitter: 1},
	}
}

// RobustnessArmResult is the convergence verdict of one scenario × arm
// cell. OpsToTarget is capped at the total op count when the arm never
// achieved the target, so ratios stay well-defined.
type RobustnessArmResult struct {
	Arm           string  `json:"arm"`
	Selection     string  `json:"selection"`
	Jitter        float64 `json:"jitter"`
	Achieved      bool    `json:"achieved"`
	OpsToTarget   int     `json:"ops_to_target"`
	FinalCoverage float64 `json:"final_coverage"`
	MaxCoverage   float64 `json:"max_coverage"`
	Regressed     bool    `json:"regressed,omitempty"`
	// DisplacedEntries is the cumulative entry count displaced from the
	// observed (column 0) buffer — the adversary's damage tally.
	DisplacedEntries uint64 `json:"displaced_entries"`
}

// RobustnessScenarioResult groups the arms of one scenario family.
type RobustnessScenarioResult struct {
	Scenario string                `json:"scenario"`
	Arms     []RobustnessArmResult `json:"arms"`
}

// RobustnessResult is the full matrix, shaped for BENCH_robustness.json.
// Everything in it is a deterministic function of (Rows, Ops, Seed) —
// no timestamps, no wall-clock — so committed baselines diff cleanly.
type RobustnessResult struct {
	Rows      int                        `json:"rows"`
	Ops       int                        `json:"ops"`
	Seed      int64                      `json:"seed"`
	Target    float64                    `json:"target"`
	Scenarios []RobustnessScenarioResult `json:"scenarios"`
}

// withRobustnessDefaults sizes the suite: the robustness matrix runs 15
// engine setups, so its default scale is smaller than the figure
// benchmarks'.
func (o Options) withRobustnessDefaults() Options {
	if o.Rows <= 0 {
		o.Rows = 4000
	}
	if o.Queries <= 0 {
		o.Queries = 500
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.ScanParallelism == 0 {
		o.ScanParallelism = 1
	}
	return o
}

// robustnessSpec is one scenario family plus the space budget it runs
// under. mk builds a fresh (stateful) scenario per arm.
type robustnessSpec struct {
	name    string
	columns int
	space   core.Config
	mk      func() workload.Scenario
}

// robustnessSpecs builds the five families over the uncovered value
// range [coveredHi()+1, paperDomain] (every query misses the partial
// index, as in the paper's experiments 1–3). Scenario seeds derive from
// o.Seed by fixed offsets per the repo seeding convention.
func robustnessSpecs(o Options) []robustnessSpec {
	lo, hi := coveredHi()+1, int64(paperDomain)
	standard := core.Config{
		IMax:       o.scale(paperIMax),
		P:          o.scale(paperP),
		SpaceLimit: o.scale(paperL),
	}
	// The adversarial war needs a budget that binds: roomy enough that
	// the victim *can* converge once the decoy is worn down, tight
	// enough that displacement starts well before 95% coverage
	// (one column's uncovered entries are ~0.9 rows; 7/6 rows leaves
	// ~25% headroom for two buffers to fight over).
	adversarialSpace := core.Config{
		IMax:       o.scale(paperIMax),
		P:          o.scale(paperP),
		SpaceLimit: o.Rows * 7 / 6,
	}
	period := o.Queries / 8
	if period < 1 {
		period = 1
	}
	mid := (lo + hi) / 2
	seed := func(i int64) int64 { return o.Seed + 2000 + i }
	return []robustnessSpec{
		{"sequential-sweep", 1, standard, func() workload.Scenario {
			return workload.NewSequentialSweep(lo, hi, 137)
		}},
		{"zipf-skew", 1, standard, func() workload.Scenario {
			return workload.NewZipfSkew(1.2, lo, hi, seed(1))
		}},
		{"periodic-shift", 1, standard, func() workload.Scenario {
			return workload.NewPeriodicShift(lo, mid, mid+1, hi, period, seed(2))
		}},
		{"dml-burst", 1, standard, func() workload.Scenario {
			return workload.NewDMLBurst(lo, hi, 12, 4, seed(3))
		}},
		{"adversarial-displacement", 2, adversarialSpace, func() workload.Scenario {
			return workload.NewAdversarialDisplacement(workload.AdversarialConfig{
				VictimLo: lo, VictimHi: hi,
				DecoyLo: lo, DecoyHi: hi,
				Warmup: 10, Burst: 3,
				Seed: seed(4),
			})
		}},
	}
}

// RunRobustness runs the full scenario × arm matrix and returns the
// convergence verdicts. Options.Queries is the op budget per cell.
func RunRobustness(o Options) (*RobustnessResult, error) {
	o = o.withRobustnessDefaults()
	if err := o.validate(); err != nil {
		return nil, err
	}
	r := &RobustnessResult{
		Rows:   o.Rows,
		Ops:    o.Queries,
		Seed:   o.Seed,
		Target: timeline.DefaultTarget,
	}
	for _, spec := range robustnessSpecs(o) {
		sr := RobustnessScenarioResult{Scenario: spec.name}
		for _, arm := range DefaultArms() {
			ar, err := runRobustnessArm(o, spec, arm)
			if err != nil {
				return nil, fmt.Errorf("bench: %s/%s: %w", spec.name, arm.Name, err)
			}
			sr.Arms = append(sr.Arms, ar)
		}
		r.Scenarios = append(r.Scenarios, sr)
	}
	return r, nil
}

// bufferColumn maps a span target like "t.b" to its key-column index
// (-1 when the name is not a single-letter column of table t).
func bufferColumn(target string) int {
	suffix, ok := strings.CutPrefix(target, "t.")
	if !ok || len(suffix) != 1 || suffix[0] < 'a' || suffix[0] > 'z' {
		return -1
	}
	return int(suffix[0] - 'a')
}

// runRobustnessArm drives one scenario under one selection arm and
// reports when (if ever) column 0's buffer converged.
func runRobustnessArm(o Options, spec robustnessSpec, arm RobustnessArm) (RobustnessArmResult, error) {
	space := spec.space
	space.Selection = arm.Selection
	space.DisplacementJitter = arm.Jitter
	space.Seed = o.Seed
	eng, tb, err := setup(o, space, spec.columns, false)
	if err != nil {
		return RobustnessArmResult{}, err
	}
	defer eng.Close()
	eng.Timeline().Enable(true)

	// Displacement feedback for reactive scenarios: the tracer's span
	// sink runs on the emitting goroutine with the Space lock held, so
	// it only bumps atomic counters (per the trace package contract).
	displaced := make([]atomic.Uint64, spec.columns)
	eng.Tracer().EnableSpans(true)
	eng.Tracer().SetSpanSink(func(sp flight.Span) {
		if sp.Kind != flight.SpanDisplace {
			return
		}
		if c := bufferColumn(sp.Target); c >= 0 && c < len(displaced) {
			displaced[c].Add(uint64(sp.N))
		}
	})

	sc := spec.mk()
	fb := workload.Feedback{DisplacedEntries: make([]uint64, spec.columns)}
	var rids []storage.RID // FIFO of scenario-inserted rows
	res := RobustnessArmResult{
		Arm:         arm.Name,
		Selection:   arm.Selection.String(),
		Jitter:      arm.Jitter,
		OpsToTarget: o.Queries,
	}
	for q := 0; q < o.Queries; q++ {
		for c := range fb.DisplacedEntries {
			fb.DisplacedEntries[c] = displaced[c].Load()
		}
		op := sc.Next(q, fb)
		switch op.Kind {
		case workload.OpQuery:
			if _, _, err := tb.QueryEqual(op.Column, intVal(op.Key)); err != nil {
				return res, err
			}
		case workload.OpInsert:
			rid, err := tb.Insert(storage.NewTuple(
				intVal(op.Key), intVal(op.Key), intVal(op.Key),
				storage.StringValue("robustness"),
			))
			if err != nil {
				return res, err
			}
			rids = append(rids, rid)
		case workload.OpDelete:
			if len(rids) > 0 {
				if err := tb.Delete(rids[0]); err != nil {
					return res, err
				}
				rids = rids[1:]
			}
		}
		if !res.Achieved {
			if v, ok := convergenceFor(eng.Convergence(), "t.a"); ok && v.Achieved {
				res.Achieved = true
				res.OpsToTarget = q + 1
			}
		}
	}
	if v, ok := convergenceFor(eng.Convergence(), "t.a"); ok {
		res.FinalCoverage = v.Coverage
		res.MaxCoverage = v.MaxCoverage
		res.Regressed = v.Regressed
	}
	res.DisplacedEntries = displaced[0].Load()
	return res, nil
}

// convergenceFor picks the verdict of one buffer out of an engine's
// convergence report.
func convergenceFor(vs []timeline.Convergence, buffer string) (timeline.Convergence, bool) {
	for _, v := range vs {
		if v.Buffer == buffer {
			return v, true
		}
	}
	return timeline.Convergence{}, false
}

// opsOrCap returns the arm's effective queries-to-target (the op budget
// when it never converged).
func (r *RobustnessResult) opsOrCap(a RobustnessArmResult) int {
	if !a.Achieved || a.OpsToTarget <= 0 {
		return r.Ops
	}
	return a.OpsToTarget
}

// scenario finds a scenario's result by family name.
func (r *RobustnessResult) scenario(name string) *RobustnessScenarioResult {
	for i := range r.Scenarios {
		if r.Scenarios[i].Scenario == name {
			return &r.Scenarios[i]
		}
	}
	return nil
}

// CheckAdversarial enforces the suite's acceptance criterion: on the
// adversarial just-displaced scenario, the best stochastic arm must
// reach the coverage target in at most half the ops of the
// deterministic ascending-counter arm.
func (r *RobustnessResult) CheckAdversarial() error {
	sc := r.scenario("adversarial-displacement")
	if sc == nil {
		return fmt.Errorf("bench: no adversarial-displacement scenario in result")
	}
	asc := -1
	best := -1
	bestArm := ""
	bestAchieved := false
	for _, a := range sc.Arms {
		eff := r.opsOrCap(a)
		if a.Arm == "ascending" {
			asc = eff
			continue
		}
		if best < 0 || eff < best {
			best, bestArm, bestAchieved = eff, a.Arm, a.Achieved
		}
	}
	if asc < 0 || best < 0 {
		return fmt.Errorf("bench: adversarial scenario is missing arms")
	}
	if !bestAchieved {
		return fmt.Errorf("bench: no stochastic arm converged on the adversarial scenario within %d ops (ascending: %d)", r.Ops, asc)
	}
	if best*2 > asc {
		return fmt.Errorf("bench: stochastic advantage too small on the adversarial scenario: best arm %s took %d ops, ascending %d (want ≤ half)", bestArm, best, asc)
	}
	return nil
}

// CompareBaseline diffs r against a committed baseline and returns one
// message per regression (empty means the gate passes). A regression is
// an arm that lost convergence, or whose queries-to-target grew by more
// than 25% plus a 10-op absolute slack. Improvements never fail the
// gate — CI refreshes the baseline artifact instead.
func (r *RobustnessResult) CompareBaseline(base *RobustnessResult) []string {
	var regressions []string
	if base == nil {
		return []string{"no baseline to compare against"}
	}
	for _, bs := range base.Scenarios {
		cs := r.scenario(bs.Scenario)
		if cs == nil {
			regressions = append(regressions, fmt.Sprintf("%s: scenario missing from current run", bs.Scenario))
			continue
		}
		for _, ba := range bs.Arms {
			var ca *RobustnessArmResult
			for i := range cs.Arms {
				if cs.Arms[i].Arm == ba.Arm {
					ca = &cs.Arms[i]
					break
				}
			}
			if ca == nil {
				regressions = append(regressions, fmt.Sprintf("%s/%s: arm missing from current run", bs.Scenario, ba.Arm))
				continue
			}
			if ba.Achieved && !ca.Achieved {
				regressions = append(regressions, fmt.Sprintf("%s/%s: no longer converges (baseline: %d ops)", bs.Scenario, ba.Arm, ba.OpsToTarget))
				continue
			}
			if !ba.Achieved {
				continue
			}
			allowed := base.opsOrCap(ba)*5/4 + 10
			if got := r.opsOrCap(*ca); got > allowed {
				regressions = append(regressions,
					fmt.Sprintf("%s/%s: queries-to-target regressed %d → %d (allowed ≤ %d)", bs.Scenario, ba.Arm, ba.OpsToTarget, got, allowed))
			}
		}
	}
	return regressions
}
