package bench

import (
	"testing"

	"repro/internal/engine"
)

// TestFig6ConvergenceTimeline runs the paper's experiment-1 workload
// (uncovered uniform draws, unlimited space — the Fig. 5/6 setting) with
// the adaptation timeline enabled and checks the convergence detector
// reports what the figure shows: coverage reaches the 95% target within
// the run, monotonically, with no regression.
func TestFig6ConvergenceTimeline(t *testing.T) {
	var captured *engine.Engine
	SetEngineObserver(func(e *engine.Engine) {
		captured = e
		e.Timeline().Enable(true)
	})
	defer SetEngineObserver(nil)

	o := Options{Rows: 5000, Queries: 60, Seed: 1}
	if _, err := RunFig6(o); err != nil {
		t.Fatal(err)
	}
	if captured == nil {
		t.Fatal("engine observer never fired")
	}

	convs := captured.Convergence()
	if len(convs) != 1 {
		t.Fatalf("convergence verdicts = %d, want 1", len(convs))
	}
	c := convs[0]
	if c.Buffer != "t.a" {
		t.Errorf("buffer = %q, want t.a", c.Buffer)
	}
	if !c.Achieved {
		t.Fatalf("coverage never reached %g: %+v", c.Target, c)
	}
	if c.QueriesToTarget == 0 || c.QueriesToTarget > uint64(o.Queries) {
		t.Errorf("queries-to-target = %d, want within (0, %d]", c.QueriesToTarget, o.Queries)
	}
	if c.Regressed {
		t.Errorf("query-only workload regressed: %+v", c)
	}
	if c.Queries != uint64(o.Queries) {
		t.Errorf("series queries = %d, want %d", c.Queries, o.Queries)
	}

	// With unlimited space the Fig. 6 buffer ends fully built: the
	// coverage curve must be non-decreasing and end at 1.
	all := captured.Timeline().Series()
	if len(all) != 1 || all[0].Buffer != "t.a" {
		t.Fatalf("series = %+v, want t.a alone", all)
	}
	prev := -1.0
	for i, sm := range all[0].Samples {
		if sm.Coverage < prev {
			t.Fatalf("coverage regressed at sample %d: %g -> %g", i, prev, sm.Coverage)
		}
		prev = sm.Coverage
	}
	if prev != 1.0 {
		t.Errorf("final coverage = %g, want 1.0 (unlimited space)", prev)
	}
}
