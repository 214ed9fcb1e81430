package main

import (
	"os"
	"testing"

	"repro/internal/bench"
)

// TestRunAllFigures drives the CLI's dispatch for every figure at a tiny
// scale and every output format — the glue between flags and runners.
func TestRunAllFigures(t *testing.T) {
	// Silence stdout during the run; the CLI writes directly to it.
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() {
		os.Stdout = old
		devnull.Close()
	}()

	opts := bench.Options{Rows: 5000, Queries: 40, Seed: 1}
	for _, fig := range []string{"6", "7", "8", "9", "bridge", "corr", "churn"} {
		for _, format := range []string{"table", "tsv", "plot"} {
			if err := run(fig, opts, format, 10); err != nil {
				t.Errorf("run(%s, %s): %v", fig, format, err)
			}
		}
	}
	// Figures 1 and 3 ignore opts; run them once.
	if err := run("1", opts, "table", 50); err != nil {
		t.Errorf("run(1): %v", err)
	}
	if err := run("3", bench.Options{}, "tsv", 1); err != nil {
		t.Errorf("run(3): %v", err)
	}
	if err := run("nope", opts, "table", 1); err == nil {
		t.Error("unknown figure should fail")
	}
}

// TestCheckRobustnessFlags pins which -out/-baseline combinations the
// CLI accepts: both are robustness-only.
func TestCheckRobustnessFlags(t *testing.T) {
	for _, c := range []struct {
		robustness    bool
		out, baseline string
		ok            bool
	}{
		{false, "", "", true},
		{true, "", "", true},
		{true, "x.json", "", true},
		{true, "", "BENCH_robustness.json", true},
		{true, "x.json", "BENCH_robustness.json", true},
		{false, "x.json", "", false},
		{false, "", "BENCH_robustness.json", false},
		{false, "x.json", "BENCH_robustness.json", false},
	} {
		err := checkRobustnessFlags(c.robustness, c.out, c.baseline)
		if (err == nil) != c.ok {
			t.Errorf("checkRobustnessFlags(%v, %q, %q) = %v, want ok=%v", c.robustness, c.out, c.baseline, err, c.ok)
		}
	}
}
