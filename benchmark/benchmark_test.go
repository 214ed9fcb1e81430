package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// harness re-executes os.Executable() for every measured child.
func TestMain(m *testing.M) {
	started := time.Now()
	if os.Getenv(childEnv) != "" {
		childMain(started)
	}
	os.Exit(m.Run())
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricJSON
		Bound *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricJSON `json:"per_layer"`
}

type metricJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesHarness is the drift check: the names, units
// and directions the gate file declares are exactly the harness's.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].Name || w.Why != specs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, harness %q/%q", i, w.Name, w.Why, specs[i].Name, specs[i].Why)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, got []metricJSON, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i, g := range got {
			if (metricDef{g.Name, g.Unit, g.Better}) != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, harness %+v", kind, i, g, want[i])
			}
			if !name.MatchString(g.Name) || !unit.MatchString(g.Unit) || seen[g.Name] {
				t.Errorf("%s metric %+v breaks the name/unit syntax or repeats", kind, g)
			}
			seen[g.Name] = true
		}
	}
	e2e := make([]metricJSON, len(b.EndToEnd))
	for i, m := range b.EndToEnd {
		e2e[i] = m.metricJSON
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s needs a bound in (0, 0.25]", m.Name)
		}
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", b.RunSeconds)
	}
}

// TestSmoke runs every workload small (5 k rows, 300 ms window) with the
// ladder at 200 ops, through the same child processes a full run uses —
// including dml_durable's SIGKILL and recovery check.
func TestSmoke(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			cfg := config{seed: 1, window: 300 * time.Millisecond, traced: true, dir: t.TempDir(),
				rows: 5000, ladderOps: 200, setupReps: 1}
			r, err := runWorkload(cfg, sp.Name)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("correct=%v failed=%d attempted=%d (correct covers the ladder's cross-depth counts and the recovery check)",
					r.Correct, r.Failed, r.Attempted)
			}
			for _, group := range []struct {
				defs []metricDef
				got  metrics
			}{{endToEnd, r.EndToEnd}, {perLayer, r.PerLayer}} {
				if len(group.got) != len(group.defs) {
					t.Errorf("%d metrics emitted, %d declared", len(group.got), len(group.defs))
				}
				for _, d := range group.defs {
					v, ok := group.got[d.Name]
					if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
						t.Errorf("metric %s: emitted=%v value=%v unit=%q", d.Name, ok, v.Value, v.Unit)
					}
				}
			}
			for _, d := range endToEnd {
				if r.EndToEnd[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; it must never be 0", d.Name, r.EndToEnd[d.Name].Value)
				}
			}
			if _, err := os.Stat(cfg.dir + "/spans.jsonl"); err != nil {
				t.Errorf("the ladder left no spans: %v", err)
			}

			small := sp.scale(cfg.rows, cfg.ladderOps)
			rows := dataset(cfg.seed, small.Rows)
			if again := streamSHA(small, cfg.seed, rows); again != r.StreamSHA {
				t.Errorf("seed %d gave stream %s in the run and %s here", cfg.seed, r.StreamSHA, again)
			}
			if other := streamSHA(small, cfg.seed+1, dataset(cfg.seed+1, small.Rows)); other == r.StreamSHA {
				t.Errorf("seeds %d and %d gave the same stream", cfg.seed, cfg.seed+1)
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	q1, q2, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}
