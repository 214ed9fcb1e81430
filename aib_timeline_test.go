package repro

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/flight"
	"repro/internal/timeline"
)

// TestTimelineFacadeAndReplay is the acceptance test for the adaptation
// timeline: a miss-heavy workload converges to the coverage target, and
// the JSONL telemetry export replays to exactly the curve the live
// Timeline() API reports.
func TestTimelineFacadeAndReplay(t *testing.T) {
	db := MustOpen(Options{})
	defer db.Close()
	tb, err := db.CreateTable("t", Int64Column("a"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := tb.Insert(int64(i % 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.CreatePartialRangeIndex("a", 0, 9); err != nil {
		t.Fatal(err)
	}

	var export bytes.Buffer
	db.EnableTelemetrySink(&export)

	// Uncovered draws, as in the paper's experiment 1: each miss indexes
	// more pages until the whole table is covered.
	for q := 0; q < 40; q++ {
		if _, _, err := tb.Query("a", int64(10+q%90)); err != nil {
			t.Fatal(err)
		}
	}

	convs := db.Convergence()
	if len(convs) != 1 {
		t.Fatalf("convergence verdicts = %d, want 1", len(convs))
	}
	c := convs[0]
	if !c.Achieved {
		t.Fatalf("workload did not converge: %+v", c)
	}
	if c.QueriesToTarget == 0 || c.QueriesToTarget > 40 {
		t.Errorf("queries-to-target = %d", c.QueriesToTarget)
	}

	// Live curve: (query ordinal -> coverage) from the retained series.
	live := map[uint64]float64{}
	series := db.Timeline()
	if len(series) != 1 || series[0].Buffer != "t.a" {
		t.Fatalf("series = %+v", series)
	}
	for _, sm := range series[0].Samples {
		if sm.Event == timeline.EventQuery {
			live[sm.Query] = sm.Coverage
		}
	}

	// Replayed curve from the JSONL export.
	st := db.TelemetryStats()
	if st.Errors != 0 || st.Lines == 0 {
		t.Fatalf("telemetry stats = %+v", st)
	}
	replayed := map[uint64]float64{}
	spans := 0
	n, err := timeline.ScanRecords(bytes.NewReader(export.Bytes()),
		func(rec timeline.SampleRecord) error {
			if rec.Buffer != "t.a" {
				return fmt.Errorf("unexpected buffer %q", rec.Buffer)
			}
			if rec.Event == timeline.EventQuery {
				replayed[rec.Query] = rec.Coverage
			}
			return nil
		},
		func(flight.Span) error { spans++; return nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(n) != st.Lines {
		t.Errorf("decoded %d records, sink wrote %d", n, st.Lines)
	}
	if spans == 0 {
		t.Error("export contains no spans despite indexing scans")
	}

	if len(replayed) != 40 {
		t.Fatalf("replayed %d query samples, want 40", len(replayed))
	}
	if len(live) != len(replayed) {
		t.Fatalf("live curve has %d points, replay %d", len(live), len(replayed))
	}
	for q, cov := range live {
		got, ok := replayed[q]
		if !ok || got != cov {
			t.Errorf("curve diverges at query %d: live %g, replay %v", q, cov, got)
		}
	}

	// The replayed curve must itself show convergence at the target.
	crossed := uint64(0)
	for q := uint64(1); q <= 40; q++ {
		if replayed[q] >= c.Target {
			crossed = q
			break
		}
	}
	if crossed != c.QueriesToTarget {
		t.Errorf("replayed crossing at query %d, detector says %d", crossed, c.QueriesToTarget)
	}

	// Detach: stats freeze, recording continues.
	db.EnableTelemetrySink(nil)
	if _, _, err := tb.Query("a", 55); err != nil {
		t.Fatal(err)
	}
	if db.TelemetryStats() != (TelemetryStats{}) {
		t.Errorf("stats after detach = %+v", db.TelemetryStats())
	}
	if got := db.Convergence()[0].Queries; got != 41 {
		t.Errorf("recording stopped after detach: %d queries", got)
	}
}

// TestTimelineDisabledFacade pins the default-off contract at the
// facade: no samples, no verdicts, zero-value telemetry stats.
func TestTimelineDisabledFacade(t *testing.T) {
	db := newObsDB(t)
	defer db.Close()
	if got := db.Timeline(); len(got) != 0 {
		t.Errorf("Timeline() = %d series while disabled", len(got))
	}
	if got := db.Convergence(); len(got) != 0 {
		t.Errorf("Convergence() = %d verdicts while disabled", len(got))
	}
	if db.TelemetryStats() != (TelemetryStats{}) {
		t.Errorf("TelemetryStats() = %+v without a sink", db.TelemetryStats())
	}
}
