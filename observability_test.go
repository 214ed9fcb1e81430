package repro

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/timeline"
)

// newObsDB builds a small database with a partial index and runs a hit
// and a miss so every monitor has data.
func newObsDB(t *testing.T) *DB {
	t.Helper()
	db := MustOpen(Options{})
	tb, err := db.CreateTable("t", Int64Column("a"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := tb.Insert(int64(i % 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.CreatePartialRangeIndex("a", 0, 20); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tb.Query("a", 5); err != nil { // hit
		t.Fatal(err)
	}
	if _, _, err := tb.Query("a", 60); err != nil { // miss: indexing scan
		t.Fatal(err)
	}
	return db
}

// TestDBTraceEvents reads span events from the one global stream, the
// telemetry sink: nothing emitted before the sink attaches reaches it,
// and a fresh indexing scan afterwards streams its full span sequence.
func TestDBTraceEvents(t *testing.T) {
	db := MustOpen(Options{})
	tb, err := db.CreateTable("t", Int64Column("a"), Int64Column("b"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := tb.Insert(int64(i%100), int64(i%100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.CreatePartialRangeIndex("a", 0, 20); err != nil {
		t.Fatal(err)
	}
	if err := tb.CreatePartialRangeIndex("b", 0, 20); err != nil {
		t.Fatal(err)
	}

	if _, _, err := tb.Query("a", 60); err != nil {
		t.Fatal(err)
	}

	// The miss on b runs a fresh indexing scan, so the stream sees the
	// full span sequence: admission, leadership, page selection and
	// page completion.
	var out bytes.Buffer
	db.EnableTelemetrySink(&out)
	if _, _, err := tb.Query("b", 70); err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]bool)
	if _, err := timeline.ScanRecords(&out, nil, func(sp flight.Span) error {
		kinds[sp.Kind] = true
		if sp.Seq == 0 {
			t.Error("span with zero sequence number")
		}
		if sp.Target != "t.b" {
			t.Errorf("span %+v: only the miss on b ran while the sink was attached", sp)
		}
		return nil
	}, nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"miss-admit", "scan-lead", "page-select", "page-complete"} {
		if !kinds[want] {
			t.Errorf("missing span kind %q (got %v)", want, kinds)
		}
	}
}

func TestDBLatencyStats(t *testing.T) {
	db := newObsDB(t)
	byMech := make(map[string]int)
	for _, l := range db.LatencyStats() {
		byMech[l.Mechanism] = l.Count
	}
	if byMech["hit"] != 1 || byMech["indexing-scan"] != 1 {
		t.Errorf("latency counts = %v, want one hit and one indexing-scan", byMech)
	}
}

func TestDBMetricsHandler(t *testing.T) {
	db := newObsDB(t)

	var sb strings.Builder
	if err := db.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "aib_shared_scan_misses_total 1") {
		t.Errorf("WriteMetrics output missing shared-scan counter:\n%s", sb.String())
	}

	srv := httptest.NewServer(db.MetricsHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics status %d", resp.StatusCode)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	for _, want := range []string{
		`aib_queries_total{table="t",column="a"} 2`,
		`aib_buffer_entries{buffer="t.a",tenant=""}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n---\n%s", want, body)
		}
	}
}

// execOK runs one statement through the front door and fails the test on
// error.
func execOK(t *testing.T, db *DB, stmt string) ExecResult {
	t.Helper()
	r, err := db.Exec(context.Background(), stmt)
	if err != nil {
		t.Fatalf("Exec(%q): %v", stmt, err)
	}
	return r
}

// TestFlightRecorderE2E drives statements through DB.Exec against a
// DataDir-backed database and checks the flight recorder captured them:
// minted trace IDs, query attribution, WAL commit accounting on DML,
// slow capture, SHOW SLOW rendering and the FlightRecords filter.
func TestFlightRecorderE2E(t *testing.T) {
	db := MustOpen(Options{DataDir: t.TempDir()})
	defer db.Close()
	db.EnableFlightRecorder(time.Hour) // capture everything, nothing is "slow" yet

	execOK(t, db, "CREATE TABLE t (a INT, b VARCHAR)")
	execOK(t, db, "CREATE PARTIAL INDEX ON t (a) COVERING 1 TO 20")
	for i := 0; i < 120; i++ {
		execOK(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, 'p%d')", i%40+1, i))
	}
	execOK(t, db, "SELECT * FROM t WHERE a = 30") // miss: indexing scan

	recs := db.RecentQueries(0)
	if len(recs) < 120 {
		t.Fatalf("recent ring holds %d records, want >= 120", len(recs))
	}
	sel := recs[0] // newest first: the SELECT
	if sel.Stmt != "SELECT * FROM t WHERE a = 30" || sel.Tenant != "default" {
		t.Fatalf("newest record is not the SELECT: %+v", sel)
	}
	if !strings.HasPrefix(sel.Trace, "aib-") {
		t.Errorf("embedded statement did not get a minted trace ID: %q", sel.Trace)
	}
	if sel.Table != "t" || sel.Column != "a" || sel.Mechanism != "indexing-scan" {
		t.Errorf("query attribution wrong: %+v", sel)
	}
	if sel.PagesRead == 0 || len(sel.Spans) == 0 {
		t.Errorf("SELECT record has no page/span detail: %+v", sel)
	}
	ins := recs[1] // an INSERT: durable on return, so WAL time was spent
	if ins.WALCommitNanos <= 0 || ins.WALBatch < 1 {
		t.Errorf("DML record missing WAL commit accounting: %+v", ins)
	}
	if sel.WALCommitNanos != 0 {
		t.Errorf("read-only record charged WAL time: %+v", sel)
	}

	// FlightRecords resolves the SELECT by its minted trace ID.
	byTrace := db.FlightRecords(sel.Trace, "", 0, 0)
	if len(byTrace) != 1 || byTrace[0].Seq != sel.Seq {
		t.Fatalf("FlightRecords(trace) = %+v, want exactly the SELECT", byTrace)
	}

	// Drop the threshold to 1ns: the next statement is captured as slow
	// and SHOW SLOW renders it.
	db.EnableFlightRecorder(1)
	execOK(t, db, "SELECT * FROM t WHERE a = 5") // hit
	slow := db.SlowQueries(0)
	if len(slow) == 0 {
		t.Fatal("no slow captures at a 1ns threshold")
	}
	out := execOK(t, db, "SHOW SLOW 5").Output
	if !strings.Contains(out, "SELECT * FROM t WHERE a = 5") {
		t.Errorf("SHOW SLOW does not list the slow SELECT:\n%s", out)
	}
	if !strings.Contains(out, "trace") || !strings.Contains(out, "wal_ms") {
		t.Errorf("SHOW SLOW header missing:\n%s", out)
	}

	st := db.FlightStats()
	if !st.Enabled || st.Completed < 123 || st.Slow == 0 {
		t.Errorf("FlightStats = %+v", st)
	}
}

// TestFlightRecorderDisabledInert mirrors TestTimelineDisabledIsInert
// at the statement layer: with the recorder off (the default), Exec
// leaves no records and no counters behind.
func TestFlightRecorderDisabledInert(t *testing.T) {
	db := newObsDB(t)
	defer db.Close()
	if db.FlightRecorderEnabled() {
		t.Fatal("flight recorder enabled by default")
	}
	execOK(t, db, "SELECT * FROM t WHERE a = 5")
	if n := len(db.RecentQueries(0)); n != 0 {
		t.Fatalf("disabled recorder captured %d records", n)
	}
	if st := db.FlightStats(); st.Enabled || st.Completed != 0 {
		t.Fatalf("disabled recorder counted: %+v", st)
	}
	out := execOK(t, db, "SHOW SLOW").Output
	if !strings.Contains(out, "off") {
		t.Errorf("SHOW SLOW with recorder off = %q, want an off notice", out)
	}

	// Enable/disable round-trip: records stop accruing after Disable.
	db.EnableFlightRecorder(0)
	execOK(t, db, "SELECT * FROM t WHERE a = 6")
	if n := len(db.RecentQueries(0)); n != 1 {
		t.Fatalf("enabled recorder captured %d records, want 1", n)
	}
	db.DisableFlightRecorder()
	execOK(t, db, "SELECT * FROM t WHERE a = 7")
	if n := len(db.RecentQueries(0)); n != 1 {
		t.Fatalf("disable did not stop capture: %d records", n)
	}
}
