package repro

import (
	"context"
	"strings"
	"testing"

	"repro/internal/storage"
)

func openFlights(t *testing.T, o Options) *Table {
	t.Helper()
	db := MustOpen(o)
	tb, err := db.CreateTable("flights",
		Int64Column("delay"),
		StringColumn("airport"),
		StringColumn("payload"),
	)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestPublicAPIBasics(t *testing.T) {
	db := MustOpen(Options{})
	tb, err := db.CreateTable("flights", Int64Column("delay"), StringColumn("airport"))
	if err != nil {
		t.Fatal(err)
	}
	rid, err := tb.Insert(12, "ORD")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Insert(30); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := tb.Insert("x", 1); err == nil {
		t.Error("kind mismatch should fail")
	}
	if _, err := tb.Insert(struct{}{}, "y"); err == nil {
		t.Error("unsupported type should fail")
	}

	rows, _, err := tb.Query("airport", "ORD")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].RID != rid {
		t.Fatalf("rows = %v", rows)
	}
	d, err := rows[0].Int64("delay")
	if err != nil || d != 12 {
		t.Errorf("delay = %d, %v", d, err)
	}
	a, err := rows[0].String("airport")
	if err != nil || a != "ORD" {
		t.Errorf("airport = %q, %v", a, err)
	}
	if _, err := rows[0].Int64("airport"); err == nil {
		t.Error("Int64 on VARCHAR should fail")
	}
	if _, err := rows[0].String("delay"); err == nil {
		t.Error("String on INTEGER should fail")
	}
	if _, err := rows[0].Int64("missing"); err == nil {
		t.Error("missing column should fail")
	}

	if db.Table("flights") == nil || db.Table("nope") != nil {
		t.Error("Table lookup wrong")
	}
	if _, _, err := tb.Query("missing", 1); err == nil {
		t.Error("query on missing column should fail")
	}
	if _, _, err := tb.Query("delay", struct{}{}); err == nil {
		t.Error("query with bad key type should fail")
	}
}

func TestPublicAPIUpdateDelete(t *testing.T) {
	tb := openFlights(t, Options{})
	rid, err := tb.Insert(int64(5), "FRA", "p")
	if err != nil {
		t.Fatal(err)
	}
	nr, err := tb.Update(rid, int64(7), "FRA", "p")
	if err != nil {
		t.Fatal(err)
	}
	rows, _, _ := tb.Query("delay", 7)
	if len(rows) != 1 {
		t.Fatalf("updated row not found")
	}
	if err := tb.Delete(nr); err != nil {
		t.Fatal(err)
	}
	if n, _ := tb.Count(); n != 0 {
		t.Errorf("count after delete = %d", n)
	}
}

// TestPublicAPIEndToEnd walks the paper's full story through the facade:
// partial index, misses building the buffer, skips, redefinition.
func TestPublicAPIEndToEnd(t *testing.T) {
	tb := openFlights(t, Options{IMax: 10000, PartitionPages: 100, Seed: 7})
	pad := strings.Repeat("p", 400)
	const rows = 2000
	for i := 0; i < rows; i++ {
		if _, err := tb.Insert(int64(i%100), airportFor(i), pad); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.CreatePartialRangeIndex("delay", 0, 49); err != nil {
		t.Fatal(err)
	}
	if err := tb.CreatePartialRangeIndex("delay", 0, 9); err == nil {
		t.Error("duplicate index should fail")
	}

	// Covered query: hit.
	_, hit, err := tb.Query("delay", 10)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.PartialHit {
		t.Error("covered query should hit")
	}

	// Uncovered query: miss builds the buffer; the repeat skips.
	_, m1, err := tb.Query("delay", 80)
	if err != nil {
		t.Fatal(err)
	}
	_, m2, err := tb.Query("delay", 81)
	if err != nil {
		t.Fatal(err)
	}
	if m2.PagesSkipped != tb.NumPages() {
		t.Errorf("second miss skipped %d of %d pages", m2.PagesSkipped, tb.NumPages())
	}
	if m2.PagesRead >= m1.PagesRead {
		t.Errorf("no speedup: %d then %d pages", m1.PagesRead, m2.PagesRead)
	}

	// Buffer stats surface through the facade.
	bs := MustOpen(Options{}).BufferStats()
	if len(bs) != 0 {
		t.Error("fresh DB should have no buffers")
	}
	// (The table's own DB instance is embedded; query its stats via a
	// fresh handle path.)

	// Redefinition resets and re-covers.
	if err := tb.RedefineRangeIndex("delay", 50, 99); err != nil {
		t.Fatal(err)
	}
	_, s, err := tb.Query("delay", 80)
	if err != nil {
		t.Fatal(err)
	}
	if !s.PartialHit {
		t.Error("redefined index should cover 80")
	}
}

func airportFor(i int) string {
	airports := []string{"ORD", "FRA", "HEL", "JFK", "MUC"}
	return airports[i%len(airports)]
}

func TestPublicAPISetIndexAndStats(t *testing.T) {
	db := MustOpen(Options{IMax: 1000, PartitionPages: 10})
	tb, err := db.CreateTable("t", StringColumn("airport"), StringColumn("pad"))
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 300)
	us := []string{"ORD", "JFK", "LAX", "SFO"}
	eu := []string{"FRA", "MUC", "HEL", "TXL"}
	for i := 0; i < 1000; i++ {
		var a string
		if i%2 == 0 {
			a = us[(i/2)%4]
		} else {
			a = eu[(i/2)%4]
		}
		if _, err := tb.Insert(a, pad); err != nil {
			t.Fatal(err)
		}
	}
	// The paper's Figure 2: a partial index over U.S. airports only.
	if err := tb.CreatePartialSetIndex("airport", "ORD", "JFK", "LAX", "SFO"); err != nil {
		t.Fatal(err)
	}
	_, s, err := tb.Query("airport", "ORD")
	if err != nil {
		t.Fatal(err)
	}
	if !s.PartialHit {
		t.Error("US airport should hit")
	}
	rows, s, err := tb.Query("airport", "FRA")
	if err != nil {
		t.Fatal(err)
	}
	if s.PartialHit {
		t.Error("FRA should miss the partial index")
	}
	if len(rows) == 0 {
		t.Error("FRA rows missing")
	}
	if db.SpaceUsed() == 0 {
		t.Error("miss should have charged the space")
	}
	bs := db.BufferStats()
	if len(bs) != 1 || bs[0].Entries == 0 || bs[0].BufferedPages == 0 {
		t.Errorf("buffer stats = %+v", bs)
	}
	if bs[0].Name != "t.airport" {
		t.Errorf("buffer name = %q", bs[0].Name)
	}
}

func TestDisableIndexBuffer(t *testing.T) {
	db := MustOpen(Options{DisableIndexBuffer: true})
	tb, err := db.CreateTable("t", Int64Column("k"), StringColumn("pad"))
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 200)
	for i := 0; i < 300; i++ {
		if _, err := tb.Insert(int64(i%50), pad); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.CreatePartialRangeIndex("k", 0, 24); err != nil {
		t.Fatal(err)
	}
	_, s1, _ := tb.Query("k", 40)
	_, s2, _ := tb.Query("k", 40)
	if !s1.FullScan || !s2.FullScan || s2.PagesRead != s1.PagesRead {
		t.Error("baseline mode should keep paying full scans")
	}
	if len(db.BufferStats()) != 0 {
		t.Error("baseline mode should have no buffers")
	}
}

func TestPublicAPIQueryRange(t *testing.T) {
	tb := openFlights(t, Options{IMax: 10000, PartitionPages: 100, Seed: 7})
	pad := strings.Repeat("p", 300)
	for i := 0; i < 1500; i++ {
		if _, err := tb.Insert(int64(i%200), airportFor(i), pad); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.CreatePartialRangeIndex("delay", 0, 99); err != nil {
		t.Fatal(err)
	}

	// Covered range hits.
	rows, stats, err := tb.QueryRange("delay", 10, 19)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.PartialHit {
		t.Error("covered range should hit")
	}
	if len(rows) != 80 { // keys 10..19 appear 8 times each
		t.Errorf("rows = %d, want 80", len(rows))
	}

	// Straddling range: complete despite skips after build-out.
	if _, _, err := tb.QueryRange("delay", 150, 160); err != nil {
		t.Fatal(err)
	}
	rows, stats, err = tb.QueryRange("delay", 90, 110)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PartialHit {
		t.Error("straddling range should miss")
	}
	if len(rows) != 157 { // keys 90..110 are 21 values; 1500/200=7.5 -> 7 or 8 each
		// exact count: keys k in [90,110]; i%200==k occurs 8 times for k<100, 7 for k>=100
		// 90..99: 10*8=80, 100..110: 11*7=77 -> 157
		t.Errorf("rows = %d, want 157", len(rows))
	}
	if stats.PagesSkipped == 0 {
		t.Error("expected page skips after build-out")
	}

	// Errors.
	if _, _, err := tb.QueryRange("nope", 1, 2); err == nil {
		t.Error("bad column should fail")
	}
	if _, _, err := tb.QueryRange("delay", struct{}{}, 2); err == nil {
		t.Error("bad lo type should fail")
	}
	if _, _, err := tb.QueryRange("delay", 1, struct{}{}); err == nil {
		t.Error("bad hi type should fail")
	}
}

func TestAutoTunerThroughFacade(t *testing.T) {
	db := MustOpen(Options{Seed: 4})
	tb, err := db.CreateTable("e", Int64Column("k"), StringColumn("pad"))
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("s", 250)
	for i := 0; i < 4000; i++ {
		if _, err := tb.Insert(int64(1+i%1000), pad); err != nil {
			t.Fatal(err)
		}
	}
	// AutoTune before an index exists: error.
	if _, err := tb.AutoTune("k", AutoTunePolicy{}); err == nil {
		t.Error("AutoTune without index should fail")
	}
	if _, err := tb.AutoTune("nope", AutoTunePolicy{}); err == nil {
		t.Error("AutoTune on missing column should fail")
	}
	if err := tb.CreatePartialRangeIndex("k", 1, 100); err != nil {
		t.Fatal(err)
	}
	tuner, err := tb.AutoTune("k", AutoTunePolicy{Window: 20, MissRate: 0.8, BucketWidth: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := tuner.Query(struct{}{}); err == nil {
		t.Error("bad key type should fail")
	}

	// Sustained shift to [800, 899].
	sawAdapt := false
	for q := 0; q < 60; q++ {
		rows, _, adapted, err := tuner.Query(int64(800 + q%100))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4 {
			t.Fatalf("query %d: %d rows, want 4", q, len(rows))
		}
		sawAdapt = sawAdapt || adapted
	}
	if !sawAdapt || tuner.Adaptations() != 1 {
		t.Errorf("adaptations = %d, sawAdapt = %v", tuner.Adaptations(), sawAdapt)
	}
	// Post-adaptation: hits.
	_, stats, _, err := tuner.Query(int64(850))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.PartialHit {
		t.Error("post-adaptation query should hit")
	}
}

func TestPublicAPIExplain(t *testing.T) {
	tb := openFlights(t, Options{})
	pad := strings.Repeat("p", 300)
	for i := 0; i < 600; i++ {
		if _, err := tb.Insert(int64(i%100), airportFor(i), pad); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.CreatePartialRangeIndex("delay", 0, 49); err != nil {
		t.Fatal(err)
	}
	plan, err := tb.Explain("delay", 10)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.PartialHit {
		t.Errorf("plan = %+v", plan)
	}
	plan, err = tb.Explain("delay", 80)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Mechanism != "indexing scan" {
		t.Errorf("plan = %+v", plan)
	}
	// EXPLAIN must not have built anything.
	if got := tb.t.Buffer(tb.schema.ColumnIndex("delay")); got.EntryCount() != 0 {
		t.Error("Explain mutated the buffer")
	}
	rp, err := tb.ExplainRange("delay", 40, 60)
	if err != nil {
		t.Fatal(err)
	}
	if rp.PartialHit {
		t.Errorf("straddling range plan = %+v", rp)
	}
	if _, err := tb.Explain("nope", 1); err == nil {
		t.Error("bad column should fail")
	}
	if _, err := tb.Explain("delay", struct{}{}); err == nil {
		t.Error("bad key should fail")
	}
	if _, err := tb.ExplainRange("nope", 1, 2); err == nil {
		t.Error("bad column should fail")
	}
	if _, err := tb.ExplainRange("delay", struct{}{}, 2); err == nil {
		t.Error("bad lo should fail")
	}
	if _, err := tb.ExplainRange("delay", 1, struct{}{}); err == nil {
		t.Error("bad hi should fail")
	}
}

func TestPublicAPIPersistence(t *testing.T) {
	dir := t.TempDir()
	db := MustOpen(Options{DataDir: dir})
	tb, err := db.CreateTable("flights", StringColumn("airport"), Int64Column("delay"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := tb.Insert(airportFor(i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.CreatePartialRangeIndex("delay", 0, 49); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenExisting(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tb2 := db2.Table("flights")
	if tb2 == nil {
		t.Fatal("table missing")
	}
	rows, stats, err := tb2.Query("delay", 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !stats.PartialHit {
		t.Errorf("rows=%d hit=%v", len(rows), stats.PartialHit)
	}
	a, err := rows[0].String("airport")
	if err != nil || a != airportFor(25) {
		t.Errorf("airport = %q, %v", a, err)
	}
	// Checkpointing an in-memory database fails cleanly.
	if err := MustOpen(Options{}).Checkpoint(); err == nil {
		t.Error("Checkpoint without DataDir should fail")
	}
	if _, err := OpenExisting(Options{}); err == nil {
		t.Error("OpenExisting without DataDir should fail")
	}
}

func TestPublicAPIVacuum(t *testing.T) {
	tb := openFlights(t, Options{})
	pad := strings.Repeat("v", 400)
	var rids []RID
	for i := 0; i < 400; i++ {
		rid, err := tb.Insert(int64(i%50), airportFor(i), pad)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	for i := 0; i < len(rids); i += 2 {
		if err := tb.Delete(rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	before, after, err := tb.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("no shrink: %d -> %d", before, after)
	}
	if n, _ := tb.Count(); n != 200 {
		t.Errorf("rows = %d", n)
	}
}

func TestTraceReport(t *testing.T) {
	tb := openFlights(t, Options{})
	if _, err := tb.Insert(int64(5), "ORD", "p"); err != nil {
		t.Fatal(err)
	}
	db := MustOpen(Options{})
	if db.TraceReport() != "no queries recorded" {
		t.Errorf("fresh report = %q", db.TraceReport())
	}
	if _, _, err := tb.Query("delay", 5); err != nil {
		t.Fatal(err)
	}
	// tb belongs to its own DB; query its engine's report through a
	// second query and the table handle's underlying engine.
	// (The facade exposes the report on the DB that owns the table.)
}

func TestTraceReportThroughDB(t *testing.T) {
	db := MustOpen(Options{})
	tb, err := db.CreateTable("t", Int64Column("k"), StringColumn("p"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Insert(int64(1), "x"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tb.Query("k", 1); err != nil {
		t.Fatal(err)
	}
	rep := db.TraceReport()
	if !strings.Contains(rep, "t.k") {
		t.Errorf("report = %q", rep)
	}
}

// TestQueryKeyTypeMismatch pins that a query key whose type does not
// match its column is refused — at the engine, the facade and the shell,
// for queries and EXPLAIN alike — before any scan runs, as INSERT
// refuses such a value. Without the check a string key on an INTEGER
// column ran an indexing scan that buffered the whole table on the way
// to an empty answer, and a mixed-type range matched by kind order.
func TestQueryKeyTypeMismatch(t *testing.T) {
	db := MustOpen(Options{})
	defer db.Close()
	tb, err := db.CreateTable("t", Int64Column("k"), StringColumn("s"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := tb.Insert(int64(i%200), "x"); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.CreatePartialRangeIndex("k", 0, 100); err != nil {
		t.Fatal(err)
	}
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "schema wants") {
			t.Errorf("%s: err = %v, want a type mismatch", what, err)
		}
	}

	ctx := context.Background()
	_, _, err = tb.t.QueryRangeCtx(ctx, 0, storage.StringValue("abc"), storage.StringValue("abc"))
	refused("engine QueryRangeCtx", err)
	_, err = tb.t.ExplainRange(0, storage.Int64Value(5), storage.StringValue("a"))
	refused("engine ExplainRange", err)

	_, _, err = tb.Query("k", "abc")
	refused(`Query("k", "abc")`, err)
	_, _, err = tb.QueryRange("k", 5, "a")
	refused(`QueryRange("k", 5, "a")`, err)
	_, _, err = tb.Query("s", 7)
	refused(`Query("s", 7)`, err)
	_, err = tb.Explain("k", "abc")
	refused(`Explain("k", "abc")`, err)

	for _, stmt := range []string{
		"SELECT * FROM t WHERE k = 'zz'",
		"SELECT * FROM t WHERE k BETWEEN 1 AND 'z'",
		"EXPLAIN SELECT * FROM t WHERE k = 'zz'",
		"DELETE FROM t WHERE k = 'zz'",
	} {
		_, err := db.Exec(ctx, stmt)
		refused(stmt, err)
	}

	if used := db.SpaceUsed(); used != 0 {
		t.Errorf("refused queries indexed %d Index Buffer entries", used)
	}
	if n, _ := tb.Count(); n != 2000 {
		t.Errorf("Count = %d after refused statements, want 2000", n)
	}
	rows, _, err := tb.Query("k", 150)
	if err != nil || len(rows) != 10 {
		t.Errorf("well-typed query: %d rows, err %v", len(rows), err)
	}
}
