package shell

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/wal"
)

func newShell(t *testing.T) *Shell {
	t.Helper()
	return New(engine.New(engine.Config{Space: core.Config{IMax: 1000, P: 100}}))
}

// mustEval evaluates a command, failing the test on error.
func mustEval(t *testing.T, s *Shell, cmd string) Result {
	t.Helper()
	r, err := s.EvalCtx(context.Background(), cmd)
	if err != nil {
		t.Fatalf("EvalCtx(%q): %v", cmd, err)
	}
	return r
}

func mustFail(t *testing.T, s *Shell, cmd string) {
	t.Helper()
	if _, err := s.EvalCtx(context.Background(), cmd); err == nil {
		t.Fatalf("EvalCtx(%q) should fail", cmd)
	}
}

func TestLex(t *testing.T) {
	toks, err := lex(`INSERT into t VALUES (1, 'it''s', -5)`)
	if err != nil {
		t.Fatal(err)
	}
	want := []token{
		{tokWord, "INSERT"}, {tokWord, "INTO"}, {tokWord, "T"}, {tokWord, "VALUES"},
		{tokPunct, "("}, {tokNumber, "1"}, {tokPunct, ","},
		{tokString, "it's"}, {tokPunct, ","}, {tokNumber, "-5"}, {tokPunct, ")"},
	}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %v", toks)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, toks[i], want[i])
		}
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := lex("'unterminated"); err == nil {
		t.Error("unterminated string should fail")
	}
	if _, err := lex("a - b"); err == nil {
		t.Error("stray minus should fail")
	}
	if _, err := lex("a ! b"); err == nil {
		t.Error("unknown char should fail")
	}
}

func TestNoopsAndHelp(t *testing.T) {
	s := newShell(t)
	if r := mustEval(t, s, ""); r.Output != "" || r.Quit {
		t.Error("empty line should be a no-op")
	}
	if r := mustEval(t, s, "-- just a comment"); r.Output != "" {
		t.Error("comment should be a no-op")
	}
	if r := mustEval(t, s, "help"); !strings.Contains(r.Output, "CREATE TABLE") {
		t.Error("help text missing")
	}
	if r := mustEval(t, s, "exit"); !r.Quit {
		t.Error("exit should quit")
	}
	if r := mustEval(t, s, "QUIT"); !r.Quit {
		t.Error("quit should quit")
	}
	mustFail(t, s, "frobnicate")
	mustFail(t, s, "( weird")
}

func TestCreateInsertSelectRoundTrip(t *testing.T) {
	s := newShell(t)
	r := mustEval(t, s, "CREATE TABLE flights (airport VARCHAR, delay INT)")
	if !strings.Contains(r.Output, "created table flights") {
		t.Errorf("output = %q", r.Output)
	}
	mustEval(t, s, "INSERT INTO flights VALUES ('ORD', 12), ('FRA', 30), ('ORD', 5)")
	r = mustEval(t, s, "SELECT * FROM flights WHERE airport = 'ORD'")
	if !strings.Contains(r.Output, "2 row(s)") {
		t.Errorf("output = %q", r.Output)
	}
	if !strings.Contains(r.Output, `"ORD" 12`) || !strings.Contains(r.Output, `"ORD" 5`) {
		t.Errorf("rows missing: %q", r.Output)
	}
	r = mustEval(t, s, "SELECT * FROM flights WHERE delay BETWEEN 10 AND 40")
	if !strings.Contains(r.Output, "2 row(s)") {
		t.Errorf("between output = %q", r.Output)
	}
	// Full scan is reported before any index exists.
	if !strings.Contains(r.Output, "full scan") {
		t.Errorf("mechanism missing: %q", r.Output)
	}
}

func TestCreateIndexAndBufferLifecycle(t *testing.T) {
	s := newShell(t)
	mustEval(t, s, "CREATE TABLE t (k INT, pad VARCHAR)")
	// Enough rows for several pages.
	var sb strings.Builder
	sb.WriteString("INSERT INTO t VALUES ")
	pad := strings.Repeat("x", 200)
	for i := 0; i < 200; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("(")
		sb.WriteString(itoa(i % 50))
		sb.WriteString(", '")
		sb.WriteString(pad)
		sb.WriteString("')")
	}
	mustEval(t, s, sb.String())

	r := mustEval(t, s, "CREATE PARTIAL INDEX ON t (k) COVERING 0 TO 24")
	if !strings.Contains(r.Output, "BETWEEN 0 AND 24") {
		t.Errorf("output = %q", r.Output)
	}

	// Covered query hits.
	r = mustEval(t, s, "SELECT * FROM t WHERE k = 10")
	if !strings.Contains(r.Output, "partial index hit") {
		t.Errorf("expected hit: %q", r.Output)
	}
	// Uncovered query runs the indexing scan and builds the buffer.
	r = mustEval(t, s, "SELECT * FROM t WHERE k = 40")
	if !strings.Contains(r.Output, "indexing scan") {
		t.Errorf("expected indexing scan: %q", r.Output)
	}
	r = mustEval(t, s, "SELECT * FROM t WHERE k = 41")
	if !strings.Contains(r.Output, "skipped") || strings.Contains(r.Output, " 0 skipped") {
		t.Errorf("expected skips on repeat: %q", r.Output)
	}

	// Introspection.
	r = mustEval(t, s, "SHOW BUFFERS")
	if !strings.Contains(r.Output, "t.k:") || !strings.Contains(r.Output, "space used") {
		t.Errorf("SHOW BUFFERS = %q", r.Output)
	}
	r = mustEval(t, s, "SHOW TABLES")
	if !strings.Contains(r.Output, "t (") && !strings.Contains(r.Output, "t (k INTEGER") {
		t.Errorf("SHOW TABLES = %q", r.Output)
	}
	r = mustEval(t, s, "SHOW INDEXES")
	if !strings.Contains(r.Output, "t.k: covering BETWEEN 0 AND 24") {
		t.Errorf("SHOW INDEXES = %q", r.Output)
	}
}

func TestCreateSetCoverageIndex(t *testing.T) {
	s := newShell(t)
	mustEval(t, s, "CREATE TABLE a (airport VARCHAR, pad VARCHAR)")
	mustEval(t, s, "INSERT INTO a VALUES ('ORD', 'x'), ('FRA', 'x'), ('JFK', 'x')")
	r := mustEval(t, s, "CREATE PARTIAL INDEX ON a (airport) COVERING ('ORD', 'JFK')")
	if !strings.Contains(r.Output, "IN (2 values)") {
		t.Errorf("output = %q", r.Output)
	}
	r = mustEval(t, s, "SELECT * FROM a WHERE airport = 'ORD'")
	if !strings.Contains(r.Output, "partial index hit") {
		t.Errorf("hit missing: %q", r.Output)
	}
	r = mustEval(t, s, "SELECT * FROM a WHERE airport = 'FRA'")
	if !strings.Contains(r.Output, "1 row(s)") {
		t.Errorf("FRA row missing: %q", r.Output)
	}
}

func TestShellErrors(t *testing.T) {
	s := newShell(t)
	mustFail(t, s, "CREATE TABLE") // truncated
	mustFail(t, s, "CREATE VIEW v")
	mustFail(t, s, "CREATE TABLE t (a BLOB)")
	mustEval(t, s, "CREATE TABLE t (a INT)")
	mustFail(t, s, "CREATE TABLE t (a INT)") // duplicate
	mustFail(t, s, "INSERT INTO missing VALUES (1)")
	mustFail(t, s, "INSERT INTO t VALUES (1, 2)")  // arity
	mustFail(t, s, "INSERT INTO t VALUES ('x')")   // kind
	mustFail(t, s, "INSERT INTO t VALUES (1) (2)") // missing comma
	mustFail(t, s, "SELECT * FROM missing WHERE a = 1")
	mustFail(t, s, "SELECT * FROM t WHERE nope = 1")
	mustFail(t, s, "SELECT * FROM t WHERE a < 1") // unsupported op
	mustFail(t, s, "SELECT a FROM t WHERE a = 1") // projection unsupported
	mustFail(t, s, "SHOW NONSENSE")
	mustFail(t, s, "CREATE PARTIAL INDEX ON t (nope) COVERING 1 TO 2")
	mustFail(t, s, "CREATE PARTIAL INDEX ON missing (a) COVERING 1 TO 2")
	mustFail(t, s, "CREATE PARTIAL INDEX ON t (a) COVERING")
	mustFail(t, s, "CREATE PARTIAL INDEX ON t (a) COVERING 1 UNTIL 2")
}

func TestShowOnEmptyEngine(t *testing.T) {
	s := newShell(t)
	if r := mustEval(t, s, "SHOW TABLES"); r.Output != "no tables" {
		t.Errorf("SHOW TABLES = %q", r.Output)
	}
	if r := mustEval(t, s, "SHOW BUFFERS"); r.Output != "no index buffers" {
		t.Errorf("SHOW BUFFERS = %q", r.Output)
	}
	if r := mustEval(t, s, "SHOW INDEXES"); r.Output != "no indexes" {
		t.Errorf("SHOW INDEXES = %q", r.Output)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

func TestExplainCommand(t *testing.T) {
	s := newShell(t)
	mustEval(t, s, "CREATE TABLE t (k INT, pad VARCHAR)")
	mustEval(t, s, "INSERT INTO t VALUES (1, 'x'), (40, 'y')")
	mustEval(t, s, "CREATE PARTIAL INDEX ON t (k) COVERING 0 TO 24")
	r := mustEval(t, s, "EXPLAIN SELECT * FROM t WHERE k = 10")
	if !strings.Contains(r.Output, "partial index hit") {
		t.Errorf("explain hit = %q", r.Output)
	}
	r = mustEval(t, s, "EXPLAIN SELECT * FROM t WHERE k = 40")
	if !strings.Contains(r.Output, "indexing scan") {
		t.Errorf("explain miss = %q", r.Output)
	}
	r = mustEval(t, s, "EXPLAIN SELECT * FROM t WHERE k BETWEEN 10 AND 40")
	if !strings.Contains(r.Output, "indexing scan") {
		t.Errorf("explain range = %q", r.Output)
	}
	mustFail(t, s, "EXPLAIN INSERT INTO t VALUES (1, 'x')")
	mustFail(t, s, "EXPLAIN")
}

func TestSaveCommand(t *testing.T) {
	// In-memory engine: SAVE fails cleanly.
	mustFail(t, newShell(t), "SAVE")

	// DataDir-backed engine: SAVE persists, and a fresh engine loads it.
	dir := t.TempDir()
	cfg := engine.Config{DataDir: dir, Space: core.Config{IMax: 100, P: 50}}
	s := New(engine.New(cfg))
	mustEval(t, s, "CREATE TABLE t (a INT, b VARCHAR)")
	mustEval(t, s, "INSERT INTO t VALUES (7, 'seven')")
	if r := mustEval(t, s, "SAVE"); r.Output != "database saved" {
		t.Errorf("SAVE = %q", r.Output)
	}
	loaded, err := engine.Load(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	s2 := New(loaded)
	r := mustEval(t, s2, "SELECT * FROM t WHERE a = 7")
	if !strings.Contains(r.Output, "1 row(s)") || !strings.Contains(r.Output, `"seven"`) {
		t.Errorf("reloaded select = %q", r.Output)
	}
}

func TestDeleteCommand(t *testing.T) {
	s := newShell(t)
	mustEval(t, s, "CREATE TABLE t (a INT, b VARCHAR)")
	mustEval(t, s, "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (1, 'z')")
	r := mustEval(t, s, "DELETE FROM t WHERE a = 1")
	if !strings.Contains(r.Output, "deleted 2 row(s)") {
		t.Errorf("output = %q", r.Output)
	}
	r = mustEval(t, s, "SELECT * FROM t WHERE a = 2")
	if !strings.Contains(r.Output, "1 row(s)") {
		t.Errorf("survivor missing: %q", r.Output)
	}
	r = mustEval(t, s, "SELECT * FROM t WHERE a = 1")
	if !strings.Contains(r.Output, "0 row(s)") {
		t.Errorf("deleted rows still visible: %q", r.Output)
	}
	mustFail(t, s, "DELETE FROM missing WHERE a = 1")
	mustFail(t, s, "DELETE FROM t WHERE nope = 1")
	mustFail(t, s, "DELETE t WHERE a = 1")
}

func TestUpdateCommand(t *testing.T) {
	s := newShell(t)
	mustEval(t, s, "CREATE TABLE t (a INT, b VARCHAR)")
	mustEval(t, s, "INSERT INTO t VALUES (1, 'x'), (2, 'y')")
	r := mustEval(t, s, "UPDATE t SET b = 'changed' WHERE a = 1")
	if !strings.Contains(r.Output, "updated 1 row(s)") {
		t.Errorf("output = %q", r.Output)
	}
	r = mustEval(t, s, "SELECT * FROM t WHERE a = 1")
	if !strings.Contains(r.Output, `"changed"`) {
		t.Errorf("update not visible: %q", r.Output)
	}
	// Cross-column update through indexes keeps maintenance consistent.
	mustEval(t, s, "CREATE PARTIAL INDEX ON t (a) COVERING 0 TO 10")
	mustEval(t, s, "UPDATE t SET a = 99 WHERE b = 'changed'")
	r = mustEval(t, s, "SELECT * FROM t WHERE a = 99")
	if !strings.Contains(r.Output, "1 row(s)") {
		t.Errorf("moved row missing: %q", r.Output)
	}
	// Kind mismatch is rejected before any row changes.
	mustFail(t, s, "UPDATE t SET a = 'nan' WHERE a = 99")
	mustFail(t, s, "UPDATE t SET nope = 1 WHERE a = 99")
	mustFail(t, s, "UPDATE missing SET a = 1 WHERE a = 1")
}

// TestInsertAllOrNothing: a multi-row INSERT whose later tuple is
// mistyped or malformed fails before its first row is applied.
func TestInsertAllOrNothing(t *testing.T) {
	s := newShell(t)
	mustEval(t, s, "CREATE TABLE t (a INT, b INT)")
	mustFail(t, s, "INSERT INTO t VALUES (1, 2), (3, 'x')")
	mustFail(t, s, "INSERT INTO t VALUES (5, 6), (7 8)")
	mustFail(t, s, "INSERT INTO t VALUES (9, 10), (11)")
	n, err := s.eng.Table("t").Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("failed INSERTs left %d row(s), want 0", n)
	}
	if r := mustEval(t, s, "INSERT INTO t VALUES (1, 2), (3, 4)"); r.Rows != 2 {
		t.Fatalf("valid INSERT = %+v", r)
	}
}

// TestStatementCommitsOnce: a multi-row INSERT, DELETE and UPDATE each
// commit once, and under group commit with no other committer each
// costs exactly one fsync. A one-row Table.Insert is still durable when
// it returns.
func TestStatementCommitsOnce(t *testing.T) {
	eng := engine.New(engine.Config{DataDir: t.TempDir(), WAL: engine.WALConfig{SyncPolicy: wal.SyncBatch}})
	defer eng.Close()
	s := New(eng)
	mustEval(t, s, "CREATE TABLE t (a INT, b VARCHAR)")
	var tuples []string
	for i := 0; i < 20; i++ {
		tuples = append(tuples, fmt.Sprintf("(%d, 'row%d')", i%4, i))
	}
	for _, c := range []struct {
		stmt string
		rows int
	}{
		{"INSERT INTO t VALUES " + strings.Join(tuples, ", "), 20},
		{"DELETE FROM t WHERE a = 1", 5},
		{"UPDATE t SET b = 'changed' WHERE a = 2", 5},
	} {
		verb := strings.Fields(c.stmt)[0]
		before := eng.WALStats()
		if r := mustEval(t, s, c.stmt); r.Rows != c.rows {
			t.Fatalf("%s: %d row(s), want %d", verb, r.Rows, c.rows)
		}
		after := eng.WALStats()
		if got := after.Appends - before.Appends; got != uint64(c.rows) {
			t.Errorf("%s: %d records, want %d", verb, got, c.rows)
		}
		if got := after.Commits - before.Commits; got != 1 {
			t.Errorf("%s: %d commits, want 1", verb, got)
		}
		if got := after.Syncs - before.Syncs; got != 1 {
			t.Errorf("%s: %d fsyncs, want 1", verb, got)
		}
	}

	batch := engine.New(engine.Config{DataDir: t.TempDir()}) // group commit
	defer batch.Close()
	tb, err := batch.CreateTable("t", storage.MustSchema(storage.Column{Name: "a", Kind: storage.KindInt64}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Insert(storage.NewTuple(storage.Int64Value(1))); err != nil {
		t.Fatal(err)
	}
	if tel, _ := batch.WALTelemetry(); tel.DurableLSN < tel.AppendedLSN {
		t.Fatalf("Insert returned with the log durable through %d, its record is %d", tel.DurableLSN, tel.AppendedLSN)
	}
}

func TestVacuumCommand(t *testing.T) {
	s := newShell(t)
	mustEval(t, s, "CREATE TABLE t (a INT, b VARCHAR)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO t VALUES ")
	pad := strings.Repeat("w", 400)
	for i := 0; i < 100; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("(" + itoa(i%10) + ", '" + pad + "')")
	}
	mustEval(t, s, sb.String())
	mustEval(t, s, "DELETE FROM t WHERE a = 0")
	mustEval(t, s, "DELETE FROM t WHERE a = 1")
	r := mustEval(t, s, "VACUUM t")
	if !strings.Contains(r.Output, "vacuumed t:") {
		t.Errorf("output = %q", r.Output)
	}
	r = mustEval(t, s, "SELECT * FROM t WHERE a = 5")
	if !strings.Contains(r.Output, "10 row(s)") {
		t.Errorf("post-vacuum rows = %q", r.Output)
	}
	mustFail(t, s, "VACUUM missing")
	mustFail(t, s, "VACUUM")
}

func TestShowStats(t *testing.T) {
	s := newShell(t)
	if r := mustEval(t, s, "SHOW STATS"); r.Output != "no queries recorded" {
		t.Errorf("empty stats = %q", r.Output)
	}
	mustEval(t, s, "CREATE TABLE t (a INT, b VARCHAR)")
	mustEval(t, s, "INSERT INTO t VALUES (1, 'x'), (2, 'y')")
	mustEval(t, s, "SELECT * FROM t WHERE a = 1")
	mustEval(t, s, "SELECT * FROM t WHERE a BETWEEN 1 AND 2")
	r := mustEval(t, s, "SHOW STATS")
	if !strings.Contains(r.Output, "t.a") || !strings.Contains(r.Output, "2") {
		t.Errorf("stats = %q", r.Output)
	}
}

func TestDropIndexCommand(t *testing.T) {
	s := newShell(t)
	mustEval(t, s, "CREATE TABLE t (a INT, b VARCHAR)")
	mustEval(t, s, "INSERT INTO t VALUES (1, 'x')")
	mustFail(t, s, "DROP INDEX ON t (a)") // none yet
	mustEval(t, s, "CREATE PARTIAL INDEX ON t (a) COVERING 0 TO 10")
	r := mustEval(t, s, "DROP INDEX ON t (a)")
	if !strings.Contains(r.Output, "dropped index on t(a)") {
		t.Errorf("output = %q", r.Output)
	}
	if r := mustEval(t, s, "SHOW INDEXES"); r.Output != "no indexes" {
		t.Errorf("indexes after drop = %q", r.Output)
	}
	r = mustEval(t, s, "SELECT * FROM t WHERE a = 1")
	if !strings.Contains(r.Output, "full scan") {
		t.Errorf("post-drop mechanism = %q", r.Output)
	}
	mustFail(t, s, "DROP INDEX ON missing (a)")
	mustFail(t, s, "DROP INDEX ON t (nope)")
	mustFail(t, s, "DROP TABLE t")
}

func TestShowTimeline(t *testing.T) {
	s := newShell(t)
	r := mustEval(t, s, "SHOW TIMELINE")
	if !strings.Contains(r.Output, "timeline sampling is off") {
		t.Errorf("disabled timeline = %q", r.Output)
	}

	s.eng.Timeline().Enable(true)
	if r = mustEval(t, s, "SHOW TIMELINE"); !strings.Contains(r.Output, "no timeline samples yet") {
		t.Errorf("empty timeline = %q", r.Output)
	}

	mustEval(t, s, "CREATE TABLE t (a INT, b VARCHAR)")
	mustEval(t, s, "INSERT INTO t VALUES (1, 'x'), (30, 'y'), (31, 'z')")
	mustEval(t, s, "CREATE PARTIAL INDEX ON t (a) COVERING 0 TO 10")
	mustEval(t, s, "SELECT * FROM t WHERE a = 30") // miss: builds the buffer
	mustEval(t, s, "SELECT * FROM t WHERE a = 31")
	r = mustEval(t, s, "SHOW TIMELINE")
	for _, want := range []string{"buffer", "coverage", "t.a", "@1", "coverage target 95%"} {
		if !strings.Contains(r.Output, want) {
			t.Errorf("SHOW TIMELINE missing %q:\n%s", want, r.Output)
		}
	}

	mustFail(t, s, "SHOW NONSENSE")
}
