package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/flight"
	"repro/internal/timeline"
)

func openDB(t *testing.T, o repro.Options) *repro.DB {
	t.Helper()
	db, err := repro.Open(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func startServer(t *testing.T, db *repro.DB, cfg Config) (*Server, string) {
	t.Helper()
	srv := New(db, cfg)
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, addr.String()
}

// TestWireCodesRoundTrip pins the protocol error surface: every code
// maps to its sentinel and back, including through wrapping.
func TestWireCodesRoundTrip(t *testing.T) {
	for _, wc := range wireCodes {
		if got := CodeOf(wc.Err); got != wc.Code {
			t.Errorf("CodeOf(%v) = %q, want %q", wc.Err, got, wc.Code)
		}
		wrapped := fmt.Errorf("statement failed: %w", wc.Err)
		if got := CodeOf(wrapped); got != wc.Code {
			t.Errorf("CodeOf(wrapped %v) = %q, want %q", wc.Err, got, wc.Code)
		}
		sentinel := ErrFromCode(wc.Code)
		if sentinel == nil || !errors.Is(wrapped, sentinel) {
			t.Errorf("ErrFromCode(%q) = %v does not match the original error", wc.Code, sentinel)
		}
	}
	if got := CodeOf(errors.New("anything else")); got != CodeBadStatement {
		t.Errorf("CodeOf(unknown) = %q, want %q", got, CodeBadStatement)
	}
	if got := ErrFromCode(CodeBadStatement); got != nil {
		t.Errorf("ErrFromCode(bad_statement) = %v, want nil", got)
	}
	if got := ErrFromCode("no_such_code"); got != nil {
		t.Errorf("ErrFromCode(unknown) = %v, want nil", got)
	}
}

// protoConn is a tiny test client over the line protocol.
type protoConn struct {
	t    *testing.T
	conn net.Conn
	sc   *bufio.Scanner
}

func dialProto(t *testing.T, addr string) *protoConn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	return &protoConn{t: t, conn: conn, sc: sc}
}

func (c *protoConn) do(stmt string) response {
	c.t.Helper()
	if _, err := fmt.Fprintf(c.conn, "%s\n", stmt); err != nil {
		c.t.Fatalf("write %q: %v", stmt, err)
	}
	if !c.sc.Scan() {
		c.t.Fatalf("no response to %q: %v", stmt, c.sc.Err())
	}
	var r response
	if err := json.Unmarshal(c.sc.Bytes(), &r); err != nil {
		c.t.Fatalf("bad response %q: %v", c.sc.Text(), err)
	}
	return r
}

func TestServerProtocol(t *testing.T) {
	db := openDB(t, repro.Options{Tenants: []repro.Tenant{{Name: "acme"}}})
	_, addr := startServer(t, db, Config{})
	c := dialProto(t, addr)

	if r := c.do("TENANT nope"); r.OK || r.Code != CodeTenantUnknown {
		t.Fatalf("unknown tenant: got %+v", r)
	}
	if r := c.do("TENANT acme"); !r.OK {
		t.Fatalf("handshake failed: %+v", r)
	}
	if r := c.do("CREATE TABLE t (a INT, b VARCHAR)"); !r.OK {
		t.Fatalf("create: %+v", r)
	}
	if r := c.do("INSERT INTO t VALUES (1, 'one'), (2, 'two')"); !r.OK || r.Rows != 2 {
		t.Fatalf("insert: %+v", r)
	}
	if r := c.do("SELECT * FROM t WHERE a = 2"); !r.OK || r.Rows != 1 || !strings.Contains(r.Output, "two") {
		t.Fatalf("select: %+v", r)
	}
	if r := c.do("SELECT * FROM t WHERE a BETWEEN 1 AND 2"); !r.OK || r.Rows != 2 {
		t.Fatalf("range select: %+v", r)
	}
	if r := c.do("garbage statement !!"); r.OK || r.Code != CodeBadStatement {
		t.Fatalf("bad statement: got %+v", r)
	}
	if r := c.do("SELECT * FROM t WHERE a = 'two'"); r.OK || r.Code != CodeBadStatement {
		t.Fatalf("key of the wrong type: got %+v", r)
	}
	// The tenant's table is invisible to a fresh default-tenant session.
	c2 := dialProto(t, addr)
	if r := c2.do("SELECT * FROM t WHERE a = 1"); r.OK {
		t.Fatalf("tenant table leaked to default session: %+v", r)
	}
	// EXIT answers then closes.
	if r := c.do("EXIT"); !r.OK {
		t.Fatalf("exit: %+v", r)
	}
	_ = c.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if c.sc.Scan() {
		t.Fatalf("connection still open after EXIT: %q", c.sc.Text())
	}
}

func TestServerStrictQuotaOverWire(t *testing.T) {
	db := openDB(t, repro.Options{
		SpaceLimit: 1000,
		Tenants:    []repro.Tenant{{Name: "hard", Quota: 5, Strict: true}},
	})
	_, addr := startServer(t, db, Config{})
	c := dialProto(t, addr)
	for _, stmt := range []string{
		"TENANT hard",
		"CREATE TABLE t (a INT, b VARCHAR)",
		"CREATE PARTIAL INDEX ON t (a) COVERING 1 TO 5",
	} {
		if r := c.do(stmt); !r.OK {
			t.Fatalf("%s: %+v", stmt, r)
		}
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO t VALUES ")
	for i := 0; i < 200; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'x')", i%50+1)
	}
	if r := c.do(sb.String()); !r.OK {
		t.Fatalf("insert: %+v", r)
	}
	// Hammer uncovered keys until the quota fills; the strict tenant
	// must then see quota_exceeded on the wire, not silent degradation.
	sawQuota := false
	for k := int64(6); k <= 50; k++ {
		r := c.do(fmt.Sprintf("SELECT * FROM t WHERE a = %d", k))
		if !r.OK {
			if r.Code != CodeQuotaExceeded {
				t.Fatalf("want quota_exceeded, got %+v", r)
			}
			sawQuota = true
			break
		}
	}
	if !sawQuota {
		t.Fatal("strict tenant never hit its quota")
	}
}

// TestServerStressQuotas replays seeded query-only streams from many
// concurrent connections and asserts the hard multi-tenant invariants:
// every tenant within its quota, the ledger sum within SpaceLimit, the
// quota-tight tenant demonstrably degraded, no cross-tenant evictions
// without overcommit — and no goroutine outlives Shutdown.
func TestServerStressQuotas(t *testing.T) {
	before := runtime.NumGoroutine()

	const spaceLimit = 2000
	db := openDB(t, repro.Options{
		SpaceLimit: spaceLimit,
		Tenants: []repro.Tenant{
			{Name: "acme", Quota: 1500},
			{Name: "tiny", Quota: 10},
		},
	})
	srv := New(db, Config{Workers: 8})
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultLoadConfig()
	cfg.Conns = 32
	cfg.QueriesPerConn = 30
	cfg.Tenants = []string{"acme", "tiny"}
	cfg.Rows = 400
	cfg.Domain = 100
	cfg.Covered = 20
	cfg.HitRate = 0.3
	if testing.Short() {
		cfg.Conns = 8
		cfg.QueriesPerConn = 10
	}
	if err := SetupLoad(addr.String(), cfg); err != nil {
		t.Fatal(err)
	}
	rep, err := RunLoad(addr.String(), cfg, db)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Errorf("replay saw %d statement errors", rep.Errors)
	}
	if want := cfg.Conns * cfg.QueriesPerConn; rep.Statements != want {
		t.Errorf("statements = %d, want %d", rep.Statements, want)
	}

	if v := VerifyQuotas(db, spaceLimit); len(v) != 0 {
		t.Fatalf("quota invariants violated: %v", v)
	}
	for _, ts := range db.TenantStats() {
		if ts.Name == "tiny" && ts.Degraded == 0 {
			t.Error("tiny tenant never degraded despite a 10-entry quota")
		}
		// Quotas (1500 + 10) fit within SpaceLimit 2000, so no scan ever
		// needs to displace another tenant's entries.
		if ts.Evicted != 0 {
			t.Errorf("tenant %q lost %d entries cross-tenant without overcommit", ts.Name, ts.Evicted)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := net.DialTimeout("tcp", addr.String(), time.Second); err == nil {
		t.Error("listener still accepting after Shutdown")
	}

	// Handler goroutines must all be gone; allow unrelated runtime noise.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerShutdownDrain checks the graceful path: idle connections
// are woken and closed, Shutdown returns without the grace period
// expiring, and statements finish with statements counted.
func TestServerShutdownDrain(t *testing.T) {
	db := openDB(t, repro.Options{})
	srv := New(db, Config{})
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	c := dialProto(t, addr.String())
	if r := c.do("CREATE TABLE t (a INT, b VARCHAR)"); !r.OK {
		t.Fatalf("create: %+v", r)
	}
	// The connection now sits idle in a read; Shutdown must not wait for
	// its read deadline.
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("graceful drain took %v", d)
	}
	if got := srv.Statements(); got != 1 {
		t.Errorf("statements = %d, want 1", got)
	}
}

// lockedBuffer is a telemetry sink target the test reads while the
// server may still be writing completed flight records to it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) snapshot() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return bytes.Clone(b.buf.Bytes())
}

// TestServerTracePropagation pins the end-to-end trace-context path: a
// client-supplied TRACE ID must come back in the response JSON, appear
// on the span events the statement emitted to the telemetry stream, and
// key the statement's flight record — for that exact statement.
func TestServerTracePropagation(t *testing.T) {
	db := openDB(t, repro.Options{})
	db.EnableFlightRecorder(time.Hour) // record everything, capture nothing as slow
	var stream lockedBuffer
	db.EnableTelemetrySink(&stream)
	_, addr := startServer(t, db, Config{})
	c := dialProto(t, addr)

	for _, stmt := range []string{
		"CREATE TABLE t (a INT, b VARCHAR)",
		"CREATE PARTIAL INDEX ON t (a) COVERING 1 TO 5",
	} {
		if r := c.do(stmt); !r.OK {
			t.Fatalf("%s: %+v", stmt, r)
		}
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO t VALUES ")
	for i := 0; i < 120; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'x')", i%40+1)
	}
	if r := c.do(sb.String()); !r.OK {
		t.Fatalf("insert: %+v", r)
	}

	// The traced statement misses the partial index, so it runs an
	// indexing scan and emits span events under the supplied trace ID.
	const traceID = "client-trace-42"
	const stmt = "SELECT * FROM t WHERE a = 30"
	r := c.do("TRACE " + traceID + " " + stmt)
	if !r.OK || r.Rows == 0 {
		t.Fatalf("traced select: %+v", r)
	}
	if r.Trace != traceID {
		t.Fatalf("response trace = %q, want the client-supplied %q", r.Trace, traceID)
	}

	// Flight record: exactly this statement, under this trace.
	recs := db.FlightRecords(traceID, "", 0, 0)
	if len(recs) != 1 {
		t.Fatalf("FlightRecords(%q) = %d records, want 1", traceID, len(recs))
	}
	rec := recs[0]
	if rec.Stmt != stmt {
		t.Errorf("flight record stmt = %q, want %q", rec.Stmt, stmt)
	}
	if rec.Tenant != "default" || rec.Table != "t" || rec.Column != "a" {
		t.Errorf("flight attribution wrong: %+v", rec)
	}
	if rec.Mechanism != "indexing-scan" {
		t.Errorf("mechanism = %q, want indexing-scan", rec.Mechanism)
	}
	if rec.PagesRead == 0 || len(rec.Spans) == 0 {
		t.Errorf("flight record missing execution detail: %+v", rec)
	}

	// Span stream: the global spans carrying the trace ID are exactly the
	// flight record's spans — every kind, Algorithm 2's included.
	type spanKey struct {
		kind, target string
		page, n      int
	}
	want := map[spanKey]int{}
	for _, sp := range rec.Spans {
		want[spanKey{sp.Kind, sp.Target, sp.Page, sp.N}]++
	}
	got := map[spanKey]int{}
	if _, err := timeline.ScanRecords(bytes.NewReader(stream.snapshot()), nil, func(sp flight.Span) error {
		if sp.Trace == traceID {
			got[spanKey{sp.Kind, sp.Target, sp.Page, sp.N}]++
		}
		return nil
	}, nil); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("global spans under %q = %v, flight record spans = %v", traceID, got, want)
	}

	// Without a TRACE prefix the server mints: the response still
	// carries a (server-generated) ID that keys a flight record.
	r2 := c.do("SELECT * FROM t WHERE a = 31")
	if !r2.OK || !strings.HasPrefix(r2.Trace, "aib-") {
		t.Fatalf("minted trace missing: %+v", r2)
	}
	if got := db.FlightRecords(r2.Trace, "", 0, 0); len(got) != 1 {
		t.Errorf("minted trace %q keys %d flight records, want 1", r2.Trace, len(got))
	}

	// With the recorder off and no prefix, the response omits the field.
	db.DisableFlightRecorder()
	if r3 := c.do("SELECT * FROM t WHERE a = 32"); r3.Trace != "" {
		t.Errorf("recorder off: response still carries trace %q", r3.Trace)
	}
	// A client-supplied ID is still echoed even with the recorder off.
	if r4 := c.do("TRACE still-echoed SELECT * FROM t WHERE a = 33"); r4.Trace != "still-echoed" {
		t.Errorf("recorder off: client trace not echoed: %+v", r4)
	}
}

// TestServerMaxLineBytes: a line of MaxLineBytes runs; a longer one is
// answered with one bad_statement line, then the connection closes.
func TestServerMaxLineBytes(t *testing.T) {
	db := openDB(t, repro.Options{})
	const limit = 64
	srv, addr := startServer(t, db, Config{MaxLineBytes: limit})
	c := dialProto(t, addr)

	fits := "SELECT * FROM t WHERE a = 1" + strings.Repeat(" ", limit-27)
	if r := c.do(fits); r.OK || r.Code != CodeBadStatement || !strings.Contains(r.Error, `no table "t"`) {
		t.Fatalf("%d-byte line: got %+v, want the statement's own error", len(fits), r)
	}
	if _, err := fmt.Fprintf(c.conn, "%s\n", fits+"x"); err != nil {
		t.Fatal(err)
	}
	_ = c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if !c.sc.Scan() {
		t.Fatalf("no response to an over-long line: %v", c.sc.Err())
	}
	want := `{"ok":false,"code":"bad_statement","error":"statement line exceeds 64 bytes"}`
	if got := c.sc.Text(); got != want {
		t.Fatalf("over-long line answered %s, want %s", got, want)
	}
	if c.sc.Scan() {
		t.Fatalf("connection still open after an over-long line: %q", c.sc.Text())
	}
	if got := srv.Errors(); got != 2 {
		t.Fatalf("Errors() = %d, want 2 (the bad statement and the over-long line)", got)
	}
}

// TestTenantStmt pins the TENANT handshake rule — the whitespace-split
// "TENANT <name>", keyword in any case — and its cost on every other
// request line: a SELECT is turned away without allocating.
func TestTenantStmt(t *testing.T) {
	for line, want := range map[string]string{
		"TENANT acme":        "acme",
		" \ttenant  acme\t ": "acme",
		"Tenant x":           "x",
		"TENANT":             "",
		"TENANT a b":         "",
		"TENANTS acme":       "",
		"TENANTacme":         "",
		"SELECT * FROM t":    "",
		"":                   "",
	} {
		name, ok := tenantStmt(line)
		if name != want || ok != (want != "") {
			t.Errorf("tenantStmt(%q) = %q, %v; want %q", line, name, ok, want)
		}
	}
	line := "SELECT * FROM t WHERE a BETWEEN 3 AND 9"
	if avg := testing.AllocsPerRun(100, func() { tenantStmt(line) }); avg != 0 {
		t.Errorf("tenantStmt allocates %v per non-handshake line, want 0", avg)
	}
}
