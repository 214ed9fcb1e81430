package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
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
	"repro/internal/workload"
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
	c, err := tryDialProto(t, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.conn.Close() })
	return c
}

// tryDialProto is dialProto for goroutines other than the test's own:
// it reports the error, and the caller closes the connection.
func tryDialProto(t *testing.T, addr string) (*protoConn, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	return &protoConn{t: t, conn: conn, sc: sc}, nil
}

func (c *protoConn) do(stmt string) response {
	c.t.Helper()
	r, err := c.send(stmt)
	if err != nil {
		c.t.Fatal(err)
	}
	return r
}

// send is do for goroutines other than the test's own: it reports a
// transport or framing failure instead of failing the test.
func (c *protoConn) send(stmt string) (response, error) {
	if _, err := fmt.Fprintf(c.conn, "%s\n", stmt); err != nil {
		return response{}, fmt.Errorf("write %q: %w", stmt, err)
	}
	if !c.sc.Scan() {
		return response{}, fmt.Errorf("no response to %q: %v", stmt, c.sc.Err())
	}
	var r response
	if err := json.Unmarshal(c.sc.Bytes(), &r); err != nil {
		return response{}, fmt.Errorf("bad response %q: %w", c.sc.Text(), err)
	}
	return r, nil
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

// stressLoad shapes one TestServerStressQuotas run: a table per tenant
// of Rows keys drawn from [1, Domain] under a partial index covering
// [1, Covered], then Conns connections, round-robin over the tenants,
// each replaying Queries point SELECTs, HitRate of them covered. The
// replay issues only SELECTs: the per-tenant quota is a hard invariant
// for query traffic, so a replay that mixed in DML could not assert it.
type stressLoad struct {
	SpaceLimit      int
	Tenants         []repro.Tenant
	Workers         int
	Conns, Queries  int
	Rows            int
	Domain, Covered int64
	HitRate         float64
}

// TestServerStressQuotas replays seeded query-only streams from many
// concurrent connections and asserts the hard multi-tenant invariants:
// every tenant within its quota, the ledger sum within SpaceLimit, the
// quota-tight tenant demonstrably degraded, no cross-tenant evictions
// without overcommit — and no goroutine outlives Shutdown.
func TestServerStressQuotas(t *testing.T) {
	t.Run("small", func(t *testing.T) {
		l := stressLoad{
			SpaceLimit: 2000,
			Tenants:    []repro.Tenant{{Name: "acme", Quota: 1500}, {Name: "tiny", Quota: 10}},
			Workers:    8,
			Conns:      32,
			Queries:    30,
			Rows:       400,
			Domain:     100,
			Covered:    20,
			HitRate:    0.3,
		}
		if testing.Short() {
			l.Conns, l.Queries = 8, 10
		}
		stressQuotas(t, l)
	})
	// 200 connections on the default worker pool against quotas sized
	// like a deployment's: tenants acme:40000 and tiny:500.
	t.Run("full", func(t *testing.T) {
		if testing.Short() {
			t.Skip("200 connections × 20 queries; skipped under -short")
		}
		stressQuotas(t, stressLoad{
			SpaceLimit: 60000,
			Tenants:    []repro.Tenant{{Name: "acme", Quota: 40000}, {Name: "tiny", Quota: 500}},
			Conns:      200,
			Queries:    20,
			Rows:       2000,
			Domain:     1000,
			Covered:    100,
			HitRate:    0.5,
		})
	})
}

func stressQuotas(t *testing.T, l stressLoad) {
	before := runtime.NumGoroutine()

	db := openDB(t, repro.Options{SpaceLimit: l.SpaceLimit, Tenants: l.Tenants})
	srv := New(db, Config{Workers: l.Workers})
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}

	// Setup: one table per tenant, filled in 500-row INSERTs.
	for _, tn := range l.Tenants {
		c := dialProto(t, addr.String())
		for _, stmt := range []string{"TENANT " + tn.Name, "CREATE TABLE t (a INT, payload VARCHAR)"} {
			if r := c.do(stmt); !r.OK {
				t.Fatalf("%s: %+v", stmt, r)
			}
		}
		rng := rand.New(rand.NewSource(18))
		for lo := 0; lo < l.Rows; lo += 500 {
			var sb strings.Builder
			sb.WriteString("INSERT INTO t VALUES ")
			for i := lo; i < min(lo+500, l.Rows); i++ {
				if i > lo {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "(%d, 'p%d')", rng.Int63n(l.Domain)+1, i)
			}
			if r := c.do(sb.String()); !r.OK {
				t.Fatalf("tenant %s insert: %+v", tn.Name, r)
			}
		}
		if r := c.do(fmt.Sprintf("CREATE PARTIAL INDEX ON t (a) COVERING 1 TO %d", l.Covered)); !r.OK {
			t.Fatalf("tenant %s index: %+v", tn.Name, r)
		}
	}

	// Replay: each connection its own seeded stream.
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		statements int
		stmtErrs   int
		connErrs   []error
	)
	for i := 0; i < l.Conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n, bad, err := replayConn(t, addr.String(), l, i)
			mu.Lock()
			defer mu.Unlock()
			statements += n
			stmtErrs += bad
			if err != nil {
				connErrs = append(connErrs, fmt.Errorf("conn %d: %w", i, err))
			}
		}(i)
	}
	wg.Wait()
	if len(connErrs) != 0 {
		t.Fatalf("%d connections failed, first: %v", len(connErrs), connErrs[0])
	}
	if stmtErrs != 0 {
		t.Errorf("replay saw %d statement errors", stmtErrs)
	}
	if want := l.Conns * l.Queries; statements != want {
		t.Errorf("statements = %d, want %d", statements, want)
	}

	total := 0
	for _, ts := range db.TenantStats() {
		total += ts.Used
		if ts.Quota > 0 && ts.Used > ts.Quota {
			t.Errorf("tenant %q: used %d > quota %d", ts.Name, ts.Used, ts.Quota)
		}
		if ts.Name == "tiny" && ts.Degraded == 0 {
			t.Errorf("tiny tenant never degraded despite a %d-entry quota", ts.Quota)
		}
		// The quotas fit within SpaceLimit, so no scan ever needs to
		// displace another tenant's entries.
		if ts.Evicted != 0 {
			t.Errorf("tenant %q lost %d entries cross-tenant without overcommit", ts.Name, ts.Evicted)
		}
	}
	if total > l.SpaceLimit {
		t.Errorf("tenant ledgers sum to %d > SpaceLimit %d", total, l.SpaceLimit)
	}
	if used := db.SpaceUsed(); used > l.SpaceLimit {
		t.Errorf("space used %d > SpaceLimit %d", used, l.SpaceLimit)
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

// replayConn runs connection i of l's replay and returns the SELECTs it
// sent and how many of them failed; err is a dial or transport failure.
func replayConn(t *testing.T, addr string, l stressLoad, i int) (statements, failed int, err error) {
	c, err := tryDialProto(t, addr)
	if err != nil {
		return 0, 0, err
	}
	defer c.conn.Close()
	tenant := l.Tenants[i%len(l.Tenants)].Name
	if r, err := c.send("TENANT " + tenant); err != nil || !r.OK {
		return 0, 0, fmt.Errorf("TENANT %s: %+v %v", tenant, r, err)
	}
	rng := rand.New(rand.NewSource(1000*int64(i) + 8))
	draw := workload.WithHitRate(l.HitRate,
		workload.Uniform(1, l.Covered),
		workload.Uniform(l.Covered+1, l.Domain))
	for q := 0; q < l.Queries; q++ {
		r, err := c.send(fmt.Sprintf("SELECT * FROM t WHERE a = %d", draw(rng)))
		if err != nil {
			return statements, failed, err
		}
		statements++
		if !r.OK {
			failed++
		}
	}
	return statements, failed, nil
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
