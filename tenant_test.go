package repro

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestOptionsValidateTenants(t *testing.T) {
	cases := []struct {
		name    string
		tenants []Tenant
		wantErr string
	}{
		{"none", nil, ""},
		{"two tenants", []Tenant{{Name: "a", Quota: 10}, {Name: "b", Strict: true}}, ""},
		{"empty name", []Tenant{{Name: ""}}, "empty tenant name"},
		{"negative quota", []Tenant{{Name: "a", Quota: -1}}, "negative"},
		{"duplicate", []Tenant{{Name: "a"}, {Name: "a", Quota: 5}}, "duplicate tenant"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Open(Options{Tenants: tc.tenants})
			if err == nil {
				db.Close()
			}
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Open failed: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Open err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestExecFrontDoor(t *testing.T) {
	db := MustOpen(Options{})
	defer db.Close()
	ctx := context.Background()

	for _, stmt := range []string{
		"CREATE TABLE t (a INT, b VARCHAR)",
		"INSERT INTO t VALUES (1, 'one'), (2, 'two'), (2, 'more')",
		"CREATE PARTIAL INDEX ON t (a) COVERING 1 TO 1",
	} {
		if _, err := db.Exec(ctx, stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	res, err := db.Exec(ctx, "SELECT * FROM t WHERE a = 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 2 || res.Stats == nil || !strings.Contains(res.Output, "two") {
		t.Fatalf("select result: %+v", res)
	}
	if res, err := db.Exec(ctx, "EXIT"); err != nil || !res.Quit {
		t.Fatalf("EXIT = %+v, %v", res, err)
	}
	if _, err := db.Exec(ctx, "SELECT * FROM missing WHERE a = 1"); err == nil {
		t.Fatal("query on a missing table succeeded")
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := db.Exec(canceled, "SELECT * FROM t WHERE a = 2"); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Exec err = %v, want context.Canceled", err)
	}
}

func TestSessionTenantScope(t *testing.T) {
	db := MustOpen(Options{Tenants: []Tenant{{Name: "acme"}, {Name: "beta"}}})
	defer db.Close()
	ctx := context.Background()

	if _, err := db.Session("ghost"); !errors.Is(err, ErrTenantUnknown) {
		t.Fatalf("Session(ghost) err = %v, want ErrTenantUnknown", err)
	}
	acme, err := db.Session("acme")
	if err != nil {
		t.Fatal(err)
	}
	beta, err := db.Session("beta")
	if err != nil {
		t.Fatal(err)
	}
	if acme.Tenant() != "acme" {
		t.Errorf("Tenant() = %q", acme.Tenant())
	}

	// The same table name in three namespaces, without collision.
	for _, exec := range []func(context.Context, string) (ExecResult, error){
		db.Exec, acme.Exec, beta.Exec,
	} {
		if _, err := exec(ctx, "CREATE TABLE t (a INT, b VARCHAR)"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := acme.Exec(ctx, "INSERT INTO t VALUES (1, 'acme-row')"); err != nil {
		t.Fatal(err)
	}
	res, err := acme.Exec(ctx, "SELECT * FROM t WHERE a = 1")
	if err != nil || res.Rows != 1 {
		t.Fatalf("acme select: %+v, %v", res, err)
	}
	res, err = beta.Exec(ctx, "SELECT * FROM t WHERE a = 1")
	if err != nil || res.Rows != 0 {
		t.Fatalf("beta sees acme's rows: %+v, %v", res, err)
	}

	// CreateTenant after Open.
	if err := db.CreateTenant(Tenant{Name: "late", Quota: 7}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTenant(Tenant{Name: "late"}); err == nil {
		t.Error("duplicate late tenant accepted")
	}
	if _, err := db.Session("late"); err != nil {
		t.Errorf("Session(late) after CreateTenant: %v", err)
	}
}

// fillTenantTable creates t(a INT, payload VARCHAR) with rows rows over
// [1, domain] and a partial index covering [1, covered], via Exec.
func fillTenantTable(t *testing.T, exec func(context.Context, string) (ExecResult, error), rows, domain, covered int) {
	t.Helper()
	ctx := context.Background()
	if _, err := exec(ctx, "CREATE TABLE t (a INT, payload VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 200)
	const batch = 100
	for lo := 0; lo < rows; lo += batch {
		var sb strings.Builder
		sb.WriteString("INSERT INTO t VALUES ")
		for i := lo; i < lo+batch && i < rows; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, '%s')", i%domain+1, pad)
		}
		if _, err := exec(ctx, sb.String()); err != nil {
			t.Fatal(err)
		}
	}
	stmt := fmt.Sprintf("CREATE PARTIAL INDEX ON t (a) COVERING 1 TO %d", covered)
	if _, err := exec(ctx, stmt); err != nil {
		t.Fatal(err)
	}
}

func TestTenantQuotaDegradeAndStats(t *testing.T) {
	db := MustOpen(Options{SpaceLimit: 10000,
		Tenants: []Tenant{{Name: "tiny", Quota: 3}}})
	defer db.Close()
	sess, err := db.Session("tiny")
	if err != nil {
		t.Fatal(err)
	}
	fillTenantTable(t, sess.Exec, 200, 50, 5)

	ctx := context.Background()
	sawDegraded := false
	for k := 6; k <= 50; k++ {
		res, err := sess.Exec(ctx, fmt.Sprintf("SELECT * FROM t WHERE a = %d", k))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.Stats != nil && res.Stats.QuotaDegraded {
			sawDegraded = true
		}
	}
	if !sawDegraded {
		t.Fatal("tiny tenant never degraded")
	}
	stats := db.TenantStats()
	if len(stats) != 1 || stats[0].Name != "tiny" {
		t.Fatalf("TenantStats = %+v", stats)
	}
	ts := stats[0]
	if ts.Quota != 3 || ts.Strict {
		t.Errorf("ledger config: %+v", ts)
	}
	if ts.Used > ts.Quota {
		t.Errorf("used %d > quota %d", ts.Used, ts.Quota)
	}
	if ts.Degraded == 0 {
		t.Error("ledger Degraded = 0 despite degraded scans")
	}
}

func TestStrictTenantQuotaError(t *testing.T) {
	db := MustOpen(Options{SpaceLimit: 10000,
		Tenants: []Tenant{{Name: "hard", Quota: 3, Strict: true}}})
	defer db.Close()
	sess, err := db.Session("hard")
	if err != nil {
		t.Fatal(err)
	}
	fillTenantTable(t, sess.Exec, 200, 50, 5)

	ctx := context.Background()
	var quotaErr error
	for k := 6; k <= 50; k++ {
		if _, err := sess.Exec(ctx, fmt.Sprintf("SELECT * FROM t WHERE a = %d", k)); err != nil {
			quotaErr = err
			break
		}
	}
	if !errors.Is(quotaErr, ErrQuotaExceeded) {
		t.Fatalf("strict tenant err = %v, want ErrQuotaExceeded", quotaErr)
	}
}

// TestTenantTablesSurviveReopen closes and reopens a DataDir database
// whose tenant owns a table: the table must come back owned by that
// tenant — listed by its session, hidden from the default one — and its
// rebuilt buffer must charge the tenant's quota. Reopening without
// declaring the owner fails with ErrTenantUnknown naming the table.
func TestTenantTablesSurviveReopen(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	o := Options{DataDir: dir, SpaceLimit: 10000, Tenants: []Tenant{{Name: "acme", Quota: 500}}}
	db := MustOpen(o)
	acme, err := db.Session("acme")
	if err != nil {
		t.Fatal(err)
	}
	fillTenantTable(t, acme.Exec, 200, 50, 5)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = OpenExisting(o)
	if err != nil {
		t.Fatal(err)
	}
	if acme, err = db.Session("acme"); err != nil {
		t.Fatal(err)
	}
	res, err := acme.Exec(ctx, "SHOW TABLES")
	if err != nil || res.Rows != 1 || !strings.HasPrefix(res.Output, "t ") {
		t.Fatalf("acme SHOW TABLES after reopen = %+v, %v", res, err)
	}
	if res, err := db.Exec(ctx, "SHOW TABLES"); err != nil || res.Output != "no tables" {
		t.Fatalf("default SHOW TABLES after reopen = %+v, %v", res, err)
	}
	if tn := db.eng.Table("acme:t").Tenant(); tn == nil || tn.Name() != "acme" {
		t.Fatalf("acme:t tenant after reopen = %v", tn)
	}
	if _, err := acme.Exec(ctx, "SELECT * FROM t WHERE a = 20"); err != nil {
		t.Fatal(err)
	}
	if st := db.TenantStats(); len(st) != 1 || st[0].Used == 0 || st[0].Used != db.SpaceUsed() {
		t.Fatalf("miss after reopen not charged to acme: stats %+v, space used %d", st, db.SpaceUsed())
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	if db, err := OpenExisting(Options{DataDir: dir}); !errors.Is(err, ErrTenantUnknown) || !strings.Contains(fmt.Sprint(err), "acme:t") {
		if err == nil {
			db.Close()
		}
		t.Fatalf("reopen without acme: err = %v, want ErrTenantUnknown naming acme:t", err)
	}
}

// TestTimelineTenantFilter drives two tenants, then checks the
// /timeline endpoint's ?tenant= filter over the qualified table names.
func TestTimelineTenantFilter(t *testing.T) {
	db := MustOpen(Options{Tenants: []Tenant{{Name: "acme"}}})
	defer db.Close()
	db.EnableTimeline(true)

	acme, err := db.Session("acme")
	if err != nil {
		t.Fatal(err)
	}
	fillTenantTable(t, acme.Exec, 100, 20, 5)
	fillTenantTable(t, db.Exec, 100, 20, 5) // default tenant, same table name

	ctx := context.Background()
	for k := 6; k <= 15; k++ {
		stmt := fmt.Sprintf("SELECT * FROM t WHERE a = %d", k)
		if _, err := acme.Exec(ctx, stmt); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec(ctx, stmt); err != nil {
			t.Fatal(err)
		}
	}

	h := db.MetricsHandler()
	get := func(url string) struct {
		Series []struct {
			Table  string `json:"table"`
			Column string `json:"column"`
		} `json:"series"`
	} {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s = %d", url, rec.Code)
		}
		var resp struct {
			Series []struct {
				Table  string `json:"table"`
				Column string `json:"column"`
			} `json:"series"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	all := get("/timeline")
	if len(all.Series) < 2 {
		t.Fatalf("unfiltered series = %d, want both tenants'", len(all.Series))
	}
	acmeOnly := get("/timeline?tenant=acme")
	if len(acmeOnly.Series) == 0 {
		t.Fatal("?tenant=acme returned nothing")
	}
	for _, s := range acmeOnly.Series {
		if !strings.HasPrefix(s.Table, "acme:") {
			t.Errorf("?tenant=acme leaked table %q", s.Table)
		}
	}
	deflt := get("/timeline?tenant=%3Cdefault%3E")
	if len(deflt.Series) == 0 {
		t.Fatal("?tenant=<default> returned nothing")
	}
	for _, s := range deflt.Series {
		if strings.Contains(s.Table, ":") {
			t.Errorf("?tenant=<default> leaked table %q", s.Table)
		}
	}
}

// TestTableAndTenantNamesCannotCollide drives the two ways distinct
// tables could share a key. A table "a.b" with column "c" and a table
// "a" with column "b.c" would share the buffer key "a.b.c"; a
// default-tenant table "acme:t" would take the catalog key of tenant
// acme's table "t". Table names may carry neither '.' nor ':', and
// tenant names neither, so each key parses one way only.
func TestTableAndTenantNamesCannotCollide(t *testing.T) {
	db := MustOpen(Options{Tenants: []Tenant{{Name: "acme"}}})
	defer db.Close()
	ctx := context.Background()
	exec := func(s interface {
		Exec(context.Context, string) (ExecResult, error)
	}, stmt string) error {
		_, err := s.Exec(ctx, stmt)
		return err
	}

	if err := exec(db, "CREATE TABLE a.b (c INT)"); !errors.Is(err, ErrInvalidTableName) {
		t.Fatalf("CREATE TABLE a.b = %v, want ErrInvalidTableName", err)
	}
	for _, stmt := range []string{
		"CREATE TABLE a (b.c INT)",
		"CREATE PARTIAL INDEX ON a (b.c) COVERING 1 TO 5",
	} {
		if err := exec(db, stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}

	// The shell's lexer refuses ':', so this one goes through the API.
	if _, err := db.CreateTable("acme:t", Int64Column("k")); !errors.Is(err, ErrInvalidTableName) {
		t.Fatalf("CreateTable(acme:t) = %v, want ErrInvalidTableName", err)
	}
	acme, err := db.Session("acme")
	if err != nil {
		t.Fatal(err)
	}
	if err := exec(acme, "CREATE TABLE t (k INT)"); err != nil {
		t.Fatalf("tenant acme's CREATE TABLE t: %v", err)
	}

	for _, name := range []string{"x:y", "x.y"} {
		if err := db.CreateTenant(Tenant{Name: name}); !errors.Is(err, ErrInvalidTenantName) {
			t.Errorf("CreateTenant(%q) = %v, want ErrInvalidTenantName", name, err)
		}
	}
}
