package shell

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

func TestEvalCtxCanceled(t *testing.T) {
	s := newShell(t)
	mustEval(t, s, "CREATE TABLE t (a INT, b VARCHAR)")
	mustEval(t, s, "INSERT INTO t VALUES (1, 'x'), (2, 'y')")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, stmt := range []string{
		"SELECT * FROM t WHERE a = 1",
		"SELECT * FROM t WHERE a BETWEEN 1 AND 2",
		"DELETE FROM t WHERE a = 1",
		"UPDATE t SET b = 'z' WHERE a = 1",
	} {
		if _, err := s.EvalCtx(ctx, stmt); !errors.Is(err, context.Canceled) {
			t.Errorf("EvalCtx(canceled, %q) = %v, want context.Canceled", stmt, err)
		}
	}
	// A live context still works after the canceled ones.
	if r, err := s.EvalCtx(context.Background(), "SELECT * FROM t WHERE a = 2"); err != nil || r.Rows != 1 {
		t.Fatalf("EvalCtx(live) = %+v, %v", r, err)
	}
}

// TestTenantShellScopes checks NewTenant's namespacing and the tenant
// ledger line in SHOW BUFFERS.
func TestTenantShellScopes(t *testing.T) {
	eng := engine.New(engine.Config{Space: core.Config{IMax: 1000, P: 100}})
	tn, err := eng.CreateTenant("acme", 50, false)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTenant(eng, tn)
	mustEval(t, ts, "CREATE TABLE t (a INT, b VARCHAR)")
	mustEval(t, ts, "INSERT INTO t VALUES (1, 'x'), (9, 'y')")
	mustEval(t, ts, "CREATE PARTIAL INDEX ON t (a) COVERING 1 TO 5")
	mustEval(t, ts, "SELECT * FROM t WHERE a = 9")

	ds := New(eng)
	mustFail(t, ds, "SELECT * FROM t WHERE a = 9") // invisible to the default tenant

	r := mustEval(t, ts, "SHOW BUFFERS")
	if want := "tenant acme used:"; !strings.Contains(r.Output, want) {
		t.Errorf("SHOW BUFFERS missing %q:\n%s", want, r.Output)
	}
	if strings.Contains(r.Output, "space used:") {
		t.Errorf("tenant SHOW BUFFERS printed the global ledger:\n%s", r.Output)
	}
}
