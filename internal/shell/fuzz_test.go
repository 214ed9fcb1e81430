package shell

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/storage"
)

// FuzzEval throws arbitrary command lines at the shell; it must return
// errors for garbage, never panic, and stay usable afterwards.
func FuzzEval(f *testing.F) {
	f.Add("CREATE TABLE t (a INT)")
	f.Add("INSERT INTO t VALUES (1)")
	f.Add("SELECT * FROM t WHERE a = 1")
	f.Add("SELECT * FROM t WHERE a BETWEEN 1 AND 2")
	f.Add("CREATE PARTIAL INDEX ON t (a) COVERING 1 TO 2")
	f.Add("SHOW BUFFERS")
	f.Add("'unterminated")
	f.Add("((((")
	f.Add("insert into values values values")

	f.Fuzz(func(t *testing.T, line string) {
		ctx := context.Background()
		s := New(engine.New(engine.Config{Space: core.Config{IMax: 10, P: 5}}))
		// Prepare a small table so data-dependent paths are reachable.
		if _, err := s.EvalCtx(ctx, "CREATE TABLE t (a INT, b VARCHAR)"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.EvalCtx(ctx, "INSERT INTO t VALUES (1, 'x'), (2, 'y')"); err != nil {
			t.Fatal(err)
		}
		_, _ = s.EvalCtx(ctx, line) // must not panic
		// The shell must remain usable after any input.
		if _, err := s.EvalCtx(ctx, "SELECT * FROM t WHERE a = 1"); err != nil {
			t.Fatalf("shell broken after %q: %v", line, err)
		}
	})
}

// FuzzRenderCell checks the SELECT cell rule against referenceCell for
// any VARCHAR, appended after existing bytes as renderSelect does.
func FuzzRenderCell(f *testing.F) {
	for _, seed := range []string{
		"",
		"x",
		strings.Repeat("a", 21),
		strings.Repeat("a", 22),
		strings.Repeat("a", 23),
		strings.Repeat("a", 24),
		strings.Repeat("p", 100),
		"a" + strings.Repeat("é", 20),
		strings.Repeat("日", 30),
		"\x00\xff\"\\\n\t",
		strings.Repeat("\n", 12),
		"\ufffd\xe2\x82 \u2028 \u2029 " + strings.Repeat("\U0001F600", 8),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v := storage.StringValue(s)
		got := string(appendCell([]byte("[0:1] "), v))
		if want := "[0:1] " + referenceCell(v); got != want {
			t.Fatalf("cell of %q = %q, want %q", s, got, want)
		}
	})
}
