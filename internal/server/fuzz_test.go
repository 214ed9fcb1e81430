package server

import (
	"encoding/json"
	"strings"
	"testing"

	"repro"
)

// FuzzServeLine sends arbitrary bytes as one request line through
// serveLine — the framing every connection's line goes through — on an
// in-memory database with no listener. It checks that no line panics,
// that every response marshals to JSON, that a well-formed
// "TRACE <id> <stmt>" line's response echoes id, and that the TENANT
// handshake with an unregistered tenant answers tenant_unknown.
func FuzzServeLine(f *testing.F) {
	db, err := repro.Open(repro.Options{SpaceLimit: 2000, Tenants: []repro.Tenant{{Name: "acme", Quota: 500}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { db.Close() })
	srv := New(db, Config{})
	sess, err := db.Session("")
	if err != nil {
		f.Fatal(err)
	}
	for _, stmt := range []string{
		"CREATE TABLE t (a INT, b VARCHAR)",
		"INSERT INTO t VALUES (1, 'x'), (2, 'y'), (30, 'z')",
		"CREATE PARTIAL INDEX ON t (a) COVERING 1 TO 5",
	} {
		if r, _ := srv.serveLine(&sess, stmt); !r.OK {
			f.Fatalf("%s: %+v", stmt, r)
		}
	}
	for _, seed := range []string{
		"SELECT * FROM t WHERE a = 2",
		"TRACE c-1 SELECT * FROM t WHERE a = 30",
		"trace  id\tSELECT * FROM nope WHERE a = 1",
		"TRACE only-id",
		"TENANT acme",
		"TENANT nobody",
		"tenant",
		"SHOW STATS",
		"EXIT",
		"",
		"\x00\xff\"\\\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		line := strings.TrimSpace(string(data)) // as handle frames it
		sess, err := db.Session("")
		if err != nil {
			t.Fatal(err)
		}
		resp, _ := srv.serveLine(&sess, line)
		if _, err := json.Marshal(resp); err != nil {
			t.Fatalf("response to %q does not marshal: %v", line, err)
		}
		if id, _, ok := traceStmt(line); ok && resp.Trace != id {
			t.Fatalf("TRACE %q answered with trace %q: %+v", id, resp.Trace, resp)
		}
		if name, ok := tenantStmt(line); ok && name != "acme" {
			if resp.OK || resp.Code != CodeTenantUnknown {
				t.Fatalf("TENANT %q answered %+v, want code %s", name, resp, CodeTenantUnknown)
			}
		}
	})
}
