package server

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro"
)

// FuzzServeLine sends arbitrary bytes as one request line through
// serveLine — the framing every connection's line goes through — on an
// in-memory database with no listener. It checks that no line panics,
// that every response's encoded line equals json.Marshal's, that a
// well-formed "TRACE <id> <stmt>" line's response echoes id, and that
// the TENANT handshake with an unregistered tenant answers
// tenant_unknown.
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
		checkEncoding(t, resp)
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

// FuzzAppendResponse checks appendResponse against json.Marshal plus
// '\n' for any response, including invalid UTF-8, control bytes, HTML
// metacharacters and the JavaScript line terminators in every string.
func FuzzAppendResponse(f *testing.F) {
	f.Add(true, "[0:1] 7 \"x\"\n1 row(s) | partial index hit: 1 pages read, 0 skipped, 0 buffer entries added", 1, "", "", "")
	f.Add(false, "", 0, CodeBadStatement, `no table "nope"`, "c-1")
	f.Add(true, "bye", -3, "", "", "")
	f.Add(false, "<a href='x'>&amp;</a>", 1<<40, "\x00\x1f\x7f", "\b\f\n\r\t\\", "\u2028\u2029")
	f.Add(true, "\xff\xfe\xe2\x82 \ufffd \xed\xa0\x80 \U0001F600", 0, "\xc3", "é", "日本")
	f.Fuzz(func(t *testing.T, ok bool, output string, rows int, code, errText, trace string) {
		checkEncoding(t, response{OK: ok, Output: output, Rows: rows, Code: code, Error: errText, Trace: trace})
	})
}

// checkEncoding fails t unless appendResponse, after bytes already in
// the buffer, writes exactly json.Marshal(r) and a newline.
func checkEncoding(t *testing.T, r response) {
	t.Helper()
	want, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("json.Marshal(%+v): %v", r, err)
	}
	want = append(want, '\n')
	got, ok := bytes.CutPrefix(appendResponse([]byte("previous line\n"), r), []byte("previous line\n"))
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("appendResponse(%+v)\n got %q\nwant %q", r, got, want)
	}
}
