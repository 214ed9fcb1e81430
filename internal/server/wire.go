// Package server implements the aibserver network front end: a TCP
// server speaking a line-oriented protocol whose statements are the
// shell query language. Each connection is a session — optionally bound
// to a tenant with the TENANT handshake — with one JSON response line
// per statement. Execution goes exclusively through the repro.DB.Exec /
// Session.Exec front door, so the server, aibshell, and tests share one
// statement path.
//
// Protocol (one request line, one response line, UTF-8):
//
//	C: TENANT acme
//	S: {"ok":true,"output":"tenant acme"}
//	C: SELECT * FROM t WHERE a = 7
//	S: {"ok":true,"output":"...","rows":2}
//	C: SELECT * FROM nope WHERE a = 7
//	S: {"ok":false,"code":"bad_statement","error":"no table \"nope\""}
//
// EXIT/QUIT answers {"ok":true} and closes the connection. A request
// line longer than Config.MaxLineBytes is answered with bad_statement,
// and then the connection closes.
package server

import (
	"context"
	"errors"

	"repro"
)

// Protocol error codes. These are the server's public error surface:
// clients branch on the code, never on error text, so the mapping below
// must stay stable (TestWireCodesRoundTrip pins it).
const (
	CodeNoColumn       = "no_column"
	CodeNoIndex        = "no_index"
	CodeDuplicateIndex = "duplicate_index"
	CodeDuplicateTable = "duplicate_table"
	CodeClosed         = "closed"
	CodeQuotaExceeded  = "quota_exceeded"
	CodeTenantUnknown  = "tenant_unknown"
	CodeCanceled       = "canceled"
	CodeDeadline       = "deadline"
	// CodeBadStatement covers everything else a statement can do wrong:
	// parse errors, unknown tables or columns by name, bad literals.
	CodeBadStatement = "bad_statement"
)

// wireCodes maps sentinel errors to protocol codes, most specific
// first (a quota error wrapped by a statement error must map to
// quota_exceeded, not bad_statement).
var wireCodes = []struct {
	Code string
	Err  error
}{
	{CodeNoColumn, repro.ErrNoColumn},
	{CodeNoIndex, repro.ErrNoIndex},
	{CodeDuplicateIndex, repro.ErrDuplicateIndex},
	{CodeDuplicateTable, repro.ErrDuplicateTable},
	{CodeClosed, repro.ErrClosed},
	{CodeQuotaExceeded, repro.ErrQuotaExceeded},
	{CodeTenantUnknown, repro.ErrTenantUnknown},
	{CodeCanceled, context.Canceled},
	{CodeDeadline, context.DeadlineExceeded},
}

// CodeOf maps an execution error to its protocol code. Unrecognized
// errors — parser complaints, name-resolution failures — report
// bad_statement.
func CodeOf(err error) string {
	for _, wc := range wireCodes {
		if errors.Is(err, wc.Err) {
			return wc.Code
		}
	}
	return CodeBadStatement
}

// ErrFromCode returns the sentinel error a protocol code stands for —
// the client-side half of the mapping — or nil for codes with no
// sentinel (bad_statement, unknown codes).
func ErrFromCode(code string) error {
	for _, wc := range wireCodes {
		if wc.Code == code {
			return wc.Err
		}
	}
	return nil
}
