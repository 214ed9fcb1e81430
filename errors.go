package repro

import "repro/internal/engine"

// Sentinel errors of the public API. They are wrapped with situational
// detail (table, column names) at the return sites, so match them with
// errors.Is:
//
//	if _, _, err := t.Query("nope", 1); errors.Is(err, repro.ErrNoColumn) {
//		...
//	}
var (
	// ErrNoColumn is returned when a query, DML call or index operation
	// names a column the table does not have.
	ErrNoColumn = engine.ErrNoColumn
	// ErrNoIndex is returned by index operations (redefine, drop) on a
	// column that carries no partial index.
	ErrNoIndex = engine.ErrNoIndex
	// ErrDuplicateIndex is returned when creating a partial index on a
	// column that already has one.
	ErrDuplicateIndex = engine.ErrDuplicateIndex
	// ErrDuplicateTable is returned by CreateTable for a taken name.
	ErrDuplicateTable = engine.ErrDuplicateTable
	// ErrInvalidTableName is returned by CreateTable for a name that is
	// empty or contains a path separator, '.' or ':'.
	ErrInvalidTableName = engine.ErrInvalidTableName
	// ErrInvalidTenantName is returned by CreateTenant (and Open) for a
	// tenant name that contains '.' or ':'.
	ErrInvalidTenantName = engine.ErrInvalidTenantName
	// ErrClosed is returned by every operation after DB.Close.
	ErrClosed = engine.ErrClosed
	// ErrQuotaExceeded is returned when a strict tenant's miss needs an
	// indexing scan but the tenant's Index-Buffer quota is exhausted
	// (non-strict tenants degrade to unindexed scans instead).
	ErrQuotaExceeded = engine.ErrQuotaExceeded
	// ErrTenantUnknown is returned when a session or statement names a
	// tenant that was never registered.
	ErrTenantUnknown = engine.ErrTenantUnknown
)
