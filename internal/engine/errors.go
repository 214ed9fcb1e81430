package engine

import "errors"

// Sentinel errors for the engine's public surface. Call sites wrap them
// with %w and situational detail (table, column), so callers match with
// errors.Is rather than string comparison; the repro facade re-exports
// them as repro.ErrNoColumn etc.
var (
	// ErrNoColumn marks a reference to a column the table does not have.
	ErrNoColumn = errors.New("no such column")
	// ErrNoIndex marks an index operation on a column without one.
	ErrNoIndex = errors.New("column has no index")
	// ErrDuplicateIndex marks index creation on an already-indexed column.
	ErrDuplicateIndex = errors.New("column already indexed")
	// ErrDuplicateTable marks creation of a table whose name is taken.
	ErrDuplicateTable = errors.New("table already exists")
	// ErrInvalidTableName marks a table name that is empty or contains
	// a path separator, '.' or ':'.
	ErrInvalidTableName = errors.New("invalid table name")
	// ErrInvalidTenantName marks a tenant name that contains '.' or ':'.
	ErrInvalidTenantName = errors.New("invalid tenant name")
	// ErrClosed marks any operation on an engine after Close.
	ErrClosed = errors.New("database is closed")
	// ErrQuotaExceeded marks a strict tenant's miss rejected because the
	// tenant's Index-Buffer quota is exhausted (non-strict tenants degrade
	// to unindexed scans instead).
	ErrQuotaExceeded = errors.New("tenant quota exceeded")
	// ErrTenantUnknown marks a reference to an unregistered tenant.
	ErrTenantUnknown = errors.New("unknown tenant")
)

// errWALImage marks a DML record's capture of a page it logs failing to
// pin that page. The statement pinned or just wrote every page it logs,
// so a capture is a pool hit; one that has to read the store means a
// mutated page was written back before its record existed, a
// write-ahead violation the crash tests look for with errors.Is.
var errWALImage = errors.New("engine: wal image")
