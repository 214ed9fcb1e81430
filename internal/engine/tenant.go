package engine

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/storage"
)

// This file is the engine's multi-tenancy surface: a registry of budget
// domains (core.Tenant) and a tenant-scoped view of the catalog. Each
// tenant's tables live in the shared catalog under a qualified name
// ("<tenant>:<table>"), so the tracer, the timeline, and the metrics
// families distinguish tenants for free; buffers created for a tenant's
// indexes are charged against the tenant's entry quota (see
// core.Space.Select for the two-level displacement
// competition, and QueryRangeCtx for over-quota admission).

// TenantSpec declares one budget domain for CreateTenant or Load.
type TenantSpec struct {
	// Name identifies the tenant; it must be unique and non-empty ("" is
	// the default tenant, which always exists and has no quota).
	Name string
	// Quota is the tenant's Index Buffer entry budget carved from
	// SpaceLimit; 0 means unlimited.
	Quota int
	// Strict makes over-quota misses fail with ErrQuotaExceeded instead
	// of degrading to unindexed scans.
	Strict bool
}

// CreateTenant registers a budget domain carved from the Index Buffer
// Space. quota is the tenant's entry budget (<= 0 = unlimited); strict
// makes over-quota misses fail with ErrQuotaExceeded instead of
// degrading to unindexed scans. A name containing ':' or '.' fails with
// ErrInvalidTenantName: the tenant is the part of a catalog key before
// the ':' and of a buffer key before the first '.'.
func (e *Engine) CreateTenant(name string, quota int, strict bool) (*core.Tenant, error) {
	if err := e.checkOpen(); err != nil {
		return nil, err
	}
	if strings.ContainsAny(name, ".:") {
		return nil, fmt.Errorf("engine: tenant %q: %w", name, ErrInvalidTenantName)
	}
	return e.space.CreateTenant(name, quota, strict)
}

// TenantFor resolves a tenant name. The empty name is the default
// (unlimited, unnamed) tenant and resolves to nil; an unregistered name
// fails with ErrTenantUnknown.
func (e *Engine) TenantFor(name string) (*core.Tenant, error) {
	if name == "" {
		return nil, nil
	}
	if tn := e.space.Tenant(name); tn != nil {
		return tn, nil
	}
	return nil, fmt.Errorf("engine: tenant %q: %w", name, ErrTenantUnknown)
}

// Tenants returns every registered tenant in creation order.
func (e *Engine) Tenants() []*core.Tenant { return e.space.Tenants() }

// qualifiedName is a table's key in the shared catalog: tenant-prefixed
// for tenant tables, bare for the default tenant. The qualifier is also
// the name the tracer and the metrics families see, which is what keys
// per-tenant observability.
func qualifiedName(tn *core.Tenant, name string) string {
	if tn == nil {
		return name
	}
	return tn.Name() + ":" + name
}

// CreateTableFor registers a new empty table owned by tn (nil = the
// default tenant). Index Buffers later created for the table's indexes
// charge tn's quota.
func (e *Engine) CreateTableFor(tn *core.Tenant, name string, schema *storage.Schema) (*Table, error) {
	return e.createTable(tn, name, schema)
}

// TableFor returns tn's table with the given (unqualified) name, or nil.
func (e *Engine) TableFor(tn *core.Tenant, name string) *Table {
	return e.Table(qualifiedName(tn, name))
}

// TableNamesFor returns tn's table names (unqualified), sorted. A nil tn
// lists the default tenant's tables only; use TableNames for the whole
// catalog.
func (e *Engine) TableNamesFor(tn *core.Tenant) []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var out []string
	for _, t := range e.tables {
		if t.tenant == tn {
			out = append(out, t.DisplayName())
		}
	}
	sort.Strings(out)
	return out
}

// admitMiss is the quota admission gate for a miss that needs an
// indexing scan. With quota headroom (or no tenant) the miss proceeds to
// the scan-sharing layer (false, nil). An over-quota tenant's miss
// degrades: the access is flipped read-only — Algorithm 1 with I = ∅,
// which consults the buffer but never mutates it, so it may run right
// here under the table's read lock instead of queueing for the write
// lock (true, nil). Strict tenants fail instead with ErrQuotaExceeded.
//
// The gate is advisory — DML maintenance and a concurrent scan admitted
// a moment earlier can still move usage — but the hard invariant
// (tenant used never grows past quota through scans) is enforced by
// Space.Select's budget cap regardless of this check.
func (t *Table) admitMiss(a *exec.Access) (degrade bool, err error) {
	tn := t.tenant
	if tn == nil || !tn.OverQuota() {
		return false, nil
	}
	if tn.Strict() {
		return false, fmt.Errorf("engine: tenant %q: %w", tn.Name(), ErrQuotaExceeded)
	}
	a.ReadOnly = true
	tn.NoteDegraded()
	return true, nil
}

// Tenant returns the table's owning tenant (nil for the default tenant).
func (t *Table) Tenant() *core.Tenant { return t.tenant }

// DisplayName returns the table's name without the tenant qualifier —
// the name the owning tenant's sessions use.
func (t *Table) DisplayName() string {
	if t.tenant == nil {
		return t.name
	}
	return strings.TrimPrefix(t.name, t.tenant.Name()+":")
}
