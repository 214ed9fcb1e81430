// Package index implements partial secondary indexes: B+-tree indexes
// that cover only a predicate-defined subset of a column's values (paper
// §II; Stonebraker 1989, Seshadri & Swami 1995). A query for a covered
// value is a "partial index hit" and is answered from the index; a query
// for an uncovered value degrades to a table scan — the situation the
// Index Buffer exists to soften.
package index

import (
	"fmt"

	"repro/internal/storage"
)

// Coverage is the defining predicate of a partial index: which column
// values the index contains. Implementations must be immutable.
type Coverage interface {
	// Covers reports whether value v belongs in the partial index.
	Covers(v storage.Value) bool
	// String renders the predicate for logs and EXPLAIN-style output.
	String() string
}

// RangeCoverer is an optional Coverage extension: predicates that can
// decide whether they cover a whole closed interval, which lets the
// executor answer range queries from the partial index. Predicates
// without it are treated conservatively (only degenerate single-value
// ranges can hit).
type RangeCoverer interface {
	// CoversRange reports whether every value in [lo, hi] is covered.
	CoversRange(lo, hi storage.Value) bool
}

// CoversWholeRange reports whether cov covers every value in [lo, hi],
// using RangeCoverer when available and falling back to the single-value
// case.
func CoversWholeRange(cov Coverage, lo, hi storage.Value) bool {
	if rc, ok := cov.(RangeCoverer); ok {
		return rc.CoversRange(lo, hi)
	}
	return lo.Equal(hi) && cov.Covers(lo)
}

// RangeCoverage covers the closed interval [Lo, Hi]. The paper's
// evaluation indexes "the top 10% of the value range ... values from 1 to
// 5,000" of each column — a RangeCoverage{1, 5000}.
type RangeCoverage struct {
	Lo, Hi storage.Value
}

// Covers implements Coverage.
func (c RangeCoverage) Covers(v storage.Value) bool {
	return v.Compare(c.Lo) >= 0 && v.Compare(c.Hi) <= 0
}

// CoversRange implements RangeCoverer: [lo, hi] must nest in [Lo, Hi].
func (c RangeCoverage) CoversRange(lo, hi storage.Value) bool {
	return lo.Compare(c.Lo) >= 0 && hi.Compare(c.Hi) <= 0
}

// String implements Coverage.
func (c RangeCoverage) String() string {
	return fmt.Sprintf("BETWEEN %v AND %v", c.Lo, c.Hi)
}

// IntRange is shorthand for a RangeCoverage over integers.
func IntRange(lo, hi int64) RangeCoverage {
	return RangeCoverage{Lo: storage.Int64Value(lo), Hi: storage.Int64Value(hi)}
}

// SetCoverage covers an explicit set of values — the shape the
// adaptation controller (internal/adapt) chooses for a string column,
// each covered value named individually.
type SetCoverage struct {
	values map[storage.Value]struct{}
}

// NewSetCoverage builds a SetCoverage over the given values.
func NewSetCoverage(values ...storage.Value) SetCoverage {
	m := make(map[storage.Value]struct{}, len(values))
	for _, v := range values {
		m[v] = struct{}{}
	}
	return SetCoverage{values: m}
}

// Covers implements Coverage.
func (c SetCoverage) Covers(v storage.Value) bool {
	_, ok := c.values[v]
	return ok
}

// Len returns the number of covered values.
func (c SetCoverage) Len() int { return len(c.values) }

// ForEach visits every covered value in unspecified order (used by the
// catalog to persist the set).
func (c SetCoverage) ForEach(fn func(storage.Value)) {
	for v := range c.values {
		fn(v)
	}
}

// String implements Coverage.
func (c SetCoverage) String() string {
	return fmt.Sprintf("IN (%d values)", len(c.values))
}

// UnionCoverage covers the union of several ranges — the shape an
// adaptation controller produces when the workload has several hot
// regions.
type UnionCoverage []RangeCoverage

// Covers implements Coverage.
func (u UnionCoverage) Covers(v storage.Value) bool {
	for _, r := range u {
		if r.Covers(v) {
			return true
		}
	}
	return false
}

// CoversRange implements RangeCoverer: the interval must nest within a
// single member range (a union of disjoint ranges cannot vouch for the
// gaps between them).
func (u UnionCoverage) CoversRange(lo, hi storage.Value) bool {
	for _, r := range u {
		if r.CoversRange(lo, hi) {
			return true
		}
	}
	return false
}

// String implements Coverage.
func (u UnionCoverage) String() string {
	return fmt.Sprintf("UNION of %d ranges", len(u))
}

// NoneCoverage covers nothing — a freshly created, still-empty partial
// index.
type NoneCoverage struct{}

// Covers implements Coverage.
func (NoneCoverage) Covers(storage.Value) bool { return false }

// String implements Coverage.
func (NoneCoverage) String() string { return "NONE" }

// AllCoverage covers everything — a conventional full secondary index,
// useful as a reference access path in the benchmarks.
type AllCoverage struct{}

// Covers implements Coverage.
func (AllCoverage) Covers(storage.Value) bool { return true }

// CoversRange implements RangeCoverer.
func (AllCoverage) CoversRange(lo, hi storage.Value) bool { return true }

// String implements Coverage.
func (AllCoverage) String() string { return "ALL" }
