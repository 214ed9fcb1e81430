// Package trace implements query monitoring: per-column aggregates (hit
// rates, page costs, buffer effectiveness, mean wall-clock) and
// per-mechanism latency histograms. It is the observability layer a DBA
// would use to see whether the Index Buffer is earning its memory — the
// engine records into an attached Tracer, the shell exposes it as SHOW
// STATS, the facade as DB.TraceReport / DB.LatencyStats, and the HTTP
// endpoint as /metrics. Span events from the adaptive machinery are not
// kept here: they go to each statement's flight record and to the
// telemetry sink, the one global span stream (see the engine's emit).
//
// Each per-column handle counts the column's queries once, per
// mechanism; the adaptation timeline reads its query mix from the same
// handle rather than keeping a count of its own.
//
// Every method is safe for concurrent use. Recording a query is atomic
// adds on a per-column handle and a bucket histogram — no lock, no
// allocation — so the tracer can stay attached to a production engine
// at ~zero cost.
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/flight"
	"repro/internal/metrics"
)

// Aggregate summarizes the query outcomes of one (table, column) pair.
type Aggregate struct {
	Table, Column string
	Queries       uint64
	Hits          uint64
	PagesRead     uint64
	PagesSkipped  uint64
	WallMicros    uint64
}

// HitRate returns hits/queries (0 when no queries).
func (a Aggregate) HitRate() float64 {
	if a.Queries == 0 {
		return 0
	}
	return float64(a.Hits) / float64(a.Queries)
}

// MeanPages returns pages read per query.
func (a Aggregate) MeanPages() float64 {
	if a.Queries == 0 {
		return 0
	}
	return float64(a.PagesRead) / float64(a.Queries)
}

// MeanWallMicros returns mean wall-clock microseconds per query.
func (a Aggregate) MeanWallMicros() float64 {
	if a.Queries == 0 {
		return 0
	}
	return float64(a.WallMicros) / float64(a.Queries)
}

// SkipShare returns the fraction of touched pages that were skipped.
func (a Aggregate) SkipShare() float64 {
	total := a.PagesRead + a.PagesSkipped
	if total == 0 {
		return 0
	}
	return float64(a.PagesSkipped) / float64(total)
}

// Column is one (table, column) pair's aggregate counters: a handle
// resolved once, by Tracer.Column, when the table is built, so Record
// is atomic adds on counters the caller already holds. Queries are
// counted once, per mechanism; the aggregate's query and hit counts and
// the timeline's query mix are all read from that one counter set.
type Column struct {
	mix           [len(flight.Mechanisms)]atomic.Uint64 // queries, indexed like flight.Mechanisms
	pagesRead     atomic.Uint64
	pagesSkipped  atomic.Uint64
	wallMicros    atomic.Uint64
	table, column string
}

// hitSlot is the index of "hit" in flight.Mechanisms.
var hitSlot = slices.Index(flight.Mechanisms[:], "hit")

// Mix returns the column's query counts per mechanism, indexed like
// flight.Mechanisms.
func (c *Column) Mix() (m [len(flight.Mechanisms)]uint64) {
	for i := range c.mix {
		m[i] = c.mix[i].Load()
	}
	return m
}

// Tracer records query outcomes. Safe for concurrent use; Record takes
// no lock.
type Tracer struct {
	colMu sync.Mutex // guards cols (handles sorted by table, column); never taken by Record
	cols  []*Column
	lat   [len(flight.Mechanisms)]metrics.Histogram // latency (µs), indexed like flight.Mechanisms
}

// New creates an empty tracer.
func New() *Tracer { return &Tracer{} }

// Column returns the aggregate handle of table.column, registering it
// on first use; every call with the same pair returns the same handle.
func (t *Tracer) Column(table, column string) *Column {
	t.colMu.Lock()
	defer t.colMu.Unlock()
	i, found := slices.BinarySearchFunc(t.cols, &Column{table: table, column: column}, func(a, b *Column) int {
		return cmp.Or(cmp.Compare(a.table, b.table), cmp.Compare(a.column, b.column))
	})
	if !found { // a fresh array: readers may still range over the old one
		t.cols = slices.Insert(slices.Clip(t.cols), i, &Column{table: table, column: column})
	}
	return t.cols[i]
}

// Record ingests one query outcome on column c answered by mechanism
// mech, which must be one of flight.Mechanisms (any other label is not
// counted): it advances the column's counters and the mechanism's
// latency histogram with atomic operations only.
func (t *Tracer) Record(c *Column, mech string, stats exec.QueryStats) {
	i := slices.Index(flight.Mechanisms[:], mech)
	if i < 0 {
		return
	}
	wall := uint64(stats.Duration.Microseconds())
	c.mix[i].Add(1)
	c.pagesRead.Add(uint64(stats.PagesRead))
	c.pagesSkipped.Add(uint64(stats.PagesSkipped))
	c.wallMicros.Add(wall)
	t.lat[i].Observe(wall)
}

// Aggregates returns the summaries of columns with at least one query,
// sorted by table then column.
func (t *Tracer) Aggregates() []Aggregate {
	t.colMu.Lock()
	cols := t.cols
	t.colMu.Unlock()
	out := make([]Aggregate, 0, len(cols))
	for _, c := range cols {
		mix := c.Mix()
		var q uint64
		for _, n := range mix {
			q += n
		}
		if q > 0 {
			out = append(out, Aggregate{Table: c.table, Column: c.column, Queries: q, Hits: mix[hitSlot],
				PagesRead: c.pagesRead.Load(), PagesSkipped: c.pagesSkipped.Load(), WallMicros: c.wallMicros.Load()})
		}
	}
	return out
}

// MechanismLatency is one mechanism's latency summary in microseconds.
type MechanismLatency struct {
	Mechanism string
	metrics.HistogramStats
}

// LatencyStats returns the latency summaries of mechanisms with at
// least one query, sorted by mechanism name.
func (t *Tracer) LatencyStats() []MechanismLatency {
	out := make([]MechanismLatency, 0, len(t.lat))
	for i, m := range flight.Mechanisms {
		if s := t.lat[i].Stats(); s.Count > 0 {
			out = append(out, MechanismLatency{Mechanism: m, HistogramStats: s})
		}
	}
	return out
}

// Report renders the aggregates as an aligned text table.
func (t *Tracer) Report() string {
	aggs := t.Aggregates()
	if len(aggs) == 0 {
		return "no queries recorded"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s %8s %8s %12s %10s %12s\n", "column", "queries", "hit%", "pages/query", "skip%", "µs/query")
	for _, a := range aggs {
		fmt.Fprintf(&sb, "%-20s %8d %7.1f%% %12.1f %9.1f%% %12.1f\n",
			a.Table+"."+a.Column, a.Queries, 100*a.HitRate(), a.MeanPages(), 100*a.SkipShare(), a.MeanWallMicros())
	}
	return strings.TrimRight(sb.String(), "\n")
}
