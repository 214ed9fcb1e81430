package engine

import (
	"cmp"
	"context"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/flight"
)

// This file is the engine's one observation path. Every query outcome
// goes through observe, which feeds the tracer, the adaptation timeline
// and the calling statement's flight record in one vocabulary. Every
// adaptive event goes through emit, which numbers it and feeds the
// statement's flight record, the timeline's churn counters and the
// telemetry sink — the one global span stream. The timeline and the
// flight recorder each gate on their own atomic flag and the sink is one
// atomic pointer, so while all three are off only the tracer's always-on
// aggregates do work, and nothing allocates.

// flightActive resolves the calling statement's in-progress flight
// record: nil while the recorder is disabled (one atomic load — the
// 0-alloc contract) or when the context carries no statement.
func (e *Engine) flightActive(ctx context.Context) *flight.Active {
	if !e.flight.Enabled() {
		return nil
	}
	return flight.FromContext(ctx)
}

// observe records one executed query's outcome: it derives the
// mechanism once and hands the outcome to the tracer (aggregates and
// latency), the timeline (query mix plus a sample of buf, the queried
// column's buffer as the caller resolved it, and a resample of any
// buffer dirtied by adaptive events since the last boundary) and the
// flight record of the statement in ctx. follower marks a query that
// rode along on another query's shared scan.
//
// It takes no table lock: the monitors' locks are strict leaves, and
// dirtied buffers are resolved through the Space (Space.mu is below
// Table.mu in the lock order), so callers may hold the table lock in
// either mode or — the lock-free hit path — none at all.
func (t *Table) observe(ctx context.Context, column int, stats exec.QueryStats, follower bool, buf *core.IndexBuffer) {
	e := t.engine
	col := t.schema.Column(column).Name
	mech := flight.Mechanism(stats.EmptyRange, stats.PartialHit, follower, stats.FullScan, stats.QuotaDegraded)
	e.tracer.Record(t.traced[column], mech, stats)
	if e.timeline.Enabled() {
		e.timeline.ObserveQuery(t.name, col, mech, buf, e.space.Buffer)
	}
	e.flightActive(ctx).Query(t.name, col, mech, stats.Matches, stats.PagesRead, stats.PagesSkipped, stats.QuotaDegraded)
}

// emit is the one span fan-out. It stamps the span with the next
// engine-wide sequence number and the statement's trace ID, then hands
// it to the telemetry sink (the global stream, when one is attached),
// the timeline's churn counters, and the statement's flight record (fa
// may be nil).
func (e *Engine) emit(fa *flight.Active, kind, target string, page, n int) {
	sp := flight.Span{Seq: e.spanSeq.Add(1), Kind: kind, Target: target, Page: page, N: n, Trace: fa.Trace()}
	if s := e.sink.Load(); s != nil {
		s.WriteSpan(sp)
	}
	e.timeline.NoteEvent(kind, target, page, n)
	fa.Span(sp)
}

// tap binds emit to one statement's access to one column. It is the
// exec.Access span hook and the admission layer's emitter. A nil *tap —
// nothing is listening — drops every event.
type tap struct {
	e      *Engine
	fa     *flight.Active
	target string // the accessed column's buffer name
}

// spanTap returns the tap for the statement fa accessing column, or nil
// while no flight record, timeline or sink is listening, so the buffer
// name is formatted only when someone will read it.
func (t *Table) spanTap(fa *flight.Active, column int) *tap {
	e := t.engine
	if fa == nil && !e.timeline.Enabled() && e.sink.Load() == nil {
		return nil
	}
	return &tap{e: e, fa: fa, target: t.bufferName(column)}
}

// span emits one event about target's buffer; an empty target is the
// accessed column's own (a displacement victim may belong to another
// column).
func (p *tap) span(kind, target string, page, n int) {
	if p != nil {
		p.e.emit(p.fa, kind, cmp.Or(target, p.target), page, n)
	}
}

// dropBuffer releases the column's Index Buffer from the Space and
// emits buffer-reset: a buffer that later takes the name starts a fresh
// adaptation episode.
func (t *Table) dropBuffer(column int) {
	name := t.bufferName(column)
	t.engine.emit(nil, flight.SpanBufferReset, name, -1, t.engine.space.DropBuffer(name))
}

// resetBuffer swaps the column's Index Buffer for a fresh one, with the
// same name and tenant, whose page counters are uncovered, and emits
// buffer-reset for the old one.
func (t *Table) resetBuffer(column int, uncovered []int) {
	b, released := t.engine.space.ReplaceBuffer(t.buffers[column], uncovered)
	t.engine.emit(nil, flight.SpanBufferReset, b.Name(), -1, released)
	t.buffers[column] = b
}
