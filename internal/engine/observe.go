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
// statement's flight record and the telemetry sink — the one global
// span stream. Adaptive events are counted where they happen, by the
// Index Buffer (core.IndexBuffer.Churn), so the timeline samples those
// counters and consumes no span. The timeline and the flight recorder
// each gate on their own atomic flag and the sink is one atomic
// pointer, so while all three are off only the tracer's always-on
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
// latency), the timeline (a sample of buf, the queried column's buffer
// as the caller resolved it, with the column's query mix from the
// tracer, and a resample of every other buffer whose churn moved since
// its last sample) and the flight record of the statement in ctx.
// follower marks a query that rode along on another query's shared
// scan.
//
// It takes no table lock: the timeline's lock sits between Table.mu and
// Space.mu in the lock order and the other monitors' locks are leaves,
// so callers may hold the table lock in either mode or — the lock-free
// hit path — none at all.
func (t *Table) observe(ctx context.Context, column int, stats exec.QueryStats, follower bool, buf *core.IndexBuffer) {
	e := t.engine
	col := t.schema.Column(column).Name
	mech := flight.Mechanism(stats.EmptyRange, stats.PartialHit, follower, stats.FullScan, stats.QuotaDegraded)
	e.tracer.Record(t.traced[column], mech, stats)
	if e.timeline.Enabled() {
		e.timeline.ObserveQuery(t.name, col, t.traced[column], buf, e.space)
	}
	e.flightActive(ctx).Query(t.name, col, mech, stats.Matches, stats.PagesRead, stats.PagesSkipped, stats.QuotaDegraded)
}

// emit is the one span fan-out. It stamps the span with the next
// engine-wide sequence number and the statement's trace ID, then hands
// it to the telemetry sink (the global stream, when one is attached)
// and the statement's flight record (fa may be nil).
func (e *Engine) emit(fa *flight.Active, kind, target string, page, n int) {
	sp := flight.Span{Seq: e.spanSeq.Add(1), Kind: kind, Target: target, Page: page, N: n, Trace: fa.Trace()}
	if s := e.sink.Load(); s != nil {
		s.WriteSpan(sp)
	}
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
// while no flight record or sink is listening, so the buffer name is
// formatted only when someone will read it.
func (t *Table) spanTap(fa *flight.Active, column int) *tap {
	e := t.engine
	if fa == nil && e.sink.Load() == nil {
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
// reports the reset.
func (t *Table) dropBuffer(column int) {
	old := t.buffers[column]
	t.engine.bufferReset(old, t.engine.space.DropBuffer(old.Name()))
}

// resetBuffer swaps the column's Index Buffer for a fresh one, with the
// same name and tenant, whose page counters are uncovered, and reports
// the reset of the old one.
func (t *Table) resetBuffer(column int, uncovered []int) {
	old := t.buffers[column]
	b, released := t.engine.space.ReplaceBuffer(old, uncovered)
	t.engine.bufferReset(old, released)
	t.buffers[column] = b
}

// bufferReset reports that old, which held released entries, was
// discarded wholesale: a buffer that later takes its name starts a
// fresh adaptation episode.
func (e *Engine) bufferReset(old *core.IndexBuffer, released int) {
	e.emit(nil, flight.SpanBufferReset, old.Name(), -1, released)
	e.timeline.Reset(old)
}
