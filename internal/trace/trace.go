// Package trace implements query monitoring: per-column aggregates (hit
// rates, page costs, buffer effectiveness, mean wall-clock),
// per-mechanism latency histograms, and — opt-in — a ring of structured
// span events emitted by the adaptive machinery (miss admission,
// shared-scan batching, Algorithm-2 page selection, displacement, C[p]→0
// transitions). It is the observability layer a DBA would use to see
// whether the Index Buffer is earning its memory — the engine records
// into an attached Tracer, the shell exposes it as SHOW STATS, the
// facade as DB.TraceReport / DB.TraceEvents, and the HTTP endpoint as
// /metrics. The per-statement history lives in the flight recorder.
//
// Every method is safe for concurrent use. Span emission is gated by a
// single atomic load and is allocation-free while disabled, so the
// tracer can stay attached to a production engine at ~zero cost.
package trace

import (
	"fmt"
	"sort"
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

// Span kinds, in the order the adaptive machinery emits them. The core
// package emits SpanPageSelect and SpanDisplace through its Observer
// interface using these literal strings (it cannot import this package).
const (
	// SpanMissAdmit: a query missed the partial index and entered the
	// scan-sharing admission layer. N is 0.
	SpanMissAdmit = "miss-admit"
	// SpanScanAttach: a query joined another query's forming batch
	// instead of leading its own scan. N is 0.
	SpanScanAttach = "scan-attach"
	// SpanScanLead: a batch leader sealed its batch and is about to run
	// one shared Algorithm-1 pass. N is the batch size.
	SpanScanLead = "scan-lead"
	// SpanPageSelect: Algorithm 2 chose the page set I for a scan.
	// N is |I|.
	SpanPageSelect = "page-select"
	// SpanDisplace: a victim partition was dropped from Target's buffer
	// on behalf of another buffer's scan. N is the entries released.
	SpanDisplace = "displace"
	// SpanPageComplete: an indexing scan finished buffering a page — the
	// C[p]→0 transition that makes the page skippable. Page is the page,
	// N the entries added for it.
	SpanPageComplete = "page-complete"
	// SpanScanParallel: a table-scan stage fanned out to a worker pool.
	// N is the worker count; emitted once per parallel scan, before the
	// workers start.
	SpanScanParallel = "scan-parallel"
	// SpanBufferReset: Target's buffer was dropped wholesale (partial
	// index dropped or redefined, or the table vacuumed); a buffer later
	// created under the name starts a fresh adaptation episode. N is the
	// entries released.
	SpanBufferReset = "buffer-reset"
)

// Tracer records query outcomes and span events. Safe for concurrent
// use.
type Tracer struct {
	mu   sync.Mutex
	aggs map[string]*Aggregate         // keyed by table+"."+column
	lat  map[string]*metrics.Histogram // per-mechanism latency (µs)

	spansOn atomic.Bool   // gate checked before any span work
	seq     atomic.Uint64 // monotonic span sequence, advanced under spanMu

	// spanSink, when set, receives every recorded span after it enters
	// the ring — the telemetry-export tap. Atomic so SpanTraced's hot
	// path never takes a lock for it.
	spanSink atomic.Pointer[func(flight.Span)]

	spanMu     sync.Mutex
	spans      []flight.Span
	spanNext   int
	spanFilled int
}

// latReservoir bounds each mechanism's latency histogram so a
// long-running engine keeps constant tracer memory; quantiles become
// sampled estimates past this many observations per mechanism.
const latReservoir = 4096

// New creates a tracer keeping the last capacity span events (min 1).
func New(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{
		spans: make([]flight.Span, capacity),
		aggs:  make(map[string]*Aggregate),
		lat:   make(map[string]*metrics.Histogram),
	}
}

// Record ingests one query outcome answered by mechanism mech (the
// flight.Mechanism vocabulary): it advances the column's aggregate and
// the mechanism's latency histogram.
func (t *Tracer) Record(table, column, mech string, stats exec.QueryStats) {
	wall := stats.Duration.Microseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	key := table + "." + column
	a := t.aggs[key]
	if a == nil {
		a = &Aggregate{Table: table, Column: column}
		t.aggs[key] = a
	}
	a.Queries++
	if stats.PartialHit {
		a.Hits++
	}
	a.PagesRead += uint64(stats.PagesRead)
	a.PagesSkipped += uint64(stats.PagesSkipped)
	a.WallMicros += uint64(wall)

	h := t.lat[mech]
	if h == nil {
		h = metrics.NewReservoirHistogram(latReservoir, int64(len(t.lat)+1))
		t.lat[mech] = h
	}
	h.Observe(float64(wall))
}

// Aggregates returns per-column summaries sorted by table then column.
func (t *Tracer) Aggregates() []Aggregate {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Aggregate, 0, len(t.aggs))
	for _, a := range t.aggs {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Column < out[j].Column
	})
	return out
}

// MechanismLatency is one mechanism's latency summary in microseconds.
type MechanismLatency struct {
	Mechanism string
	metrics.HistogramStats
}

// LatencyStats returns per-mechanism latency summaries sorted by
// mechanism name.
func (t *Tracer) LatencyStats() []MechanismLatency {
	t.mu.Lock()
	hists := make(map[string]*metrics.Histogram, len(t.lat))
	for m, h := range t.lat {
		hists[m] = h
	}
	t.mu.Unlock()
	out := make([]MechanismLatency, 0, len(hists))
	for m, h := range hists {
		out = append(out, MechanismLatency{Mechanism: m, HistogramStats: h.Stats()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Mechanism < out[j].Mechanism })
	return out
}

// EnableSpans turns span-event recording on or off. Off (the default)
// makes SpanTraced a single atomic load — no lock, no allocation — so
// the instrumented hot paths cost ~nothing in production.
func (t *Tracer) EnableSpans(on bool) { t.spansOn.Store(on) }

// SpansEnabled reports whether span events are being recorded. Callers
// that must build a span's arguments (closures, name formatting) should
// check it first to keep the disabled path allocation-free.
func (t *Tracer) SpansEnabled() bool { return t.spansOn.Load() }

// SpanTraced records one span event into the span ring, stamped with
// the next monotonic sequence number and the emitting statement's trace
// ID ("" without statement context), so the global stream stays
// joinable to per-statement flight records. It returns the assigned
// sequence number, or 0 (a no-op) while spans are disabled.
func (t *Tracer) SpanTraced(kind, target string, page, n int, traceID string) uint64 {
	if !t.spansOn.Load() {
		return 0
	}
	sp := flight.Span{Kind: kind, Target: target, Page: page, N: n, Trace: traceID}
	t.spanMu.Lock()
	// Numbered under the ring lock, so the ring holds spans in sequence
	// order even when emitters race.
	sp.Seq = t.seq.Add(1)
	t.spans[t.spanNext] = sp
	t.spanNext = (t.spanNext + 1) % len(t.spans)
	if t.spanFilled < len(t.spans) {
		t.spanFilled++
	}
	t.spanMu.Unlock()
	if fn := t.spanSink.Load(); fn != nil {
		(*fn)(sp)
	}
	return sp.Seq
}

// SetSpanSink registers fn to receive every span after it enters the
// ring (nil unregisters). The span gate still applies — a sink sees
// nothing while spans are disabled — and fn runs on the emitting
// goroutine, so it must be fast and must not call back into the
// tracer's span path.
func (t *Tracer) SetSpanSink(fn func(flight.Span)) {
	if fn == nil {
		t.spanSink.Store(nil)
		return
	}
	t.spanSink.Store(&fn)
}

// Spans returns up to n most-recent span events, newest first: n < 0
// reads as 0 and n beyond the retained count as everything retained.
func (t *Tracer) Spans(n int) []flight.Span {
	t.spanMu.Lock()
	defer t.spanMu.Unlock()
	n = max(0, min(n, t.spanFilled))
	out := make([]flight.Span, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, t.spans[(t.spanNext-i+len(t.spans))%len(t.spans)])
	}
	return out
}

// SpanCount returns the number of span events ever emitted (the last
// assigned sequence number).
func (t *Tracer) SpanCount() uint64 { return t.seq.Load() }

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
