// Package flight is the per-statement flight recorder: a bounded ring
// of completed query records, each carrying the statement's trace ID,
// tenant, mechanism, span tree, page counters and WAL commit cost — the
// after-the-fact view the global span stream (internal/trace) cannot
// give, because spans there are uncorrelated across concurrent
// statements.
//
// The package is a leaf (stdlib only) so every layer — engine, shell,
// server, obs, timeline — can import it without cycles. Trace IDs and
// the in-progress record travel via context.Context: the wire layer
// mints (or accepts) a trace ID and stores it with WithTrace; the
// statement layer calls Recorder.Begin to open an Active and re-derive
// the context; execution layers retrieve it with FromContext and
// contribute spans and stats. Every *Active method is nil-receiver
// safe, so contributors call unconditionally on whatever FromContext
// returned.
//
// Overhead contract (DESIGN.md §16): when the recorder is disabled no
// Active exists, every contribution site is gated on one atomic load
// (Recorder.Enabled or the nil Active), and nothing allocates —
// mirroring the tracer/timeline discipline, enforced by
// TestFlightDisabledIsInert and BenchmarkTraceOverhead.
package flight

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one structured event from the adaptive machinery (miss
// admission, shared-scan batching, Algorithm-2 page selection,
// displacement, C[p]→0 transitions; the kinds are the Span*
// constants). The same value enters the global span ring, the JSONL
// telemetry stream and the emitting statement's flight record.
type Span struct {
	// Seq is the global span stream's monotonic sequence number (0 when
	// the span was not recorded there), so consumers can order spans
	// across ring snapshots and detect drops.
	Seq    uint64 `json:"seq"`
	Kind   string `json:"kind"`
	Target string `json:"target"` // buffer name, "table.column"
	Page   int    `json:"page"`   // page id for page-scoped kinds, else -1
	N      int    `json:"n"`      // kind-specific count payload
	// Trace is the statement trace ID the span was emitted under ("" when
	// the emitting path carried none) — the key joining the global stream
	// to flight records.
	Trace string `json:"trace,omitempty"`
}

// Span kinds, in the order the adaptive machinery emits them.
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

// Record is one completed statement's flight record.
type Record struct {
	// Seq is a recorder-wide monotonic completion number; it makes
	// records from the recent and slow rings dedupable.
	Seq    uint64 `json:"seq"`
	Trace  string `json:"trace"`
	Tenant string `json:"tenant,omitempty"`
	// Stmt is the statement text as received by the statement layer.
	Stmt string `json:"stmt,omitempty"`

	// Query attribution (empty for DDL/utility statements).
	Table     string `json:"table,omitempty"`
	Column    string `json:"column,omitempty"`
	Mechanism string `json:"mechanism,omitempty"`

	Matches       int  `json:"matches"`
	PagesRead     int  `json:"pages_read"`
	PagesSkipped  int  `json:"pages_skipped"`
	QuotaDegraded bool `json:"quota_degraded,omitempty"`

	// WALCommitNanos is the wall time the statement spent appending its
	// records and in its one Commit making its DML durable (0 for
	// read-only statements or when the WAL is disabled); WALBatch is
	// the size of the group-commit batch whose fsync covered it.
	WALCommitNanos int64  `json:"wal_commit_ns,omitempty"`
	WALBatch       uint64 `json:"wal_batch,omitempty"`

	StartUnixNanos int64  `json:"start_unix_ns"`
	DurationNanos  int64  `json:"duration_ns"`
	Error          string `json:"error,omitempty"`

	Spans []Span `json:"spans,omitempty"`
}

// Duration returns the statement's wall time.
func (r Record) Duration() time.Duration { return time.Duration(r.DurationNanos) }

// Mechanism derives the per-query mechanism label from the executor's
// outcome flags — the one vocabulary the tracer's latency histograms,
// the timeline's query mix and flight records share.
func Mechanism(emptyRange, partialHit, follower, fullScan, degraded bool) string {
	switch {
	case emptyRange:
		return "empty-range"
	case partialHit:
		return "hit"
	case follower:
		return "shared-follower"
	case fullScan:
		return "full-scan"
	case degraded:
		return "degraded-scan"
	default:
		return "indexing-scan"
	}
}

// Active is one in-progress statement record. Span contributions may
// arrive concurrently, so the span list is mutex-guarded; the mutex is
// a strict leaf — no Active method calls out while holding it. All
// methods are nil-receiver safe no-ops.
type Active struct {
	mu  sync.Mutex
	rec Record
}

// Trace returns the statement's trace ID ("" on a nil Active).
func (a *Active) Trace() string {
	if a == nil {
		return ""
	}
	return a.rec.Trace
}

// Span appends one span event to the statement's span tree.
func (a *Active) Span(sp Span) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.rec.Spans = append(a.rec.Spans, sp)
	a.mu.Unlock()
}

// Query records the statement's query outcome: attribution, mechanism
// and the paper's page accounting. The last call wins (a statement
// evaluates at most one query; DML paths that pre-read via a query keep
// the final outcome).
func (a *Active) Query(table, column, mechanism string, matches, pagesRead, pagesSkipped int, degraded bool) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.rec.Table = table
	a.rec.Column = column
	a.rec.Mechanism = mechanism
	a.rec.Matches = matches
	a.rec.PagesRead += pagesRead
	a.rec.PagesSkipped += pagesSkipped
	a.rec.QuotaDegraded = a.rec.QuotaDegraded || degraded
	a.mu.Unlock()
}

// WAL adds the statement's WAL append and commit cost and notes the
// group-commit batch that made it durable. The engine calls it once
// per DML statement, however many rows the statement touched.
func (a *Active) WAL(commit time.Duration, batch uint64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.rec.WALCommitNanos += int64(commit)
	a.rec.WALBatch = batch
	a.mu.Unlock()
}

type ctxKey int

const (
	traceKey ctxKey = iota
	activeKey
)

// WithTrace stores a wire-supplied trace ID in the context. The
// statement layer's Begin adopts it; an empty id is ignored.
func WithTrace(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, traceKey, id)
}

// TraceID returns the trace ID stored by WithTrace ("" if none).
func TraceID(ctx context.Context) string {
	id, _ := ctx.Value(traceKey).(string)
	return id
}

// WithActive attaches an in-progress record to the context.
func WithActive(ctx context.Context, a *Active) context.Context {
	return context.WithValue(ctx, activeKey, a)
}

// FromContext returns the in-progress record, or nil — and every
// *Active method is a nil-safe no-op, so callers need not check.
func FromContext(ctx context.Context) *Active {
	a, _ := ctx.Value(activeKey).(*Active)
	return a
}

// Stats is the recorder's counter snapshot for /metrics.
type Stats struct {
	Enabled   bool          `json:"enabled"`
	Completed uint64        `json:"completed"`
	Slow      uint64        `json:"slow"`
	Threshold time.Duration `json:"threshold"`
}

// Recorder keeps the two bounded rings of completed records: every
// completion enters the recent ring (eviction by age), and completions
// at or above the slow threshold additionally enter the slow ring. Both
// rings run indefinitely under constant memory.
type Recorder struct {
	on     atomic.Bool
	slowNS atomic.Int64 // capture threshold; records at/above enter slow ring

	seq       atomic.Uint64
	completed atomic.Uint64
	slowSeen  atomic.Uint64

	mintBase uint64        // per-process base so minted IDs don't collide across restarts
	mintN    atomic.Uint64 // counter under the base

	sink atomic.Pointer[func(Record)]

	mu       sync.Mutex // guards the rings; strict leaf, never held calling out
	recent   []Record
	recentN  int // next write slot
	recentSz int // filled count
	slow     []Record
	slowN    int
	slowSz   int
}

// DefaultSlowThreshold is the slow-capture cutoff used by Enable when
// the caller passes 0.
const DefaultSlowThreshold = 10 * time.Millisecond

// NewRecorder creates a disabled recorder with the given ring
// capacities (min 1 each).
func NewRecorder(recentCap, slowCap int) *Recorder {
	if recentCap < 1 {
		recentCap = 1
	}
	if slowCap < 1 {
		slowCap = 1
	}
	r := &Recorder{
		recent:   make([]Record, recentCap),
		slow:     make([]Record, slowCap),
		mintBase: uint64(time.Now().UnixNano()),
	}
	r.slowNS.Store(int64(DefaultSlowThreshold))
	return r
}

// Enabled reports whether statements are being recorded — the one
// atomic load every gate performs.
func (r *Recorder) Enabled() bool { return r != nil && r.on.Load() }

// Enable turns recording on with the given slow-capture threshold
// (0 keeps the current threshold, initially DefaultSlowThreshold).
func (r *Recorder) Enable(slowThreshold time.Duration) {
	if slowThreshold > 0 {
		r.slowNS.Store(int64(slowThreshold))
	}
	r.on.Store(true)
}

// Disable stops recording. Existing records remain readable.
func (r *Recorder) Disable() { r.on.Store(false) }

// SlowThreshold returns the current slow-capture cutoff.
func (r *Recorder) SlowThreshold() time.Duration { return time.Duration(r.slowNS.Load()) }

// SetSink installs a hook invoked (synchronously, outside the ring
// lock) with every completed record — the JSONL telemetry bridge. Pass
// nil to remove.
func (r *Recorder) SetSink(fn func(Record)) {
	if fn == nil {
		r.sink.Store(nil)
		return
	}
	r.sink.Store(&fn)
}

// MintID mints a process-unique trace ID for statements that arrived
// without one.
func (r *Recorder) MintID() string {
	return "aib-" + strconv.FormatUint(r.mintBase, 36) + "-" + strconv.FormatUint(r.mintN.Add(1), 36)
}

// Begin opens an Active for one statement and returns the context the
// statement must be evaluated under. The trace ID is taken from the
// context (wire-supplied) or minted. Callers gate on Enabled — Begin
// itself allocates.
func (r *Recorder) Begin(ctx context.Context, tenant, stmt string) (*Active, context.Context) {
	trace := TraceID(ctx)
	if trace == "" {
		trace = r.MintID()
	}
	a := &Active{rec: Record{
		Trace:          trace,
		Tenant:         tenant,
		Stmt:           stmt,
		StartUnixNanos: time.Now().UnixNano(),
	}}
	return a, WithActive(ctx, a)
}

// Complete finalizes the Active and publishes it into the rings (and
// the sink, if installed). Safe to call with a nil Active.
func (r *Recorder) Complete(a *Active, err error) {
	if a == nil {
		return
	}
	a.mu.Lock()
	rec := a.rec
	a.mu.Unlock()
	rec.DurationNanos = time.Now().UnixNano() - rec.StartUnixNanos
	if err != nil {
		rec.Error = err.Error()
	}
	rec.Seq = r.seq.Add(1)
	r.completed.Add(1)
	slow := rec.DurationNanos >= r.slowNS.Load()
	if slow {
		r.slowSeen.Add(1)
	}
	r.mu.Lock()
	r.recent[r.recentN] = rec
	r.recentN = (r.recentN + 1) % len(r.recent)
	if r.recentSz < len(r.recent) {
		r.recentSz++
	}
	if slow {
		r.slow[r.slowN] = rec
		r.slowN = (r.slowN + 1) % len(r.slow)
		if r.slowSz < len(r.slow) {
			r.slowSz++
		}
	}
	r.mu.Unlock()
	if fn := r.sink.Load(); fn != nil {
		(*fn)(rec)
	}
}

// snapshotLocked copies a ring newest-first. Caller holds r.mu.
func snapshotLocked(ring []Record, next, size int) []Record {
	out := make([]Record, 0, size)
	for i := 0; i < size; i++ {
		out = append(out, ring[((next-1-i)%len(ring)+len(ring))%len(ring)])
	}
	return out
}

// Recent returns up to n most recent records, newest first (n <= 0
// means all retained).
func (r *Recorder) Recent(n int) []Record {
	r.mu.Lock()
	out := snapshotLocked(r.recent, r.recentN, r.recentSz)
	r.mu.Unlock()
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Slow returns up to n captured slow records, slowest first (n <= 0
// means all retained).
func (r *Recorder) Slow(n int) []Record {
	r.mu.Lock()
	out := snapshotLocked(r.slow, r.slowN, r.slowSz)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].DurationNanos > out[j].DurationNanos })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Find filters both rings (deduped by Seq, newest first): trace and
// tenant match exactly when non-empty, minDur keeps records at least
// that slow, n bounds the result (<= 0 means no bound).
func (r *Recorder) Find(trace, tenant string, minDur time.Duration, n int) []Record {
	r.mu.Lock()
	recs := snapshotLocked(r.recent, r.recentN, r.recentSz)
	recs = append(recs, snapshotLocked(r.slow, r.slowN, r.slowSz)...)
	r.mu.Unlock()
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Seq > recs[j].Seq })
	seen := make(map[uint64]bool, len(recs))
	out := make([]Record, 0, len(recs))
	for _, rec := range recs {
		if seen[rec.Seq] {
			continue
		}
		seen[rec.Seq] = true
		if trace != "" && rec.Trace != trace {
			continue
		}
		if tenant != "" && rec.Tenant != tenant {
			continue
		}
		if rec.DurationNanos < int64(minDur) {
			continue
		}
		out = append(out, rec)
		if n > 0 && len(out) >= n {
			break
		}
	}
	return out
}

// Stats returns the recorder's counters.
func (r *Recorder) Stats() Stats {
	return Stats{
		Enabled:   r.on.Load(),
		Completed: r.completed.Load(),
		Slow:      r.slowSeen.Load(),
		Threshold: r.SlowThreshold(),
	}
}
