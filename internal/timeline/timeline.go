// Package timeline records the *temporal* dimension of the Index
// Buffer's adaptation: per-(table, column) ring-buffered time-series of
// coverage fraction, C[p] counter distribution, occupancy bytes,
// displacement/page-complete churn, and the per-mechanism query mix,
// sampled on query boundaries and re-sampled after adaptive events. The
// paper's headline claims are convergence curves (Figs. 5–6 plot
// coverage and scan cost over query count); this package makes those
// curves a live observable instead of an offline aibench artifact, and
// derives a convergence verdict ("queries to 95% coverage", regression
// flags) from them.
//
// Concurrency: the Recorder's mutex is a strict leaf — no method
// acquires any other lock while holding it, and buffer state is
// snapshotted *before* the mutex is taken. NoteEvent only bumps
// counters and marks the buffer dirty; the actual coverage sample of a
// dirtied buffer is taken later, on the next query boundary, outside
// all core locks.
//
// Disabled (the default), every entry point is a single atomic load
// with no allocation, so the recorder can stay attached to a production
// engine at ~zero cost — the same contract the trace package's span
// gate established.
package timeline

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
)

// Sample event triggers.
const (
	// EventQuery: taken on a query boundary for the queried column.
	EventQuery = "query"
	// EventResample: taken after an adaptive event (displacement,
	// page-complete) changed a buffer another query was not touching.
	EventResample = "resample"
)

// Sample is one timeline data point. Counter distribution fields
// describe the *non-zero* counters (the remaining un-skippable work);
// zeros are what Coverage already measures. Churn and mix fields are
// cumulative — consumers difference adjacent samples for rates.
type Sample struct {
	// Query is the series' 1-based query ordinal at sampling time;
	// EventResample samples repeat the current ordinal.
	Query uint64 `json:"query"`
	// Event is EventQuery or EventResample.
	Event string `json:"event"`
	// UnixMicros is the wall-clock sampling instant.
	UnixMicros int64 `json:"unix_us"`

	// TotalPages is the buffer's counter-array size; Skippable the pages
	// with C[p] == 0; Coverage their ratio (0 when TotalPages is 0).
	TotalPages int     `json:"total_pages"`
	Skippable  int     `json:"skippable_pages"`
	Coverage   float64 `json:"coverage"`

	// Entries and Bytes are the buffer's occupancy: entry count and the
	// exact encoded payload bytes of those entries.
	Entries int `json:"entries"`
	Bytes   int `json:"bytes"`

	// CMin/CP50/CP95/CMax summarize the non-zero C[p] distribution; all
	// zero when every page is skippable.
	CMin int `json:"c_min"`
	CP50 int `json:"c_p50"`
	CP95 int `json:"c_p95"`
	CMax int `json:"c_max"`

	// Cumulative churn counters for this buffer.
	Displacements    uint64 `json:"displacements"`
	DisplacedEntries uint64 `json:"displaced_entries"`
	PageCompletes    uint64 `json:"page_completes"`

	// Cumulative per-mechanism query mix for this (table, column).
	Hits          uint64 `json:"hits"`
	IndexingScans uint64 `json:"indexing_scans"`
	FullScans     uint64 `json:"full_scans"`
	Followers     uint64 `json:"followers"`
}

// Series is the retained timeline of one (table, column) pair. The
// JSON tags shape the obs package's /timeline endpoint.
type Series struct {
	// Buffer is the Index Buffer name, "table.column".
	Buffer string `json:"buffer"`
	// Table and Column are filled on the first query observation; a
	// series created by an adaptive event alone has them empty until a
	// query touches the column.
	Table  string `json:"table,omitempty"`
	Column string `json:"column,omitempty"`
	// Samples are oldest-first. Dropped counts samples evicted from the
	// ring before this snapshot.
	Samples []Sample `json:"samples"`
	Dropped uint64   `json:"dropped"`
}

// Convergence is the detector's verdict for one series — the
// paper-shaped answer to "how many queries until this column became
// target-fraction skippable, and has it stayed there?".
type Convergence struct {
	Buffer string `json:"buffer"`
	Table  string `json:"table,omitempty"`
	Column string `json:"column,omitempty"`
	// Target is the coverage fraction the detector watches for.
	Target float64 `json:"target"`
	// Achieved reports whether coverage ever reached Target;
	// QueriesToTarget is the query ordinal of the first crossing.
	Achieved        bool   `json:"achieved"`
	QueriesToTarget uint64 `json:"queries_to_target,omitempty"`
	// Coverage is the latest observed value, MaxCoverage the high-water
	// mark.
	Coverage    float64 `json:"coverage"`
	MaxCoverage float64 `json:"max_coverage"`
	// Regressed reports that coverage currently sits below Target after
	// having achieved it (e.g. a DML burst or displacement undid
	// buffered pages); RegressedAt is the query ordinal of the latest
	// drop below Target.
	Regressed   bool   `json:"regressed"`
	RegressedAt uint64 `json:"regressed_at,omitempty"`
	// Resets counts buffer-reset events (partial index dropped or
	// redefined): each one discards the buffer wholesale and starts a
	// fresh adaptation episode, so Achieved/QueriesToTarget/MaxCoverage
	// describe the *current* episode only. Without this reset a
	// shifting workload that redefines its index would keep reporting
	// the stale pre-shift "converged" verdict forever.
	Resets uint64 `json:"resets,omitempty"`
	// Queries is the series' total query count.
	Queries uint64 `json:"queries"`
}

// series is the mutable per-buffer state behind one Series.
type series struct {
	buffer        string
	table, column string

	ring    []Sample
	next    int
	filled  int
	dropped uint64

	queries uint64
	mix     queryMix

	displacements    uint64
	displacedEntries uint64
	pageCompletes    uint64

	// convergence state, updated incrementally at every append so the
	// verdict survives ring eviction. A buffer-reset event clears the
	// episode fields (achieved through regressedAt) — the buffer was
	// recreated from scratch, so the old verdict no longer describes it.
	achieved        bool
	queriesToTarget uint64
	coverage        float64
	maxCoverage     float64
	regressed       bool
	regressedAt     uint64
	resets          uint64
}

// queryMix is a series' cumulative per-mechanism query counts.
type queryMix struct {
	hits, indexingScans, fullScans, followers uint64
}

// count advances the counter for mech (the flight.Mechanism vocabulary).
// A quota-degraded pass counts with the full scans: it adapts nothing
// (the tenant's degraded counter tracks it separately). An empty range
// touches nothing and counts nowhere.
func (m *queryMix) count(mech string) {
	switch mech {
	case "hit":
		m.hits++
	case "indexing-scan":
		m.indexingScans++
	case "full-scan", "degraded-scan":
		m.fullScans++
	case "shared-follower":
		m.followers++
	}
}

// snapshot is a buffer-state reading taken outside the recorder lock.
type snapshot struct {
	counters core.CounterStats
	entries  int
	bytes    int
}

// Defaults.
const (
	// DefaultCapacity bounds each series' sample ring.
	DefaultCapacity = 1024
	// DefaultTarget is the convergence coverage fraction (the paper's
	// curves flatten just below full coverage of the touched range).
	DefaultTarget = 0.95
)

// Recorder is the adaptation-timeline subsystem: one ring-buffered
// series per Index Buffer plus the convergence detector over them.
// Safe for concurrent use; zero-cost while disabled.
type Recorder struct {
	enabled  atomic.Bool
	capacity int
	target   float64
	samples  atomic.Uint64 // total samples ever taken, across series

	sink atomic.Pointer[Sink]

	mu     sync.Mutex
	series map[string]*series
	dirty  map[string]struct{}
}

// New creates a recorder keeping capacity samples per series (<= 0
// means DefaultCapacity) and detecting convergence at target coverage
// (<= 0 or > 1 means DefaultTarget).
func New(capacity int, target float64) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if target <= 0 || target > 1 {
		target = DefaultTarget
	}
	return &Recorder{
		capacity: capacity,
		target:   target,
		series:   make(map[string]*series),
		dirty:    make(map[string]struct{}),
	}
}

// Enable turns sampling on or off. Off (the default) makes every entry
// point a single atomic load.
func (r *Recorder) Enable(on bool) { r.enabled.Store(on) }

// Enabled reports whether sampling is on. Callers that must build
// arguments (resolve buffers, snapshot stats) should check it first to
// keep the disabled path allocation-free.
func (r *Recorder) Enabled() bool { return r.enabled.Load() }

// Target returns the convergence coverage target.
func (r *Recorder) Target() float64 { return r.target }

// SampleCount returns the number of samples ever taken (survives ring
// eviction).
func (r *Recorder) SampleCount() uint64 { return r.samples.Load() }

// SetSink attaches a telemetry sink: every sample appended from now on
// is also streamed to it as one JSONL record. nil detaches.
func (r *Recorder) SetSink(s *Sink) {
	if s == nil {
		r.sink.Store(nil)
		return
	}
	r.sink.Store(s)
}

// ObserveQuery records a query boundary for (table, column) answered by
// mechanism mech (the flight.Mechanism vocabulary): the mechanism mix
// always advances, and when buf is non-nil its coverage, counter
// distribution and occupancy are sampled. It then re-samples
// any buffers dirtied by adaptive events since the last boundary, using
// resolve to map buffer names to buffers (resolve may be nil to skip).
// No recorder lock is held while buffer state is read.
func (r *Recorder) ObserveQuery(table, column, mech string, buf *core.IndexBuffer, resolve func(string) *core.IndexBuffer) {
	if !r.enabled.Load() {
		return
	}
	key := bufferKey(table, column)
	snap := takeSnapshot(buf)
	now := time.Now().UnixMicro()

	r.mu.Lock()
	s := r.seriesLocked(key)
	if s.table == "" {
		s.table, s.column = table, column
	}
	s.queries++
	s.mix.count(mech)
	delete(r.dirty, key) // this boundary samples the queried buffer itself
	sample := r.appendLocked(s, EventQuery, now, snap)
	rec := SampleRecord{Type: RecordSample, Buffer: s.buffer, Table: s.table, Column: s.column, Sample: sample}
	dirty := r.takeDirtyLocked()
	r.mu.Unlock()

	if sink := r.sink.Load(); sink != nil {
		sink.WriteSample(rec)
	}
	if resolve != nil {
		for _, name := range dirty {
			r.Resample(name, resolve(name))
		}
	}
}

// Resample takes an EventResample sample of one buffer — used after
// adaptive events dirtied a buffer no query boundary would otherwise
// visit (e.g. a displacement victim on another table). A nil buf is
// ignored (the buffer was dropped between dirtying and resampling).
func (r *Recorder) Resample(name string, buf *core.IndexBuffer) {
	if buf == nil || !r.enabled.Load() {
		return
	}
	snap := takeSnapshot(buf)
	now := time.Now().UnixMicro()

	r.mu.Lock()
	s := r.seriesLocked(name)
	sample := r.appendLocked(s, EventResample, now, snap)
	rec := SampleRecord{Type: RecordSample, Buffer: s.buffer, Table: s.table, Column: s.column, Sample: sample}
	r.mu.Unlock()

	if sink := r.sink.Load(); sink != nil {
		sink.WriteSample(rec)
	}
}

// NoteEvent ingests one adaptive event (the flight span vocabulary:
// kind/target/page/n). It only touches recorder-internal state: it bumps
// churn counters, resets the convergence episode on buffer-reset and
// marks the target buffer dirty for the next query boundary.
func (r *Recorder) NoteEvent(kind, target string, page, n int) {
	if !r.enabled.Load() {
		return
	}
	_ = page
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.seriesLocked(target)
	switch kind {
	case flight.SpanDisplace:
		s.displacements++
		s.displacedEntries += uint64(n)
		r.dirty[target] = struct{}{}
	case flight.SpanPageComplete:
		s.pageCompletes++
		r.dirty[target] = struct{}{}
	case flight.SpanBufferReset:
		// The buffer was dropped wholesale (partial index dropped or
		// redefined); any successor under the same name is a new
		// adaptation episode. Clearing the episode state here fixes the
		// detector's stale-converged false positive under shifting
		// workloads: the verdict would otherwise report the pre-shift
		// convergence (merely "regressed") for a buffer that no longer
		// exists.
		s.resets++
		s.achieved = false
		s.queriesToTarget = 0
		s.maxCoverage = 0
		s.regressed = false
		s.regressedAt = 0
		r.dirty[target] = struct{}{}
	}
}

// TakeDirty returns and clears the set of buffer names dirtied by
// adaptive events since the last call. The caller resolves each name to
// its buffer (outside core's locks) and calls Resample.
func (r *Recorder) TakeDirty() []string {
	if !r.enabled.Load() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.takeDirtyLocked()
}

func (r *Recorder) takeDirtyLocked() []string {
	if len(r.dirty) == 0 {
		return nil
	}
	out := make([]string, 0, len(r.dirty))
	for k := range r.dirty {
		out = append(out, k)
	}
	sort.Strings(out)
	r.dirty = make(map[string]struct{})
	return out
}

// Series returns a snapshot of every series, sorted by buffer name,
// samples oldest-first.
func (r *Recorder) Series() []Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Series, 0, len(r.series))
	for _, s := range r.series {
		out = append(out, s.export())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Buffer < out[j].Buffer })
	return out
}

// SeriesFor returns the series for one buffer name and whether it
// exists.
func (r *Recorder) SeriesFor(name string) (Series, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[name]
	if !ok {
		return Series{}, false
	}
	return s.export(), true
}

// DisplacedEntries returns the entries displaced from buffer name since
// its series began (0 for a buffer never seen): the cumulative counter
// every sample carries, read without copying the series.
func (r *Recorder) DisplacedEntries(name string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.series[name]; s != nil {
		return s.displacedEntries
	}
	return 0
}

// Convergence returns the detector's verdict for every series, sorted
// by buffer name.
func (r *Recorder) Convergence() []Convergence {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Convergence, 0, len(r.series))
	for _, s := range r.series {
		out = append(out, s.verdict(r.target))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Buffer < out[j].Buffer })
	return out
}

// seriesLocked returns (creating on first touch) the series for key.
func (r *Recorder) seriesLocked(key string) *series {
	s := r.series[key]
	if s == nil {
		s = &series{buffer: key, ring: make([]Sample, r.capacity)}
		r.series[key] = s
	}
	return s
}

// appendLocked builds a sample from the snapshot, appends it to the
// series ring, and advances the convergence state. Returns the sample.
func (r *Recorder) appendLocked(s *series, event string, unixMicros int64, snap snapshot) Sample {
	cov := 0.0
	if snap.counters.Pages > 0 {
		cov = float64(snap.counters.Skippable) / float64(snap.counters.Pages)
	}
	sample := Sample{
		Query:            s.queries,
		Event:            event,
		UnixMicros:       unixMicros,
		TotalPages:       snap.counters.Pages,
		Skippable:        snap.counters.Skippable,
		Coverage:         cov,
		Entries:          snap.entries,
		Bytes:            snap.bytes,
		CMin:             snap.counters.Min,
		CP50:             snap.counters.P50,
		CP95:             snap.counters.P95,
		CMax:             snap.counters.Max,
		Displacements:    s.displacements,
		DisplacedEntries: s.displacedEntries,
		PageCompletes:    s.pageCompletes,
		Hits:             s.mix.hits,
		IndexingScans:    s.mix.indexingScans,
		FullScans:        s.mix.fullScans,
		Followers:        s.mix.followers,
	}
	s.ring[s.next] = sample
	s.next = (s.next + 1) % len(s.ring)
	if s.filled < len(s.ring) {
		s.filled++
	} else {
		s.dropped++
	}
	r.samples.Add(1)

	// Convergence advances only on samples that actually measured a
	// buffer; a nil-buffer query-mix sample (TotalPages == 0 with no
	// buffer) still measures zero coverage honestly, which is correct:
	// no buffer means nothing is skippable.
	s.coverage = cov
	if cov > s.maxCoverage {
		s.maxCoverage = cov
	}
	if !s.achieved && cov >= r.target {
		s.achieved = true
		s.queriesToTarget = s.queries
	}
	if s.achieved {
		if cov < r.target {
			if !s.regressed {
				s.regressed = true
				s.regressedAt = s.queries
			}
		} else {
			s.regressed = false
		}
	}
	return sample
}

// export copies the retained samples oldest-first.
func (s *series) export() Series {
	out := Series{
		Buffer:  s.buffer,
		Table:   s.table,
		Column:  s.column,
		Samples: make([]Sample, 0, s.filled),
		Dropped: s.dropped,
	}
	for i := 0; i < s.filled; i++ {
		out.Samples = append(out.Samples, s.ring[(s.next-s.filled+i+len(s.ring))%len(s.ring)])
	}
	return out
}

func (s *series) verdict(target float64) Convergence {
	return Convergence{
		Buffer:          s.buffer,
		Table:           s.table,
		Column:          s.column,
		Target:          target,
		Achieved:        s.achieved,
		QueriesToTarget: s.queriesToTarget,
		Coverage:        s.coverage,
		MaxCoverage:     s.maxCoverage,
		Regressed:       s.regressed,
		RegressedAt:     s.regressedAt,
		Resets:          s.resets,
		Queries:         s.queries,
	}
}

// takeSnapshot reads buffer state through its own accessors — never
// with the recorder lock held.
func takeSnapshot(buf *core.IndexBuffer) snapshot {
	if buf == nil {
		return snapshot{}
	}
	return snapshot{
		counters: buf.CounterSummary(),
		entries:  buf.EntryCount(),
		bytes:    buf.EntryBytes(),
	}
}

// bufferKey mirrors the engine's buffer naming ("table.column").
func bufferKey(table, column string) string { return table + "." + column }
