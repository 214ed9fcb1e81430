// Package timeline records the *temporal* dimension of the Index
// Buffer's adaptation: per-(table, column) ring-buffered time-series of
// coverage fraction, C[p] counter distribution, occupancy bytes,
// displacement/page-complete churn, and the per-mechanism query mix,
// sampled on query boundaries. The paper's headline claims are
// convergence curves (Figs. 5–6 plot coverage and scan cost over query
// count); this package makes those curves a live observable instead of
// an offline aibench artifact, and derives a convergence verdict
// ("queries to 95% coverage", regression flags) from them.
//
// The recorder only samples; it counts nothing of its own. A sample's
// churn is the buffer's own counters (core.IndexBuffer.Churn) and its
// query mix the tracer's per-column handle (trace.Column.Mix), so every
// fact is counted once, where it happens. Each query boundary samples
// the queried buffer, then re-samples, in name order, every other
// buffer whose churn moved since its last sample or that was Reset
// since.
//
// Concurrency: one mutex, taken once per query boundary and per Reset,
// orders each series' samples and their delivery to the sink. Lock
// order: Recorder.mu → Space.mu (resolving a reset buffer's successor)
// → IndexBuffer.mu (reading a sample), and Recorder.mu → Sink.mu. No
// core lock ever calls into the recorder.
//
// Disabled (the default), every entry point is a single atomic load
// with no allocation, so the recorder can stay attached to a production
// engine at ~zero cost.
package timeline

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/trace"
)

// Sample event triggers.
const (
	// EventQuery: taken on a query boundary for the queried column.
	EventQuery = "query"
	// EventResample: taken at another column's query boundary, for a
	// buffer whose churn moved since its last sample (a displacement
	// victim) or that was reset since.
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

	// Cumulative churn of the buffers under this name: their own
	// counters (core.Churn), summed across resets.
	Displacements    uint64 `json:"displacements"`
	DisplacedEntries uint64 `json:"displaced_entries"`
	PageCompletes    uint64 `json:"page_completes"`

	// Cumulative per-mechanism query mix for this (table, column), read
	// from the tracer's per-column handle.
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
	// series created by a Reset alone has them empty until a query
	// touches the column.
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

	// mix is the tracer's handle for the column, whose per-mechanism
	// counts are the samples' query mix; nil until a query boundary.
	mix *trace.Column
	// buf is the buffer re-samples read, nil when none is known.
	buf *core.IndexBuffer
	// base is the churn of the buffers Reset retired under this name,
	// so the series' counts stay cumulative across a swap; retired is
	// the latest of them, whose counters base already holds.
	base    core.Churn
	retired *core.IndexBuffer
	// churn is what the latest sample carried; reset asks the next
	// boundary for a re-sample.
	churn core.Churn
	reset bool

	ring    []Sample
	next    int
	filled  int
	dropped uint64

	queries uint64

	// convergence state, updated incrementally at every append so the
	// verdict survives ring eviction. Reset clears the episode fields
	// (achieved through regressedAt) — the buffer was recreated from
	// scratch, so the old verdict no longer describes it.
	achieved        bool
	queriesToTarget uint64
	coverage        float64
	maxCoverage     float64
	regressed       bool
	regressedAt     uint64
	resets          uint64
}

// churnOf returns the series' cumulative churn with b as its current
// buffer. A stale read of the retired buffer (a lock-free hit that
// resolved it before the swap) adds nothing: base holds its counters.
func (s *series) churnOf(b *core.IndexBuffer) core.Churn {
	c := s.base
	if b != nil && b != s.retired {
		bc := b.Churn()
		c.Displacements += bc.Displacements
		c.DisplacedEntries += bc.DisplacedEntries
		c.PageCompletes += bc.PageCompletes
	}
	return c
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
	series []*series // sorted by buffer name
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
	return &Recorder{capacity: capacity, target: target}
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
func (r *Recorder) SetSink(s *Sink) { r.sink.Store(s) }

// ObserveQuery records a query boundary for (table, column): it samples
// buf, the column's buffer (nil samples an empty buffer), with the query
// mix counted in the column's tracer handle mix. It then re-samples, in
// name order, every other buffer whose churn moved since its last
// sample or that was Reset since; a reset buffer's successor is looked
// up by name in space (nil skips them).
func (r *Recorder) ObserveQuery(table, column string, mix *trace.Column, buf *core.IndexBuffer, space *core.Space) {
	if !r.enabled.Load() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.seriesLocked(bufferKey(table, column))
	s.table, s.column, s.mix = table, column, mix
	if buf != s.retired {
		s.buf = buf
	}
	s.reset = false // this boundary samples the queried buffer itself
	s.queries++
	r.appendLocked(s, EventQuery, buf)
	for _, o := range r.series {
		if o == s {
			continue
		}
		if o.reset && space != nil {
			o.buf = space.Buffer(o.buffer)
		}
		if o.buf != nil && (o.reset || o.churnOf(o.buf) != o.churn) {
			r.appendLocked(o, EventResample, o.buf)
		}
		o.reset = false
	}
}

// Reset records that old, one partial index's buffer, was discarded
// wholesale (the index dropped or redefined). Its churn stays in the
// series' cumulative counts, its successor under the same name (if any)
// is re-sampled at the next query boundary, and the series starts a
// fresh convergence episode: the verdict would otherwise report the
// pre-shift convergence (merely "regressed") for a buffer that no
// longer exists.
func (r *Recorder) Reset(old *core.IndexBuffer) {
	if !r.enabled.Load() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.seriesLocked(old.Name())
	if old != s.retired {
		s.base, s.retired = s.churnOf(old), old
	}
	s.buf, s.reset = nil, true
	s.resets++
	s.achieved, s.queriesToTarget, s.maxCoverage, s.regressed, s.regressedAt = false, 0, 0, false, 0
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
	return out
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
	return out
}

// seriesLocked returns (creating on first touch) the series for key.
func (r *Recorder) seriesLocked(key string) *series {
	i, found := slices.BinarySearchFunc(r.series, key, func(s *series, k string) int { return strings.Compare(s.buffer, k) })
	if !found {
		r.series = slices.Insert(r.series, i, &series{buffer: key, ring: make([]Sample, r.capacity)})
	}
	return r.series[i]
}

// appendLocked samples buf (nil reads as an empty buffer) into the
// series ring, advances the convergence state and streams the sample to
// the sink, all under r.mu, so each series' samples reach the sink in
// ordinal order.
func (r *Recorder) appendLocked(s *series, event string, buf *core.IndexBuffer) {
	var sample Sample
	if buf != nil {
		c := buf.CounterSummary()
		sample = Sample{
			TotalPages: c.Pages, Skippable: c.Skippable, Coverage: c.Coverage(),
			Entries: buf.EntryCount(), Bytes: buf.EntryBytes(),
			CMin: c.Min, CP50: c.P50, CP95: c.P95, CMax: c.Max,
		}
	}
	sample.Query, sample.Event, sample.UnixMicros = s.queries, event, time.Now().UnixMicro()
	s.churn = s.churnOf(buf)
	sample.Displacements, sample.DisplacedEntries, sample.PageCompletes = s.churn.Displacements, s.churn.DisplacedEntries, s.churn.PageCompletes
	if s.mix != nil {
		// A quota-degraded pass counts with the full scans: it adapts
		// nothing. An empty range touches nothing and counts nowhere.
		for i, n := range s.mix.Mix() {
			switch flight.Mechanisms[i] {
			case "hit":
				sample.Hits = n
			case "indexing-scan":
				sample.IndexingScans = n
			case "full-scan", "degraded-scan":
				sample.FullScans += n
			case "shared-follower":
				sample.Followers = n
			}
		}
	}
	s.ring[s.next] = sample
	s.next = (s.next + 1) % len(s.ring)
	if s.filled < len(s.ring) {
		s.filled++
	} else {
		s.dropped++
	}
	r.samples.Add(1)
	if sink := r.sink.Load(); sink != nil {
		sink.WriteSample(SampleRecord{Buffer: s.buffer, Table: s.table, Column: s.column, Sample: sample})
	}

	// Convergence advances on every sample; a nil-buffer sample measures
	// zero coverage honestly: no buffer means nothing is skippable.
	cov := sample.Coverage
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

// bufferKey mirrors the engine's buffer naming ("table.column").
func bufferKey(table, column string) string { return table + "." + column }
