package bench

import (
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/storage"
)

// intVal wraps an int64 as a storage value.
func intVal(v int64) storage.Value { return storage.Int64Value(v) }

// Fig6Result carries the series of the paper's Figure 6 (experiment 1):
// a single Index Buffer with unlimited space, queried only on uncovered
// values of column A.
type Fig6Result struct {
	PagesRead  *metrics.Series // per-query logical page reads ("runtime")
	ScanRef    *metrics.Series // reference: full scan cost (pages in table)
	IndexRef   *metrics.Series // reference: pure index scan cost (match pages only)
	Entries    *metrics.Series // Index Buffer entries after the query
	Skipped    *metrics.Series // pages skipped by the query
	WallMicros *metrics.Series // measured wall-clock per query, microseconds
	TablePages int
	TotalUncov int // total uncovered tuples == entries at full build-out
}

// Frame renders the main cost curves.
func (r *Fig6Result) Frame() *metrics.Frame {
	return metrics.NewFrame("query", r.PagesRead, r.ScanRef, r.IndexRef, r.Skipped)
}

// WallSummary reports the wall-clock latency distribution across the
// run's queries.
func (r *Fig6Result) WallSummary() string {
	h := metrics.NewHistogram()
	for _, v := range r.WallMicros.Y {
		h.Observe(uint64(v))
	}
	return h.Summary("us")
}

// RunFig6 reproduces Figure 6. Space is unlimited, I^MAX = 5,000 pages
// (scaled), P = 10,000 pages (scaled). Expected shape: the first queries
// cost a little above a plain scan (they build the buffer), cost then
// collapses; with unlimited space the table is fully indexed after a few
// queries and the per-query cost reaches the index-scan level.
func RunFig6(o Options) (*Fig6Result, error) {
	o = o.withDefaults()
	if err := o.validate(); err != nil {
		return nil, err
	}
	spaceCfg := core.Config{
		IMax: o.scale(paperIMax),
		P:    o.scale(paperP),
	}
	_, tb, err := setup(o, spaceCfg, 1, false)
	if err != nil {
		return nil, err
	}

	r := &Fig6Result{
		PagesRead:  metrics.NewSeries("pages_read"),
		ScanRef:    metrics.NewSeries("full_scan_ref"),
		IndexRef:   metrics.NewSeries("index_scan_ref"),
		Entries:    metrics.NewSeries("buffer_entries"),
		Skipped:    metrics.NewSeries("pages_skipped"),
		WallMicros: metrics.NewSeries("wall_us"),
		TablePages: tb.NumPages(),
	}

	// Total uncovered tuples: the ceiling the buffer grows to.
	buf := tb.Buffer(0)
	for p := 0; p < tb.NumPages(); p++ {
		r.TotalUncov += buf.Uncovered(storage.PageID(p))
	}

	rng := o.queryRng()
	draw := uncoveredDraw()
	for q := 0; q < o.Queries; q++ {
		key := intVal(draw(rng))
		matches, stats, err := tb.QueryEqual(0, key)
		if err != nil {
			return nil, err
		}
		r.PagesRead.Add(float64(stats.PagesRead))
		r.ScanRef.Add(float64(tb.NumPages()))
		r.IndexRef.Add(float64(distinctPages(matches)))
		r.Entries.Add(float64(buf.EntryCount()))
		r.Skipped.Add(float64(stats.PagesSkipped))
		r.WallMicros.Add(float64(stats.Duration.Microseconds()))
	}
	return r, nil
}

// distinctPages counts the pages a pure index scan would fetch for the
// matches.
func distinctPages(matches []exec.Match) int {
	seen := map[storage.PageID]bool{}
	for _, m := range matches {
		seen[m.RID.Page] = true
	}
	return len(seen)
}
