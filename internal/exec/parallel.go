package exec

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/heap"
	"repro/internal/index"
	"repro/internal/storage"
)

// This file is the page loop of ExecuteShared's table scan — the walk
// that dominates every miss (the paper's §III cost model counts pages
// read, and Fig. 6's runtime is exactly that walk). Every table scan, the
// Algorithm-1 indexing scan and the no-buffer full scan alike, runs it in
// two phases over a visit list: the pages the scan reads, ascending. For
// the indexing scan that is the pages with C[p] != 0 at scan start
// (IndexBuffer.NonZeroPages); for a full scan, every page. A skipped page
// costs the pass nothing, so a converged miss, whose visit list is
// empty, pays only for the pages its matches live on.
//
// Phase 1 (read-only): the visit list is split into contiguous chunks
// (heap.Chunks over list positions) claimed off a shared cursor. With one
// worker the calling goroutine walks them itself; with n > 1 a pool of n
// goroutines does. The worker count is sized from the list's length, so a
// pass with nothing to read runs inline. Workers read pages, evaluate
// every attached query's predicate, and — for pages in the Algorithm-2
// selection set I — collect the page's candidate Index Buffer entries.
// Nothing is mutated: workers share only the per-query cancellation flags
// and the per-page result slots (each slot is written by exactly one
// worker).
//
// Phase 2 (serial, ordered merge): pages are folded in ascending page
// order into per-query stats, match lists, and the Index Buffer
// (core.ApplyPage assigns the page and inserts its complete entry set
// under one lock acquisition). The merge order does not depend on how
// phase 1 was chunked, so results, QueryStats, partition assignment, C[p]
// transitions, and span events are identical at every worker count — the
// property TestParallelOracleRandomized checks against the reference
// Algorithm 1 of reference_test.go.
//
// Skip-safety: the visit list is taken once, before phase 1. The only
// C[p] transitions during a scan are the ones this scan's merge performs
// (the caller holds the table's write lock, and Space.PinForScan keeps
// displacement away), and phase 2 starts strictly after phase 1 has
// finished — so a page's skip decision never races its own indexing.
//
// Failure: a table-level fault or whole-batch cancellation in phase 1
// aborts before phase 2, leaving the Index Buffer exactly as it was at
// every worker count. Buffer contents are optional system state (Graefe
// et al., "Concurrency Control for Adaptive Indexing"), so dropping a
// failed scan's indexing work is a valid outcome, and there is never a
// partially indexed page to roll back: C[p] == 0 only when every
// uncovered tuple of p is buffered.

// chunksPerWorker over-partitions the visit list so a worker that lands
// on cheap chunks (pool-resident pages) claims more work instead of
// idling behind a worker stuck on cold pages.
const chunksPerWorker = 4

// qMatch is one matching tuple tagged with the position (in scanQ) of
// the query it belongs to.
type qMatch struct {
	q int
	m Match
}

// pageResult is one visited page's phase-1 output, written by exactly
// one worker and read only after phase 1 has finished.
type pageResult struct {
	page    storage.PageID
	index   bool // p ∈ I: collect the page's candidate entries
	matches []qMatch
	entries []core.PageEntry
}

// scanPass is the shared state of one table-scan pass.
type scanPass struct {
	a      Access
	schema *storage.Schema
	qs     []SharedQuery
	states []scanState
	scanQ  []int

	// The predicates, compiled once per pass. On an INTEGER key column
	// every query is an int64 interval (its scanState's bounds); other
	// key kinds compare each query's Lo and Hi as Values. The partial
	// index's predicate, asked per key of a page in I, is coverage, nil
	// when there is no index.
	intKey   bool
	coverage index.Coverage

	results  []pageResult     // one slot per visited page, ascending
	canceled []atomic.Bool    // by position in scanQ
	chunks   []heap.PageRange // ranges of positions in results
	next     atomic.Int64     // chunk cursor
	abort    atomic.Bool

	errMu sync.Mutex
	err   error // first table-level fault
}

// runPass runs both phases over visit, the ascending pages to read, with
// `workers` phase-1 workers. inI is the Algorithm-2 page set, ascending;
// only its pages in visit are indexed, and a full scan passes nil, so it
// applies nothing. Returns the entries added and whether the scan
// aborted.
func runPass(a Access, qs []SharedQuery, outs []SharedOutcome, states []scanState, scanQ []int, visit, inI []storage.PageID, workers int) (entriesAdded int, aborted bool) {
	s := &scanPass{
		a:        a,
		schema:   a.Table.Schema(),
		qs:       qs,
		states:   states,
		scanQ:    scanQ,
		results:  make([]pageResult, len(visit)),
		canceled: make([]atomic.Bool, len(scanQ)),
		chunks:   heap.Chunks(len(visit), workers*chunksPerWorker),
	}
	s.compile()
	for i, p := range visit {
		s.results[i].page = p
		_, s.results[i].index = slices.BinarySearch(inI, p)
	}
	if s.finish(s.run(workers), outs) {
		return 0, true // aborted in phase 1: the buffer is untouched
	}
	for i := range s.results {
		res := &s.results[i]
		s.mergeMatches(res, outs)
		if res.index {
			if err := a.Buffer.ApplyPage(res.page, res.entries); err != nil {
				failActive(err, outs, states, scanQ)
				return entriesAdded, true
			}
			entriesAdded += len(res.entries)
			if a.Span != nil {
				a.Span(flight.SpanPageComplete, "", int(res.page), len(res.entries))
			}
		}
	}
	return entriesAdded, false
}

// run executes phase 1 and returns the first table-level fault, if any.
// One worker runs inline on the calling goroutine; more fan out to a
// pool, and run waits for every goroutine to exit — none outlives the
// scan. Cancellation is polled once up front as well as before every
// page, so a query canceled before the pass fails even when the visit
// list is empty.
func (s *scanPass) run(workers int) error {
	if !s.pollCancel() {
		return nil // every attached query canceled; finish reports it
	}
	if workers == 1 {
		s.worker()
	} else {
		if s.a.Span != nil {
			s.a.Span(flight.SpanScanParallel, "", -1, workers)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.worker()
			}()
		}
		wg.Wait()
	}
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

// fail records the first table-level fault and stops phase 1.
func (s *scanPass) fail(err error) {
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
	s.abort.Store(true)
}

// pollCancel marks queries whose context expired and reports whether any
// attached query is still live. Workers call it before every page.
func (s *scanPass) pollCancel() bool {
	any := false
	for k := range s.canceled {
		if s.canceled[k].Load() {
			continue
		}
		if s.states[s.scanQ[k]].ctx.Err() != nil {
			s.canceled[k].Store(true)
			continue
		}
		any = true
	}
	return any
}

// intRange is the closed interval [lo, hi] of int64 keys; lo > hi is
// empty.
type intRange struct{ lo, hi int64 }

var emptyRange = intRange{lo: 1, hi: 0}

func (r intRange) has(k int64) bool { return r.lo <= k && k <= r.hi }

// intBounds compiles lo <= v <= hi, in Value.Compare's order, to the
// int64 keys it admits. Values of different kinds order by kind, so a
// bound that is not an INTEGER lies below or above every integer and
// opens or empties its side.
func intBounds(lo, hi storage.Value) intRange {
	r := intRange{lo: math.MinInt64, hi: math.MaxInt64}
	zero := storage.Int64Value(0)
	switch {
	case lo.Kind() == storage.KindInt64:
		r.lo = lo.Int64()
	case lo.Compare(zero) > 0:
		return emptyRange
	}
	switch {
	case hi.Kind() == storage.KindInt64:
		r.hi = hi.Int64()
	case hi.Compare(zero) < 0:
		return emptyRange
	}
	return r
}

// compile fills the pass's compiled predicates.
func (s *scanPass) compile() {
	s.intKey = s.schema.Column(s.a.Column).Kind == storage.KindInt64
	if s.a.Index != nil {
		s.coverage = s.a.Index.Coverage()
	}
	if !s.intKey {
		return
	}
	for _, qi := range s.scanQ {
		s.states[qi].bounds = intBounds(s.qs[qi].Lo, s.qs[qi].Hi)
	}
}

// worker claims chunks until the cursor runs dry or the scan aborts.
// Its scanWorker is made at its first page.
func (s *scanPass) worker() {
	var w *scanWorker
	var fn func(*heap.PageBatch) error
	for {
		if s.abort.Load() {
			return
		}
		ci := int(s.next.Add(1)) - 1
		if ci >= len(s.chunks) {
			return
		}
		r := s.chunks[ci]
		for i := r.Lo; i < r.Hi; i++ {
			if s.abort.Load() {
				return
			}
			if !s.pollCancel() {
				s.abort.Store(true) // every attached query canceled
				return
			}
			if w == nil {
				w = &scanWorker{s: s}
				fn = w.page
			}
			w.res = &s.results[i]
			if err := s.a.Table.ScanPage(w.res.page, s.a.Column, &w.batch, fn); err != nil {
				s.fail(err)
				return
			}
		}
	}
}

// scanWorker is one phase-1 worker's reused state: the batch the page
// kernel fills, and the tuples materialised from the current one.
type scanWorker struct {
	s      *scanPass
	res    *pageResult // the page being read
	batch  heap.PageBatch
	tuples []storage.Tuple // by batch row; the zero Tuple until decoded
}

// page reads one visited page's batch into its result slot: each live
// attached query's predicate over the key vector, then candidate-entry
// collection for pages in I. The cancel flags are read once per batch.
// It mutates nothing shared.
func (w *scanWorker) page(b *heap.PageBatch) error {
	s := w.s
	w.tuples = slices.Grow(w.tuples[:0], b.Len())[:b.Len()]
	clear(w.tuples)
	for k, qi := range s.scanQ {
		if s.canceled[k].Load() {
			continue
		}
		if s.intKey {
			r := s.states[qi].bounds
			if r.lo > r.hi {
				continue
			}
			for i, key := range b.Ints {
				if r.has(key) {
					if err := w.match(k, i, b); err != nil {
						return err
					}
				}
			}
			continue
		}
		q := &s.qs[qi]
		for i, key := range b.Keys {
			if q.matches(key) {
				if err := w.match(k, i, b); err != nil {
					return err
				}
			}
		}
	}
	if w.res.index {
		w.collect(b)
	}
	return nil
}

// match records row i of b as a match of the query at scanQ position k,
// decoding the row's tuple unless an earlier query on this batch did.
func (w *scanWorker) match(k, i int, b *heap.PageBatch) error {
	tu := &w.tuples[i]
	if tu.Len() == 0 { // schemas have at least one column
		var err error
		if *tu, err = storage.DecodeTuple(w.s.schema, b.Raw[i]); err != nil {
			return err
		}
	}
	w.res.matches = append(w.res.matches, qMatch{q: k, m: Match{RID: b.RID(i), Tuple: *tu}})
	return nil
}

// collect adds b's uncovered rows to the page's candidate entries.
func (w *scanWorker) collect(b *heap.PageBatch) {
	s, res := w.s, w.res
	if res.entries == nil {
		res.entries = make([]core.PageEntry, 0, b.Len())
	}
	for i, key := range b.Ints {
		if v := storage.Int64Value(key); s.coverage == nil || !s.coverage.Covers(v) {
			res.entries = append(res.entries, core.PageEntry{Key: v, RID: b.RID(i)})
		}
	}
	for i, v := range b.Keys {
		if s.coverage == nil || !s.coverage.Covers(v) {
			res.entries = append(res.entries, core.PageEntry{Key: v, RID: b.RID(i)})
		}
	}
}

// finish publishes phase-1 cancellations and faults into the outcome
// slots — a canceled query keeps its ctx error, a fault fails every live
// one, and either way their partial matches are discarded — and reports
// whether the scan aborted (fault, or whole batch canceled).
func (s *scanPass) finish(err error, outs []SharedOutcome) (aborted bool) {
	for k, qi := range s.scanQ {
		if s.canceled[k].Load() && s.states[qi].active {
			outs[qi].Err = s.states[qi].ctx.Err()
			outs[qi].Matches = nil
			s.states[qi].active = false
		}
	}
	if err != nil {
		failActive(err, outs, s.states, s.scanQ)
		return true
	}
	any := false
	for _, qi := range s.scanQ {
		any = any || s.states[qi].active
	}
	return !any
}

// mergeMatches folds one visited page's demuxed matches and read
// accounting into the outcomes.
func (s *scanPass) mergeMatches(res *pageResult, outs []SharedOutcome) {
	for _, qi := range s.scanQ {
		if s.states[qi].active {
			s.states[qi].seen.read(&outs[qi].Stats, res.page)
		}
	}
	for _, m := range res.matches {
		if qi := s.scanQ[m.q]; s.states[qi].active {
			outs[qi].Matches = append(outs[qi].Matches, m.m)
		}
	}
}
