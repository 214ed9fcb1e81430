package exec

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/storage"
)

// This file is the page loop of ExecuteShared's table scan — the walk
// that dominates every miss (the paper's §III cost model counts pages
// read, and Fig. 6's runtime is exactly that walk). Every table scan, the
// Algorithm-1 indexing scan and the no-buffer full scan alike, runs it in
// two phases:
//
// Phase 1 (read-only): the page range [0, numPages) is split into
// contiguous chunks (heap.Chunks) claimed off a shared cursor. With one
// worker the calling goroutine walks them itself; with n > 1 a pool of n
// goroutines does. Workers read pages, evaluate every attached query's
// predicate, and — for pages in the Algorithm-2 selection set I — collect
// the page's candidate Index Buffer entries. Nothing is mutated: workers
// share only the per-query cancellation flags and the per-page result
// slots (each page is written by exactly one worker).
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
// Skip-safety: workers read the scan-start counter snapshot, which is
// lock-free and identical across workers. The only C[p] transitions
// during a scan are the ones this scan's merge performs (the caller holds
// the table's write lock, and Space.PinForScan keeps displacement away),
// and phase 2 starts strictly after phase 1 has finished — so a page's
// skip decision never races its own indexing.
//
// Failure: a table-level fault or whole-batch cancellation in phase 1
// aborts before phase 2, leaving the Index Buffer exactly as it was at
// every worker count. Buffer contents are optional system state (Graefe
// et al., "Concurrency Control for Adaptive Indexing"), so dropping a
// failed scan's indexing work is a valid outcome, and there is never a
// partially indexed page to roll back: C[p] == 0 only when every
// uncovered tuple of p is buffered.

// chunksPerWorker over-partitions the page range so a worker that lands
// on cheap chunks (skipped or pool-resident pages) claims more work
// instead of idling behind a worker stuck on cold pages.
const chunksPerWorker = 4

// qMatch is one matching tuple tagged with the position (in scanQ) of
// the query it belongs to.
type qMatch struct {
	q int
	m Match
}

// pageResult is one page's phase-1 output, written by exactly one
// worker and read only after phase 1 has finished.
type pageResult struct {
	skipped bool // C[p] == 0: page not read
	matches []qMatch
	entries []core.PageEntry // candidate entries when the page is in I
}

// scanPass is the shared state of one table-scan pass.
type scanPass struct {
	a      Access
	schema *storage.Schema
	qs     []SharedQuery
	states []scanState
	scanQ  []int
	inI    map[storage.PageID]bool // nil for a full scan
	snap   *core.CounterSnap       // scan-start counters; nil for a full scan

	results  []pageResult
	canceled []atomic.Bool // by position in scanQ
	chunks   []heap.PageRange
	next     atomic.Int64 // chunk cursor
	abort    atomic.Bool

	errMu sync.Mutex
	err   error // first table-level fault
}

// runPass runs both phases over pages [0, numPages) with `workers`
// phase-1 workers. inI is the Algorithm-2 page set and snap the
// scan-start counters; a full scan passes nil for both, so it skips
// nothing and applies nothing. Returns the pages skipped, the entries
// added, and whether the scan aborted.
func runPass(a Access, qs []SharedQuery, outs []SharedOutcome, states []scanState, scanQ []int, inI map[storage.PageID]bool, snap *core.CounterSnap, numPages, workers int) (skipped map[storage.PageID]bool, entriesAdded int, aborted bool) {
	s := &scanPass{
		a:        a,
		schema:   a.Table.Schema(),
		qs:       qs,
		states:   states,
		scanQ:    scanQ,
		inI:      inI,
		snap:     snap,
		results:  make([]pageResult, numPages),
		canceled: make([]atomic.Bool, len(scanQ)),
		chunks:   heap.Chunks(numPages, workers*chunksPerWorker),
	}
	if s.finish(s.run(workers), outs) {
		return nil, 0, true // aborted in phase 1: the buffer is untouched
	}
	skipped = make(map[storage.PageID]bool)
	for p := range s.results {
		pg := storage.PageID(p)
		res := &s.results[p]
		if res.skipped {
			skipped[pg] = true
		}
		s.mergeMatches(pg, res, outs)
		if !res.skipped && inI[pg] {
			if err := a.Buffer.ApplyPage(pg, res.entries); err != nil {
				failActive(err, outs, states, scanQ)
				return skipped, entriesAdded, true
			}
			entriesAdded += len(res.entries)
			if a.Span != nil {
				a.Span("page-complete", int(pg), len(res.entries))
			}
		}
	}
	return skipped, entriesAdded, false
}

// run executes phase 1 and returns the first table-level fault, if any.
// One worker runs inline on the calling goroutine; more fan out to a
// pool, and run waits for every goroutine to exit — none outlives the
// scan.
func (s *scanPass) run(workers int) error {
	if workers == 1 {
		s.worker()
	} else {
		if s.a.Span != nil {
			s.a.Span("scan-parallel", -1, workers)
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

// worker claims chunks until the cursor runs dry or the scan aborts.
func (s *scanPass) worker() {
	for {
		if s.abort.Load() {
			return
		}
		ci := int(s.next.Add(1)) - 1
		if ci >= len(s.chunks) {
			return
		}
		r := s.chunks[ci]
		for p := r.Lo; p < r.Hi; p++ {
			if s.abort.Load() {
				return
			}
			if !s.pollCancel() {
				s.abort.Store(true) // every attached query canceled
				return
			}
			if err := s.scanOne(p); err != nil {
				s.fail(err)
				return
			}
		}
	}
}

// scanOne reads page pg and records its result slot: the skip check
// against C[p], predicate evaluation for each live attached query, and
// candidate-entry collection for pages in I. It mutates nothing shared.
func (s *scanPass) scanOne(pg storage.PageID) error {
	res := &s.results[pg]
	if s.inI != nil && s.snap.At(pg) == 0 {
		res.skipped = true
		return nil
	}
	indexThis := s.inI != nil && s.inI[pg]
	return s.a.Table.ScanPage(pg, s.a.Column, func(rid storage.RID, v storage.Value, raw []byte) error {
		var tu storage.Tuple
		for k, qi := range s.scanQ {
			if !s.canceled[k].Load() && s.qs[qi].matches(v) {
				if err := materialize(s.schema, raw, &tu); err != nil {
					return err
				}
				res.matches = append(res.matches, qMatch{q: k, m: Match{RID: rid, Tuple: tu}})
			}
		}
		if indexThis && (s.a.Index == nil || !s.a.Index.Covers(v)) {
			res.entries = append(res.entries, core.PageEntry{Key: v, RID: rid})
		}
		return nil
	})
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

// mergeMatches folds one completed page's demuxed matches and read/skip
// accounting into the outcomes.
func (s *scanPass) mergeMatches(pg storage.PageID, res *pageResult, outs []SharedOutcome) {
	if res.skipped {
		for _, qi := range s.scanQ {
			if s.states[qi].active {
				outs[qi].Stats.PagesSkipped++
			}
		}
		return
	}
	for _, qi := range s.scanQ {
		if s.states[qi].active {
			s.states[qi].seen.read(&outs[qi].Stats, pg)
		}
	}
	for _, m := range res.matches {
		if qi := s.scanQ[m.q]; s.states[qi].active {
			outs[qi].Matches = append(outs[qi].Matches, m.m)
		}
	}
}
