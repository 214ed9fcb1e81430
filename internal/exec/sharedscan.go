package exec

import (
	"context"
	"slices"
	"time"

	"repro/internal/flight"
	"repro/internal/index"
	"repro/internal/storage"
)

// This file implements scan sharing: one pass of the paper's Algorithm 1
// answering a whole batch of queries on the same table and column.
//
// A burst of partial-index misses — exactly the workload the Index
// Buffer exists to accelerate — would otherwise run one exclusive
// indexing scan per query. Cooperative scans are the standard cure
// (Graefe et al., "Concurrency Control for Adaptive Indexing", make the
// same move for database cracking): the batch scans the heap once,
// demultiplexes matching tuples to every attached query, and performs
// the buffer maintenance (page selection, ApplyPage) exactly once. The
// engine's admission layer decides which queries form a batch; this file
// only executes one.

// SharedQuery is one predicate attached to a shared scan: the closed
// range Lo <= column <= Hi (a point query has Lo == Hi). Ctx (nil means
// context.Background) cancels only this query: the scan drops the
// query's demux slot at the next page boundary and keeps serving the
// other attachees; the pass itself aborts early only once every
// attached query has been canceled.
type SharedQuery struct {
	Lo, Hi storage.Value
	Ctx    context.Context
}

// matches reports whether a tuple value satisfies the query's predicate.
func (q *SharedQuery) matches(v storage.Value) bool {
	return v.Between(q.Lo, q.Hi)
}

// SharedOutcome is one attached query's result: its matches, its own
// QueryStats, and its error (which may be the query's ctx error while
// the rest of the batch succeeded).
type SharedOutcome struct {
	Matches []Match
	Stats   QueryStats
	Err     error
}

// scanState is the per-query demux bookkeeping of one shared pass.
type scanState struct {
	ctx    context.Context
	seen   pageSet
	active bool // attached to the table scan; false once canceled/failed
}

// pageSet tracks the distinct heap pages one query has fetched, so that
// PagesRead counts each page once per query no matter how many execution
// stages (buffer materialization, table scan, skipped-page index
// recovery) touch it — a page fetched twice must not inflate the logical
// I/O the paper's runtime curves are shaped by. It is a bitset keyed by
// page id, allocated on the first read at the table's size, so a query
// that reads no page allocates nothing and one that reads any pays one
// allocation, whatever it reads.
type pageSet struct {
	pages int // table size at query start: the bitset's initial length
	bits  []uint64
}

// read charges page p to stats unless the query already read it.
func (s *pageSet) read(stats *QueryStats, p storage.PageID) {
	w := int(p / 64)
	if w >= len(s.bits) {
		s.bits = append(s.bits, make([]uint64, max(w+1, (s.pages+63)/64)-len(s.bits))...)
	}
	if bit := uint64(1) << (p % 64); s.bits[w]&bit == 0 {
		s.bits[w] |= bit
		stats.PagesRead++
	}
}

// ExecuteShared answers a batch of queries on the same table and column
// with at most one Algorithm-1 pass. Per query it re-dispatches on the
// state it finds — a predicate the partial index now covers is served
// from the index, an empty range is answered for free — so callers may
// attach queries planned before an index redefinition. Buffer
// maintenance runs exactly once for the batch; the scan-wide maintenance
// counters (PagesSelected, EntriesAdded) are attributed to the batch's
// first scanning query so that sums over per-query stats equal the work
// actually performed. Every outcome carries a Duration, error or not.
//
// The caller must hold the owning table's write lock whenever the batch
// can mutate the Index Buffer — the same contract as a private indexing
// scan. Range is the batch of size one.
func ExecuteShared(a Access, qs []SharedQuery) []SharedOutcome {
	start := time.Now()
	outs := make([]SharedOutcome, len(qs))
	defer func() {
		elapsed := time.Since(start)
		for i := range outs {
			outs[i].Stats.Duration = elapsed
		}
	}()

	states := make([]scanState, len(qs))
	var scanQ []int // indices of the queries that need the table scan
	for i := range qs {
		q := &qs[i]
		st := &states[i]
		st.ctx = q.Ctx
		if st.ctx == nil {
			st.ctx = context.Background()
		}
		outs[i].Stats.Key = q.Lo
		if q.Hi.Compare(q.Lo) < 0 {
			outs[i].Stats.EmptyRange = true
			continue // answered without any access
		}
		var snap index.Snapshot
		hit := false
		if a.Index != nil {
			snap = a.Index.Snapshot()
			hit = snap.CoversRange(q.Lo, q.Hi)
		}
		outs[i].Stats.PartialHit = hit
		if a.Space != nil {
			// Table II: every attached query advances the LRU-K histories
			// individually, exactly as if it had run alone.
			a.Space.OnQuery(a.Buffer, hit)
		}
		if hit {
			snap.NoteProbe()
			outs[i].Matches, outs[i].Stats, outs[i].Err = FetchHit(a, snap, q.Lo, q.Hi)
			continue
		}
		st.active = true
		scanQ = append(scanQ, i)
	}
	if len(scanQ) == 0 {
		return outs
	}
	numPages := a.Table.NumPages()
	for _, i := range scanQ {
		states[i].seen.pages = numPages
	}
	if a.Buffer == nil {
		// The no-buffer fallback (baseline engines with the Index Buffer
		// disabled, or a buffer dropped between planning and execution):
		// the same pass over every page with no page set I, so nothing is
		// skipped or indexed.
		for _, i := range scanQ {
			outs[i].Stats.FullScan = true
		}
		every := make([]storage.PageID, numPages)
		for p := range every {
			every[p] = storage.PageID(p)
		}
		scanTable(a, qs, outs, states, scanQ, numPages, every, nil)
	} else {
		sharedIndexingScan(a, qs, outs, states, scanQ, numPages)
	}
	return outs
}

// failActive ends the scan for every still-attached query with err —
// used for table-level faults (page read/decode, buffer insertion) that
// no attachee can recover from.
func failActive(err error, outs []SharedOutcome, states []scanState, scanQ []int) {
	for _, i := range scanQ {
		if states[i].active {
			outs[i].Err = err
			outs[i].Matches = nil
			states[i].active = false
		}
	}
}

// sharedIndexingScan is the paper's Algorithm 1 generalized to a
// predicate set. The page set I comes from Algorithm 2 (Space.Select),
// chosen once for the batch and reported after the Space lock is
// released; the buffer is pinned for the pass's duration so a
// concurrent scan on another table cannot displace the partitions the
// skip decisions depend on.
func sharedIndexingScan(a Access, qs []SharedQuery, outs []SharedOutcome, states []scanState, scanQ []int, numPages int) {
	release := a.Space.PinForScan(a.Buffer)
	defer release()

	var selected []storage.PageID
	if a.ReadOnly {
		// Quota-degraded pass: I stays empty, so the page walk below never
		// indexes and the buffer is never mutated — but the existing state
		// still answers lookups and C[p] == 0 skips. The pin is still
		// required: a displacement between the buffer lookup and a skip
		// decision would otherwise drop entries this pass has already
		// counted on.
		for _, i := range scanQ {
			outs[i].Stats.QuotaDegraded = true
		}
	} else {
		plan := a.Space.Select(a.Buffer, numPages) // I, D ← SelectPagesForBuffer()
		selected = plan.Pages
		if a.Span != nil {
			for _, d := range plan.Drops {
				a.Span(flight.SpanDisplace, d.Buffer, -1, d.Entries)
			}
			if plan.Pages != nil { // nil: no candidate page, nothing was decided
				a.Span(flight.SpanPageSelect, "", -1, len(plan.Pages))
			}
		}
	}

	// Index Buffer scan (lines 8–10), demultiplexed per query.
	for _, i := range scanQ {
		m, err := fetchRIDs(a, a.Buffer.LookupRange(qs[i].Lo, qs[i].Hi), &outs[i].Stats, &states[i].seen)
		if err != nil {
			outs[i].Err = err
			states[i].active = false
			continue
		}
		outs[i].Matches = m
		outs[i].Stats.BufferMatches = len(m)
	}

	// The skip view: one walk over the live counters (see
	// IndexBuffer.NonZeroPages for why taking it once is exact).
	scanTable(a, qs, outs, states, scanQ, numPages, a.Buffer.NonZeroPages(numPages), selected)
}

// scanTable is Algorithm 1's table scan (lines 11–17) for the scanning
// queries: read the pages of visit (ascending; every page but those with
// C[p] == 0), index the pages in I exactly once, demux matches to every
// attachee (see parallel.go for the two-phase pass that does it). A full
// scan visits every page with inI == nil. Afterwards it charges the
// skipped pages, recovers covered range matches on them, and fills in
// the per-query result stats.
func scanTable(a Access, qs []SharedQuery, outs []SharedOutcome, states []scanState, scanQ []int, numPages int, visit, inI []storage.PageID) {
	workers := a.scanWorkers(len(visit))
	outs[scanQ[0]].Stats.ScanWorkers = workers
	entriesAdded, aborted := runPass(a, qs, outs, states, scanQ, visit, inI, workers)

	// Every page not visited was skipped. Recover covered matches on
	// skipped pages: a range straddling the coverage predicate has
	// covered matches sitting unreachable on them (see Range). A point
	// miss has none — its key is uncovered, so the index holds no
	// postings for it.
	if skipped := numPages - len(visit); !aborted && skipped > 0 {
		for _, i := range scanQ {
			if !states[i].active {
				continue
			}
			outs[i].Stats.PagesSkipped += skipped
			if a.Index == nil {
				continue
			}
			var missing []storage.RID
			for _, rid := range a.Index.ScanRange(qs[i].Lo, qs[i].Hi) {
				if _, visited := slices.BinarySearch(visit, rid.Page); !visited && int(rid.Page) < numPages {
					missing = append(missing, rid)
				}
			}
			m, err := fetchRIDs(a, missing, &outs[i].Stats, &states[i].seen)
			if err != nil {
				outs[i].Err = err
				outs[i].Matches = nil
				states[i].active = false
				continue
			}
			outs[i].Matches = append(outs[i].Matches, m...)
		}
	}

	// Attribute the batch-wide maintenance work to the first scanning
	// query, so per-query stats sum to the work actually performed.
	leader := scanQ[0]
	outs[leader].Stats.PagesSelected = len(inI)
	outs[leader].Stats.EntriesAdded = entriesAdded

	for _, i := range scanQ {
		if states[i].active {
			outs[i].Stats.Matches = len(outs[i].Matches)
		}
	}
}
