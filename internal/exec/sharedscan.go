package exec

import (
	"context"
	"time"

	"repro/internal/core"
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
// I/O the paper's runtime curves are shaped by.
type pageSet map[storage.PageID]bool

// read charges page p to stats unless the query already read it.
func (s pageSet) read(stats *QueryStats, p storage.PageID) {
	if !s[p] {
		s[p] = true
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
		st.seen = pageSet{}
		outs[i].Stats.Key = q.Lo
		if q.Hi.Compare(q.Lo) < 0 {
			continue // empty range: answered without any access
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
	if a.Buffer == nil {
		// The no-buffer fallback (baseline engines with the Index Buffer
		// disabled, or a buffer dropped between planning and execution):
		// the same pass with no page set I, so nothing is skipped or
		// indexed.
		for _, i := range scanQ {
			outs[i].Stats.FullScan = true
		}
		scanTable(a, qs, outs, states, scanQ, nil, nil)
	} else {
		sharedIndexingScan(a, qs, outs, states, scanQ)
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
// predicate set. The page set I comes from Algorithm 2
// (Space.SelectPagesForBuffer), chosen once for the batch; the buffer is
// pinned for the pass's duration so a concurrent scan on another table
// cannot displace the partitions the skip decisions depend on.
func sharedIndexingScan(a Access, qs []SharedQuery, outs []SharedOutcome, states []scanState, scanQ []int) {
	release := a.Space.PinForScan(a.Buffer)
	defer release()
	// The pass's C[p] == 0 skip decisions read the buffer's published
	// counter snapshot instead of taking the buffer lock per page. The
	// snapshot is taken once at scan start and stays valid for every
	// page: the only mutator running (we hold the table's write lock and
	// the buffer is pinned against displacement) is this scan itself,
	// and its ApplyPage merge starts only after every skip decision was
	// taken. The epoch pin keeps reclamation — triggered by those
	// ApplyPage publications — from nilling the scan-start snapshot
	// mid-pass.
	unpinEpoch := a.Space.PinEpoch()
	defer unpinEpoch()

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
		selected = a.Space.SelectPagesForBufferObserved(a.Buffer, a.Table.NumPages(), a.SpaceObs) // I ← SelectPagesForBuffer()
	}
	inI := make(map[storage.PageID]bool, len(selected))
	for _, p := range selected {
		inI[p] = true
	}

	// Index Buffer scan (lines 8–10), demultiplexed per query.
	for _, i := range scanQ {
		m, err := fetchRIDs(a, a.Buffer.LookupRange(qs[i].Lo, qs[i].Hi), &outs[i].Stats, states[i].seen)
		if err != nil {
			outs[i].Err = err
			states[i].active = false
			continue
		}
		outs[i].Matches = m
		outs[i].Stats.BufferMatches = len(m)
	}

	scanTable(a, qs, outs, states, scanQ, inI, a.Buffer.CounterSnapshot())
}

// scanTable is Algorithm 1's table scan (lines 11–17) for the scanning
// queries: skip pages with C[p] == 0, index the pages in I exactly once,
// demux matches to every attachee (see parallel.go for the two-phase
// pass that does it). inI == nil is the plain full scan. Afterwards it
// recovers covered range matches on skipped pages and fills in the
// per-query result stats.
func scanTable(a Access, qs []SharedQuery, outs []SharedOutcome, states []scanState, scanQ []int, inI map[storage.PageID]bool, snap *core.CounterSnap) {
	numPages := a.Table.NumPages()
	workers := a.scanWorkers(numPages)
	outs[scanQ[0]].Stats.ScanWorkers = workers
	skipped, entriesAdded, aborted := runPass(a, qs, outs, states, scanQ, inI, snap, numPages, workers)

	// Recover covered matches on skipped pages: a range straddling the
	// coverage predicate has covered matches sitting unreachable on
	// skipped pages (see Range). A point miss has none — its key is
	// uncovered, so the index holds no postings for it.
	if !aborted && a.Index != nil && len(skipped) > 0 {
		for _, i := range scanQ {
			if !states[i].active {
				continue
			}
			var missing []storage.RID
			for _, rid := range a.Index.ScanRange(qs[i].Lo, qs[i].Hi) {
				if skipped[rid.Page] {
					missing = append(missing, rid)
				}
			}
			m, err := fetchRIDs(a, missing, &outs[i].Stats, states[i].seen)
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
