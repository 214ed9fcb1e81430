// Package exec implements query execution over a heap table with a
// partial secondary index and an optional Index Buffer. Its centerpiece
// is the indexing table scan of the paper's Algorithm 1: a scan that
// consults the Index Buffer, skips fully indexed pages (counter C[p] ==
// 0), and opportunistically indexes the pages selected by Algorithm 2.
//
// Every query runs through ExecuteShared, which executes Algorithm 1
// once for a whole batch of closed-range predicates (a point query is
// the range [k, k]): Range is a batch of size one, and the engine's
// admission layer coalesces concurrent buffer misses on the same
// table/column into larger batches.
//
// Execution is context-aware: the page loop shared by the indexing scan
// and the full scan checks for cancellation between page reads, so a
// long scan over a cold table can be abandoned mid-flight. The caller
// (the engine) provides the isolation: an indexing scan must run with the
// table's write lock held, everything else is safe under a read lock.
package exec

import (
	"context"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/index"
	"repro/internal/storage"
)

// Match is one result tuple with its physical address.
type Match struct {
	RID   storage.RID
	Tuple storage.Tuple
}

// QueryStats describes the cost and effect of one query. PagesRead is the
// engine's logical I/O — the quantity the paper's runtime curves are
// shaped by; pages served from the buffer pool still count, since the
// paper's 220 MB table does not fit its buffer either. Each distinct page
// counts once per query, regardless of how many execution stages touch
// it. When several queries share one scan, the scan-wide maintenance
// counters (PagesSelected, EntriesAdded) appear on the batch's first
// scanning query only.
type QueryStats struct {
	Key        storage.Value
	PartialHit bool // answered by the partial index
	FullScan   bool // no buffer available: plain full table scan
	EmptyRange bool // hi < lo: answered without any access

	// QuotaDegraded marks a miss executed read-only because the owning
	// tenant's Index-Buffer quota was exhausted: existing buffer state
	// still served lookups and page skips, but no pages were selected or
	// indexed and no other tenant's partitions were displaced.
	QuotaDegraded bool

	Matches       int // result tuples
	BufferMatches int // results obtained from the Index Buffer

	PagesRead     int // heap pages fetched (scan + RID materialization)
	PagesSkipped  int // pages skipped because C[p] == 0
	PagesSelected int // pages newly indexed this scan (|I|)
	EntriesAdded  int // Index Buffer entries inserted this scan

	// ScanWorkers is the number of phase-1 workers the table scan ran
	// with: 1 when the calling goroutine read every page itself (always
	// so when every page was skipped), >1 when the scan fanned out to a
	// pool. Like the maintenance counters, a shared scan attributes it to
	// the batch's first scanning query. Zero when no table scan ran.
	ScanWorkers int

	Duration time.Duration
}

// Heap is the table access the executor needs: page-at-a-time scans and
// RID materialization. *heap.Table implements it; tests substitute
// fault-injecting wrappers.
//
// ReadRows is the one row read (heap.Table.ReadRows): it hands fn the
// tuple at each of rids, in order, after reading them all, and on an
// error has handed over exactly the rows before the failing one.
//
// ScanPage is the page kernel (heap.Table.ScanPage): it fills a batch
// with each live tuple's slot, its value of column col (an int64 vector
// for an INTEGER column) and its encoded bytes, and calls fn once per
// page, while the page is pinned. The executor evaluates every attached
// predicate over the key vector and decodes a whole tuple
// (storage.DecodeTuple with Schema) only when some query matches it.
type Heap interface {
	NumPages() int
	Schema() *storage.Schema
	ReadRows(rids []storage.RID, fn func(k int, tu storage.Tuple)) error
	ScanPage(p storage.PageID, col int, b *heap.PageBatch, fn func(*heap.PageBatch) error) error
}

var _ Heap = (*heap.Table)(nil)

// Access bundles the storage objects a query needs. Index and
// Buffer may be nil (no partial index / no Index Buffer on the column);
// Space must be non-nil whenever Buffer is.
type Access struct {
	Table  Heap
	Column int
	Index  *index.Partial
	Buffer *core.IndexBuffer
	Space  *core.Space

	// Parallelism bounds the phase-1 workers of the table scan: 1 (or a
	// pass with at most one page to read) reads every page on the calling
	// goroutine, n > 1 fans chunks of the pages to read out to at most n
	// goroutines, and 0 defaults to GOMAXPROCS. Every setting runs the
	// same two-phase pass, so results, stats, and buffer maintenance are
	// bit-identical across settings; see parallel.go.
	Parallelism int

	// ReadOnly degrades a miss to an unindexed scan: the Index Buffer is
	// consulted (lookups, C[p] == 0 page skips) but never mutated — no
	// page selection, no ApplyPage, no displacement. The engine
	// sets it for misses of tenants whose quota is exhausted; because the
	// pass mutates nothing it may run under the table's read lock. The
	// buffer is still pinned against displacement for the pass's
	// duration, since the skip decisions and collected buffer matches
	// assume its partitions stay put.
	ReadOnly bool

	// Span, when non-nil, receives the pass's span events (flight.Span*
	// kinds): the Plan of Algorithm 2 — SpanDisplace per victim, whose
	// buffer is the target, then SpanPageSelect with n = |I| — and the
	// scan's SpanScanParallel and SpanPageComplete. An empty target is
	// the accessed column's own buffer. The engine sets it only while
	// some span consumer is on, so the nil check is the disabled cost.
	Span func(kind, target string, page, n int)
}

// scanWorkers resolves the effective worker count for a pass that reads
// `pages` pages: Parallelism when positive (GOMAXPROCS when zero), never
// more than the pages to read, and 1 when there is none.
func (a Access) scanWorkers(pages int) int {
	w := a.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > pages {
		w = pages
	}
	if w < 1 {
		w = 1
	}
	return w
}

// NeedsIndexingScanRange reports whether the query lo <= column <= hi
// would run an indexing scan — the only execution path that mutates the
// Index Buffer and therefore needs exclusive access to the table.
func (a Access) NeedsIndexingScanRange(lo, hi storage.Value) bool {
	if hi.Compare(lo) < 0 {
		return false
	}
	return a.Buffer != nil && !(a.Index != nil && a.Index.CoversRange(lo, hi))
}

// Range answers the query lo <= column <= hi; a point query is the
// range [k, k]. The partial index answers it only when its predicate
// covers the whole interval; otherwise it runs an indexing table scan
// (Algorithm 1 with a range predicate) or, without a buffer, a full
// scan. Beyond the page scan, two sources feed the result: the Index
// Buffer (uncovered tuples of fully indexed pages) and, for a range
// straddling the coverage predicate, the index postings sitting on
// skipped pages — the paper's §II observation "tuples referenced in the
// index will not be part of the result set" holds only for a point
// miss. Range is a shared scan with a single attached query; ctx is
// honored between page reads of the scanning paths.
func Range(ctx context.Context, a Access, lo, hi storage.Value) ([]Match, QueryStats, error) {
	o := ExecuteShared(a, []SharedQuery{{Lo: lo, Hi: hi, Ctx: ctx}})[0]
	return o.Matches, o.Stats, o.Err
}

// FetchHit serves a partial-index hit on lo <= column <= hi from one
// index snapshot whose coverage the caller has checked contains the
// range: it fetches the posting list's tuples in RID order, counting
// each distinct page once in PagesRead. It is the one hit path —
// ExecuteShared calls it under the table lock and the engine's
// lock-free read path against a published snapshot, so the two agree by
// construction. It counts no index probe (the caller calls
// Snapshot.NoteProbe once the result is used) and leaves Duration to
// the caller; only a.Table is consulted.
func FetchHit(a Access, snap index.Snapshot, lo, hi storage.Value) ([]Match, QueryStats, error) {
	stats := QueryStats{Key: lo, PartialHit: true}
	m, err := fetchRIDs(a, snap.LookupRange(lo, hi), &stats, nil)
	if err != nil {
		return nil, stats, err
	}
	stats.Matches = len(m)
	return m, stats, nil
}

// fetchRIDs materializes tuples for a posting list in one Heap.ReadRows
// call. It sorts rids into RID order in place, so the caller must own
// the slice (every caller passes one a range lookup just built); a list
// already in order is left as it is. Pages are charged to stats through
// seen, so a page the query already fetched in another stage is not
// double-counted. A nil seen means this fetch is the query's only stage
// (a hit): the list is sorted, so each distinct page is charged where it
// first appears, and no set is built. On an error, the pages up to the
// failing row's are charged.
func fetchRIDs(a Access, rids []storage.RID, stats *QueryStats, seen *pageSet) ([]Match, error) {
	if len(rids) == 0 {
		return nil, nil
	}
	if !slices.IsSortedFunc(rids, storage.RID.Compare) {
		slices.SortFunc(rids, storage.RID.Compare)
	}

	out := make([]Match, 0, len(rids))
	err := a.Table.ReadRows(rids, func(k int, tu storage.Tuple) {
		out = append(out, Match{RID: rids[k], Tuple: tu})
	})
	read := rids[:len(out)]
	if err != nil {
		read = rids[:len(out)+1]
	}
	for k, rid := range read {
		if seen != nil {
			seen.read(stats, rid.Page)
		} else if k == 0 || rid.Page != rids[k-1].Page {
			stats.PagesRead++
		}
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}
