// Package exec implements query execution over a heap table with a
// partial secondary index and an optional Index Buffer. Its centerpiece
// is the indexing table scan of the paper's Algorithm 1: a scan that
// consults the Index Buffer, skips fully indexed pages (counter C[p] ==
// 0), and opportunistically indexes the pages selected by Algorithm 2.
//
// Every query runs through ExecuteShared, which executes Algorithm 1
// once for a whole batch of predicates: Equal and Range are batches of
// size one, and the engine's admission layer coalesces concurrent
// buffer misses on the same table/column into larger batches.
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
	"sort"
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
	// with: 1 when the calling goroutine read every page itself, >1 when
	// the scan fanned out to a pool. Like the maintenance counters, a
	// shared scan attributes it to the batch's first scanning query. Zero
	// when no table scan ran.
	ScanWorkers int

	Duration time.Duration
}

// Heap is the table access the executor needs: page-at-a-time scans and
// RID materialization. *heap.Table implements it; tests substitute
// fault-injecting wrappers.
//
// ScanPage is the key-first scan kernel (heap.Table.ScanPage): it hands
// over each live tuple's value of column col plus its encoded bytes, and
// the executor decodes the whole tuple (storage.DecodeTuple with Schema)
// only when some attached query matches the key.
type Heap interface {
	NumPages() int
	Schema() *storage.Schema
	Get(rid storage.RID) (storage.Tuple, error)
	ScanPage(p storage.PageID, col int, fn func(rid storage.RID, key storage.Value, raw []byte) error) error
}

var _ Heap = (*heap.Table)(nil)

// Access bundles the storage objects a point query needs. Index and
// Buffer may be nil (no partial index / no Index Buffer on the column);
// Space must be non-nil whenever Buffer is.
type Access struct {
	Table  Heap
	Column int
	Index  *index.Partial
	Buffer *core.IndexBuffer
	Space  *core.Space

	// Parallelism bounds the phase-1 workers of the table scan: 1 (or a
	// single-page table) reads every page on the calling goroutine, n > 1
	// fans page-range chunks out to at most n goroutines, and 0 defaults
	// to GOMAXPROCS. Every setting runs the same two-phase pass, so
	// results, stats, and buffer maintenance are bit-identical across
	// settings; see parallel.go.
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

	// Span, when non-nil, receives span events from the indexing scan —
	// currently "scan-parallel" (the scan fanned out, n = workers) and
	// "page-complete" (page fully buffered, the C[p]→0 transition) with
	// the page id and the entries added for it. The engine wires it to
	// the tracer's span ring and the adaptation-timeline recorder only
	// while at least one of them is enabled, so the nil check is the
	// entire disabled-path cost.
	Span func(kind string, page, n int)

	// SpaceObs, when non-nil, is threaded through Algorithm-2 page
	// selection (Space.SelectPagesForBufferObserved) so the selection's
	// management events — displace, page-select — are attributed to the
	// statement that triggered them, in addition to the Space-wide
	// observer. The engine wires it to the statement's flight record.
	SpaceObs core.Observer
}

// scanWorkers resolves the effective worker count for a scan over
// numPages pages: Parallelism when positive (GOMAXPROCS when zero),
// never more than the page count.
func (a Access) scanWorkers(numPages int) int {
	w := a.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > numPages {
		w = numPages
	}
	if w < 1 {
		w = 1
	}
	return w
}

// NeedsIndexingScan reports whether the equality query column = key would
// run an indexing scan — the only execution path that mutates the Index
// Buffer and therefore needs exclusive access to the table.
func (a Access) NeedsIndexingScan(key storage.Value) bool {
	return a.Buffer != nil && !(a.Index != nil && a.Index.Covers(key))
}

// NeedsIndexingScanRange is NeedsIndexingScan for lo <= column <= hi.
func (a Access) NeedsIndexingScanRange(lo, hi storage.Value) bool {
	if hi.Compare(lo) < 0 {
		return false
	}
	return a.Buffer != nil && !(a.Index != nil && a.Index.CoversRange(lo, hi))
}

// Equal answers the equality query column = key, maintaining the Index
// Buffer along the way: partial-index hit → index scan; miss with a
// buffer → Algorithm 1; miss without → full scan. It is a shared scan
// with a single attached query; ctx is honored between page reads of the
// scanning paths.
func Equal(ctx context.Context, a Access, key storage.Value) ([]Match, QueryStats, error) {
	o := ExecuteShared(a, []SharedQuery{{Lo: key, Hi: key, Equality: true, Ctx: ctx}})[0]
	return o.Matches, o.Stats, o.Err
}

// FetchHit materializes a partial-index hit from its posting list,
// reproducing the hit path of ExecuteShared bit for bit: RIDs are
// fetched in sorted order, PagesRead counts each distinct page once,
// and the stats carry Key/PartialHit/Matches. rids may alias immutable
// index state — it is copied before sorting. The engine's epoch-based
// read path resolves a probe against an index snapshot and calls this
// to materialize it without entering the shared-scan machinery; only
// a.Table and a.Column are consulted, so a read-path Access with nil
// Index/Buffer/Space is fine. Duration is left to the caller.
func FetchHit(a Access, key storage.Value, rids []storage.RID) ([]Match, QueryStats, error) {
	stats := QueryStats{Key: key, PartialHit: true}
	m, err := fetchRIDs(a, rids, &stats, pageSet{})
	if err != nil {
		return nil, stats, err
	}
	stats.Matches = len(m)
	return m, stats, nil
}

// materialize decodes a scanned tuple's bytes into *tu unless an earlier
// match on the same tuple already did: a scan decodes each tuple at most
// once, and only when some attached query matches its key.
func materialize(schema *storage.Schema, raw []byte, tu *storage.Tuple) error {
	if tu.Len() > 0 { // schemas have at least one column
		return nil
	}
	var err error
	*tu, err = storage.DecodeTuple(schema, raw)
	return err
}

// fetchRIDs materializes tuples for a posting list, page by page. Pages
// are charged to stats through seen, so a page the query already fetched
// in another stage is not double-counted.
func fetchRIDs(a Access, rids []storage.RID, stats *QueryStats, seen pageSet) ([]Match, error) {
	if len(rids) == 0 {
		return nil, nil
	}
	sorted := append([]storage.RID(nil), rids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })

	var out []Match
	for _, rid := range sorted {
		seen.read(stats, rid.Page)
		tu, err := a.Table.Get(rid)
		if err != nil {
			return nil, err
		}
		out = append(out, Match{RID: rid, Tuple: tu})
	}
	return out, nil
}
