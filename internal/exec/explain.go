package exec

import (
	"fmt"

	"repro/internal/storage"
)

// Plan describes the access path a query would take and its expected
// cost, without executing anything or mutating any state (no LRU-K
// advance, no page selection, no buffer growth) — an EXPLAIN.
type Plan struct {
	// Mechanism is one of "partial index hit", "indexing scan",
	// "full scan".
	Mechanism string
	// PartialHit reports whether the partial index serves the query.
	PartialHit bool
	// EstimatedPagesRead is the logical I/O the query would pay now:
	// posting pages for a hit, non-skippable pages plus buffered match
	// pages for an indexing scan, every page for a full scan.
	EstimatedPagesRead int
	// SkippablePages counts pages with counter zero that the scan would
	// skip.
	SkippablePages int
	// TablePages is the heap size for reference.
	TablePages int
}

// String renders the plan in one line.
func (p Plan) String() string {
	return fmt.Sprintf("%s: ~%d of %d pages read, %d skippable",
		p.Mechanism, p.EstimatedPagesRead, p.TablePages, p.SkippablePages)
}

// ExplainRange plans the query lo <= column <= hi (a point query is
// the range [k, k]).
func ExplainRange(a Access, lo, hi storage.Value) Plan {
	numPages := a.Table.NumPages()
	p := Plan{TablePages: numPages}
	if hi.Compare(lo) < 0 {
		p.Mechanism = "empty range"
		return p
	}
	if a.Index != nil && a.Index.CoversRange(lo, hi) {
		p.Mechanism = "partial index hit"
		p.PartialHit = true
		p.EstimatedPagesRead = countDistinctPages(a.Index.LookupRange(lo, hi))
		return p
	}
	if a.Buffer == nil {
		p.Mechanism = "full scan"
		p.EstimatedPagesRead = numPages
		return p
	}
	p.Mechanism = "indexing scan"
	scanPages := 0
	for pg := 0; pg < numPages; pg++ {
		if a.Buffer.Counter(storage.PageID(pg)) == 0 {
			p.SkippablePages++
		} else {
			scanPages++
		}
	}
	fetch := countDistinctPages(a.Buffer.LookupRange(lo, hi))
	if a.Index != nil {
		fetch += countDistinctPages(a.Index.ScanRange(lo, hi))
	}
	p.EstimatedPagesRead = scanPages + fetch
	return p
}

func countDistinctPages(rids []storage.RID) int {
	seen := map[storage.PageID]bool{}
	for _, r := range rids {
		seen[r.Page] = true
	}
	return len(seen)
}
