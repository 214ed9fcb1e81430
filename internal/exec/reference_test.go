package exec

import (
	"sort"
	"testing"

	"repro/internal/heap"
	"repro/internal/storage"
)

// This file holds the oracle the table-scan pass is held to
// (TestParallelOracleRandomized): a test-only Algorithm 1 over plain Go
// maps, for one Index Buffer with ample space. There Algorithm 2 never
// displaces, so it reduces to "the IMax pages with the smallest
// C[p] > 0, ties by page id", and a batch's results, stats and post-scan
// counters follow from the heap rows, the coverage predicate and the set
// of buffered pages alone. The reference shares no code with the pass:
// it reads the rows once through heap.Table.Scan and never calls
// ExecuteShared, heap.Chunks or ApplyPage.

type refAlg1 struct {
	imax      int
	covered   func(k int64) bool
	keys      map[int64][]storage.RID // key → RIDs
	uncovered []int                   // uncovered tuples per page
	buffered  map[int]bool            // pages indexed by earlier batches
}

func newRefAlg1(t *testing.T, tb *heap.Table, imax int, covered func(int64) bool) *refAlg1 {
	r := &refAlg1{imax: imax, covered: covered, keys: map[int64][]storage.RID{},
		uncovered: make([]int, tb.NumPages()), buffered: map[int]bool{}}
	err := tb.Scan(func(rid storage.RID, tu storage.Tuple) error {
		k := tu.Value(0).Int64()
		r.keys[k] = append(r.keys[k], rid)
		if !covered(k) {
			r.uncovered[rid.Page]++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// counter is C[p]: 0 once p is buffered, else its uncovered tuples.
func (r *refAlg1) counter(p int) int {
	if r.buffered[p] {
		return 0
	}
	return r.uncovered[p]
}

// batch answers one batch as ExecuteShared must — each query's matching
// RIDs in RID order and its stats, Duration left zero — and then buffers
// the batch's page set I.
func (r *refAlg1) batch(qs []SharedQuery, workers int) ([][]storage.RID, []QueryStats) {
	c := make([]int, len(r.uncovered)) // scan-start counters
	var cands []int
	for p := range c {
		if c[p] = r.counter(p); c[p] > 0 {
			cands = append(cands, p)
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return c[cands[i]] < c[cands[j]] })
	sel := cands[:min(len(cands), r.imax)]

	rids := make([][]storage.RID, len(qs))
	stats := make([]QueryStats, len(qs))
	scanned := false
	for i, q := range qs {
		lo, hi, st := q.Lo.Int64(), q.Hi.Int64(), &stats[i]
		st.Key = q.Lo
		if hi < lo {
			st.EmptyRange = true
			continue // no access at all
		}
		st.PartialHit = r.covered(lo) && r.covered(hi) // coverage is one interval
		read := map[storage.PageID]bool{}              // pages fetched, each counted once
		for k := lo; k <= hi; k++ {
			for _, rid := range r.keys[k] {
				rids[i] = append(rids[i], rid)
				read[rid.Page] = true
				if !st.PartialHit && c[rid.Page] == 0 && !r.covered(k) {
					st.BufferMatches++
				}
			}
		}
		sortRIDs(rids[i])
		st.Matches = len(rids[i])
		if !st.PartialHit {
			for p, n := range c {
				if n == 0 {
					st.PagesSkipped++
				} else {
					read[storage.PageID(p)] = true
				}
			}
			if !scanned { // the first scanning query carries the batch's maintenance
				scanned = true
				// Workers are sized from the pages to read; none runs inline.
				st.PagesSelected, st.ScanWorkers = len(sel), max(1, min(workers, len(cands)))
				for _, p := range sel {
					st.EntriesAdded += c[p]
				}
			}
		}
		st.PagesRead = len(read)
	}
	for _, p := range sel {
		r.buffered[p] = scanned // I is indexed only when some query scanned
	}
	return rids, stats
}

func sortRIDs(r []storage.RID) { sort.Slice(r, func(i, j int) bool { return r[i].Less(r[j]) }) }
