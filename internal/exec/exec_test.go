package exec

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/index"
	"repro/internal/storage"
)

func iv(v int64) storage.Value { return storage.Int64Value(v) }

// buildTable creates a heap with rows tuples (key = i % 10, padded so a
// few tuples fit per page).
func buildTable(t *testing.T, rows int) *heap.Table {
	t.Helper()
	tb, _ := buildTablePool(t, rows)
	return tb
}

// buildTablePool is buildTable also returning the table's pool, for
// tests that damage page images in place.
func buildTablePool(t *testing.T, rows int) (*heap.Table, *buffer.Pool) {
	t.Helper()
	keys := make([]int64, rows)
	for i := range keys {
		keys[i] = int64(i % 10)
	}
	return buildTableKeys(t, keys)
}

// buildTableKeys builds buildTable's padded layout with one tuple per
// given key, in order.
func buildTableKeys(t testing.TB, keys []int64) (*heap.Table, *buffer.Pool) {
	t.Helper()
	return buildTableFrames(t, keys, 64)
}

// buildTableFrames is buildTableKeys over a pool of the given frames.
func buildTableFrames(t testing.TB, keys []int64, frames int) (*heap.Table, *buffer.Pool) {
	t.Helper()
	d := buffer.NewSimDisk()
	pool, err := buffer.NewPool(d, frames)
	if err != nil {
		t.Fatal(err)
	}
	schema := storage.MustSchema(
		storage.Column{Name: "k", Kind: storage.KindInt64},
		storage.Column{Name: "pad", Kind: storage.KindString},
	)
	tb := heap.NewTable(schema, pool)
	pad := strings.Repeat("p", 700) // ~11 tuples per page
	for _, k := range keys {
		tu := storage.NewTuple(iv(k), storage.StringValue(pad))
		if _, err := tb.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	return tb, pool
}

// TestEqualNoIndexNoBuffer and TestEqualIndexOnlyNoBuffer run point
// queries, the range [k, k], without an Index Buffer.
func TestEqualNoIndexNoBuffer(t *testing.T) {
	tb := buildTable(t, 200)
	got, stats, err := Range(context.Background(), Access{Table: tb, Column: 0}, iv(3), iv(3))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.FullScan || stats.PartialHit {
		t.Errorf("stats = %+v", stats)
	}
	if stats.PagesRead != tb.NumPages() {
		t.Errorf("read %d pages, want all %d", stats.PagesRead, tb.NumPages())
	}
	if len(got) != 20 {
		t.Errorf("matches = %d, want 20", len(got))
	}
	if stats.Matches != 20 {
		t.Errorf("stats.Matches = %d", stats.Matches)
	}
}

func TestEqualIndexOnlyNoBuffer(t *testing.T) {
	tb := buildTable(t, 200)
	ix := index.NewPartial("k", 0, index.IntRange(0, 4))
	_ = tb.Scan(func(rid storage.RID, tu storage.Tuple) error {
		ix.Add(tu.Value(0), rid)
		return nil
	})
	a := Access{Table: tb, Column: 0, Index: ix}

	// Covered key: index scan fetches only match pages.
	got, stats, err := Range(context.Background(), a, iv(2), iv(2))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.PartialHit || len(got) != 20 {
		t.Errorf("hit=%v matches=%d", stats.PartialHit, len(got))
	}
	if stats.PagesRead > tb.NumPages() {
		t.Errorf("read %d pages", stats.PagesRead)
	}

	// Uncovered key: full scan.
	_, stats, err = Range(context.Background(), a, iv(7), iv(7))
	if err != nil {
		t.Fatal(err)
	}
	if stats.PartialHit || !stats.FullScan || stats.PagesRead != tb.NumPages() {
		t.Errorf("uncovered stats = %+v", stats)
	}
}

func TestFetchRIDsCountsDistinctPages(t *testing.T) {
	tb := buildTable(t, 100)
	// All tuples with key 5: spread over pages; count distinct pages.
	var rids []storage.RID
	pages := map[storage.PageID]bool{}
	_ = tb.Scan(func(rid storage.RID, tu storage.Tuple) error {
		if tu.Value(0).Int64() == 5 {
			rids = append(rids, rid)
			pages[rid.Page] = true
		}
		return nil
	})
	// Reversed, so the fetch has to sort. A nil set is the single-stage
	// (hit) mode; a set also dedups against other stages.
	for i, seen := range []*pageSet{nil, {}, {pages: tb.NumPages()}} {
		rids := slices.Clone(rids)
		slices.Reverse(rids)
		var stats QueryStats
		got, err := fetchRIDs(Access{Table: tb, Column: 0}, rids, &stats, seen)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(rids) {
			t.Errorf("set %d: fetched %d, want %d", i, len(got), len(rids))
		}
		if stats.PagesRead != len(pages) {
			t.Errorf("set %d: PagesRead = %d, want %d distinct pages", i, stats.PagesRead, len(pages))
		}
		if seen == nil {
			continue
		}
		if _, err := fetchRIDs(Access{Table: tb, Column: 0}, rids, &stats, seen); err != nil || stats.PagesRead != len(pages) {
			t.Errorf("set %d: a second stage over the same pages: PagesRead = %d, err %v", i, stats.PagesRead, err)
		}
	}
	// A multi-key posting list as a range lookup concatenates it: each
	// key's postings in RID order, the keys' runs interleaved on pages.
	// The fetch sorts the caller's slice in place and returns RID order.
	var multi []storage.RID
	keyOf := map[storage.RID]int64{}
	for _, k := range []int64{7, 5} {
		_ = tb.Scan(func(rid storage.RID, tu storage.Tuple) error {
			if tu.Value(0).Int64() == k {
				multi = append(multi, rid)
				keyOf[rid] = k
			}
			return nil
		})
	}
	if slices.IsSortedFunc(multi, storage.RID.Compare) {
		t.Fatal("test premise: the two-key posting list is already in RID order")
	}
	var stats QueryStats
	got, err := fetchRIDs(Access{Table: tb, Column: 0}, multi, &stats, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keyOf) || !slices.IsSortedFunc(multi, storage.RID.Compare) {
		t.Fatalf("fetched %d of %d; caller's slice sorted in place: %v", len(got), len(keyOf), slices.IsSortedFunc(multi, storage.RID.Compare))
	}
	multiPages := map[storage.PageID]bool{}
	for i, m := range got {
		multiPages[m.RID.Page] = true
		if m.RID != multi[i] || m.Tuple.Value(0).Int64() != keyOf[m.RID] {
			t.Errorf("match %d = %v key %d, want %v key %d", i, m.RID, m.Tuple.Value(0).Int64(), multi[i], keyOf[multi[i]])
		}
	}
	if stats.PagesRead != len(multiPages) {
		t.Errorf("multi-key PagesRead = %d, want %d distinct pages", stats.PagesRead, len(multiPages))
	}

	// Empty posting: zero cost.
	var empty QueryStats
	if out, err := fetchRIDs(Access{Table: tb}, nil, &empty, &pageSet{}); err != nil || out != nil || empty.PagesRead != 0 {
		t.Error("empty fetch should be free")
	}
}

func TestIndexingScanSecondQuerySkips(t *testing.T) {
	tb := buildTable(t, 300)
	ix := index.NewPartial("k", 0, index.IntRange(0, 4))
	uncovered := make([]int, tb.NumPages())
	_ = tb.Scan(func(rid storage.RID, tu storage.Tuple) error {
		if !ix.Add(tu.Value(0), rid) {
			uncovered[rid.Page]++
		}
		return nil
	})
	space := core.NewSpace(core.Config{IMax: 10000, P: 100})
	buf, err := space.CreateBuffer("t.k", uncovered)
	if err != nil {
		t.Fatal(err)
	}
	a := Access{Table: tb, Column: 0, Index: ix, Buffer: buf, Space: space}

	_, s1, err := Range(context.Background(), a, iv(8), iv(8))
	if err != nil {
		t.Fatal(err)
	}
	if s1.PagesSelected != tb.NumPages() || s1.EntriesAdded == 0 {
		t.Errorf("first scan: selected=%d entries=%d", s1.PagesSelected, s1.EntriesAdded)
	}
	got, s2, err := Range(context.Background(), a, iv(9), iv(9))
	if err != nil {
		t.Fatal(err)
	}
	if s2.PagesSkipped != tb.NumPages() {
		t.Errorf("second scan skipped %d of %d", s2.PagesSkipped, tb.NumPages())
	}
	if len(got) != 30 {
		t.Errorf("matches = %d, want 30", len(got))
	}
	if s2.BufferMatches != 30 {
		t.Errorf("buffer matches = %d", s2.BufferMatches)
	}
	// Duration is populated.
	if s2.Duration <= 0 {
		t.Error("duration not recorded")
	}
}

// TestExplainEqual plans point queries: the range [k, k].
func TestExplainEqual(t *testing.T) {
	tb := buildTable(t, 300)
	ix := index.NewPartial("k", 0, index.IntRange(0, 4))
	uncovered := make([]int, tb.NumPages())
	_ = tb.Scan(func(rid storage.RID, tu storage.Tuple) error {
		if !ix.Add(tu.Value(0), rid) {
			uncovered[rid.Page]++
		}
		return nil
	})
	space := core.NewSpace(core.Config{IMax: 10000, P: 100})
	buf, err := space.CreateBuffer("t.k", uncovered)
	if err != nil {
		t.Fatal(err)
	}
	a := Access{Table: tb, Column: 0, Index: ix, Buffer: buf, Space: space}

	// Covered key: hit plan, no mutation.
	plan := ExplainRange(a, iv(2), iv(2))
	if !plan.PartialHit || plan.Mechanism != "partial index hit" {
		t.Errorf("plan = %+v", plan)
	}
	if plan.EstimatedPagesRead == 0 || plan.EstimatedPagesRead > tb.NumPages() {
		t.Errorf("estimate = %d", plan.EstimatedPagesRead)
	}

	// Uncovered, empty buffer: indexing scan of every page.
	plan = ExplainRange(a, iv(8), iv(8))
	if plan.Mechanism != "indexing scan" || plan.EstimatedPagesRead != tb.NumPages() {
		t.Errorf("plan = %+v", plan)
	}
	if buf.EntryCount() != 0 {
		t.Error("EXPLAIN mutated the buffer")
	}

	// After a real query, the plan predicts skips.
	if _, _, err := Range(context.Background(), a, iv(8), iv(8)); err != nil {
		t.Fatal(err)
	}
	plan = ExplainRange(a, iv(9), iv(9))
	if plan.SkippablePages != tb.NumPages() {
		t.Errorf("skippable = %d of %d", plan.SkippablePages, tb.NumPages())
	}
	// Estimate matches the real cost.
	_, stats, err := Range(context.Background(), a, iv(9), iv(9))
	if err != nil {
		t.Fatal(err)
	}
	if plan.EstimatedPagesRead != stats.PagesRead {
		t.Errorf("estimate %d, actual %d", plan.EstimatedPagesRead, stats.PagesRead)
	}

	// No index, no buffer: full scan plan.
	plan = ExplainRange(Access{Table: tb, Column: 0}, iv(1), iv(1))
	if plan.Mechanism != "full scan" || plan.EstimatedPagesRead != tb.NumPages() {
		t.Errorf("plan = %+v", plan)
	}
	if plan.String() == "" {
		t.Error("empty plan string")
	}
}

func TestExplainRange(t *testing.T) {
	a := rangeFixture(t, 300, 99)
	plan := ExplainRange(a, iv(10), iv(20))
	if !plan.PartialHit {
		t.Errorf("covered range plan = %+v", plan)
	}
	plan = ExplainRange(a, iv(90), iv(120))
	if plan.PartialHit || plan.Mechanism != "indexing scan" {
		t.Errorf("straddling plan = %+v", plan)
	}
	plan = ExplainRange(a, iv(20), iv(10))
	if plan.Mechanism != "empty range" || plan.EstimatedPagesRead != 0 {
		t.Errorf("inverted plan = %+v", plan)
	}
	noBuf := a
	noBuf.Buffer = nil
	noBuf.Space = nil
	plan = ExplainRange(noBuf, iv(150), iv(160))
	if plan.Mechanism != "full scan" {
		t.Errorf("no-buffer plan = %+v", plan)
	}
}
