package exec

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/index"
	"repro/internal/storage"
)

// rangeFixture builds a table with keys 0..rows-1 (sequential), a partial
// index covering [0, covHi], and an Index Buffer.
func rangeFixture(t *testing.T, rows int, covHi int64) Access {
	t.Helper()
	d := buffer.NewSimDisk()
	pool, err := buffer.NewPool(d, 64)
	if err != nil {
		t.Fatal(err)
	}
	schema := storage.MustSchema(
		storage.Column{Name: "k", Kind: storage.KindInt64},
		storage.Column{Name: "pad", Kind: storage.KindString},
	)
	tb := heap.NewTable(schema, pool)
	pad := strings.Repeat("p", 700)
	for i := 0; i < rows; i++ {
		if _, err := tb.Insert(storage.NewTuple(iv(int64(i)), storage.StringValue(pad))); err != nil {
			t.Fatal(err)
		}
	}
	ix := index.NewPartial("k", 0, index.IntRange(0, covHi))
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
	return Access{Table: tb, Column: 0, Index: ix, Buffer: buf, Space: space}
}

func keysOf(t *testing.T, ms []Match) map[int64]bool {
	t.Helper()
	out := map[int64]bool{}
	for _, m := range ms {
		k := m.Tuple.Value(0).Int64()
		if out[k] {
			t.Fatalf("duplicate key %d in result", k)
		}
		out[k] = true
	}
	return out
}

func TestRangeCoveredHit(t *testing.T) {
	a := rangeFixture(t, 300, 99)
	got, stats, err := Range(context.Background(), a, iv(10), iv(20))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.PartialHit {
		t.Error("fully covered range should hit the partial index")
	}
	keys := keysOf(t, got)
	if len(keys) != 11 {
		t.Fatalf("matches = %d, want 11", len(keys))
	}
	for k := int64(10); k <= 20; k++ {
		if !keys[k] {
			t.Errorf("missing key %d", k)
		}
	}
}

func TestRangeStraddlingCoverageMisses(t *testing.T) {
	a := rangeFixture(t, 300, 99)
	// [90, 110] straddles the coverage edge: must NOT be a hit even
	// though part of it is covered.
	got, stats, err := Range(context.Background(), a, iv(90), iv(110))
	if err != nil {
		t.Fatal(err)
	}
	if stats.PartialHit {
		t.Error("straddling range must not hit the partial index")
	}
	if len(keysOf(t, got)) != 21 {
		t.Errorf("matches = %d, want 21", len(got))
	}
	if stats.EntriesAdded == 0 {
		t.Error("miss should build the buffer")
	}
}

func TestRangeSecondQuerySkips(t *testing.T) {
	a := rangeFixture(t, 300, 99)
	if _, _, err := Range(context.Background(), a, iv(150), iv(160)); err != nil {
		t.Fatal(err)
	}
	got, stats, err := Range(context.Background(), a, iv(200), iv(230))
	if err != nil {
		t.Fatal(err)
	}
	if stats.PagesSkipped != a.Table.NumPages() {
		t.Errorf("skipped %d of %d pages", stats.PagesSkipped, a.Table.NumPages())
	}
	if len(keysOf(t, got)) != 31 {
		t.Errorf("matches = %d, want 31", len(got))
	}
	if stats.BufferMatches != 31 {
		t.Errorf("buffer matches = %d, want all 31", stats.BufferMatches)
	}
}

func TestRangeEmptyAndInverted(t *testing.T) {
	a := rangeFixture(t, 100, 49)
	got, stats, err := Range(context.Background(), a, iv(20), iv(10)) // inverted
	if err != nil {
		t.Fatal(err)
	}
	if got != nil || stats.Matches != 0 {
		t.Error("inverted range should be empty")
	}
	got, _, err = Range(context.Background(), a, iv(1000), iv(2000)) // beyond the data
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("out-of-domain range returned %d rows", len(got))
	}
}

func TestRangeNoIndexNoBuffer(t *testing.T) {
	a := rangeFixture(t, 200, 99)
	a.Index = nil
	a.Buffer = nil
	a.Space = nil
	got, stats, err := Range(context.Background(), a, iv(50), iv(60))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.FullScan || stats.PagesRead != a.Table.NumPages() {
		t.Errorf("stats = %+v", stats)
	}
	if len(keysOf(t, got)) != 11 {
		t.Errorf("matches = %d", len(got))
	}
}

// TestRangeAllStructures checks that a range served from the buffer's
// ordered range scans returns exactly the keys in the range. The B+-tree
// is the only buffer structure; its case keeps the subtest name it has
// always run under.
func TestRangeAllStructures(t *testing.T) {
	t.Run("btree", func(t *testing.T) {
		a := rangeFixture(t, 300, 99)
		if _, _, err := Range(context.Background(), a, iv(120), iv(130)); err != nil { // build
			t.Fatal(err)
		}
		got, stats, err := Range(context.Background(), a, iv(140), iv(180))
		if err != nil {
			t.Fatal(err)
		}
		keys := keysOf(t, got)
		if len(keys) != 41 {
			t.Fatalf("matches = %d, want 41", len(keys))
		}
		for k := int64(140); k <= 180; k++ {
			if !keys[k] {
				t.Errorf("missing key %d", k)
			}
		}
		if stats.PagesSkipped == 0 {
			t.Error("no skips on second range query")
		}
	})
}

// TestRangeRandomizedGroundTruth compares random range queries against a
// naive scan while the buffer builds and serves.
func TestRangeRandomizedGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	a := rangeFixture(t, 400, 99)
	for q := 0; q < 50; q++ {
		lo := rng.Int63n(450)
		hi := lo + rng.Int63n(60)
		want := map[int64]bool{}
		for k := lo; k <= hi && k < 400; k++ {
			if k >= 0 {
				want[k] = true
			}
		}
		got, _, err := Range(context.Background(), a, iv(lo), iv(hi))
		if err != nil {
			t.Fatal(err)
		}
		keys := keysOf(t, got)
		if len(keys) != len(want) {
			t.Fatalf("query %d [%d,%d]: %d matches, want %d", q, lo, hi, len(keys), len(want))
		}
		for k := range want {
			if !keys[k] {
				t.Fatalf("query %d: missing key %d", q, k)
			}
		}
	}
}
