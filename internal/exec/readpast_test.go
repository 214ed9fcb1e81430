package exec

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/storage"
)

// A scan pass reads a page the pool does not hold into its worker's own
// image, and a resident page in place (heap.Table.ScanPage). The tests
// here hold it to the pool's answers and to scan resistance: a dirty
// resident page is read from its frame, hits that load the same pages
// run beside it, a pass leaves the pool's frames as they were, and a
// table that fits its pool is read from the pool alone.

// cyclicKeys is n keys i % 10: buildTableFrames packs about 11 rows a
// page, so every page holds every key.
func cyclicKeys(n int) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i % 10)
	}
	return keys
}

// rowModel is a table's ground truth: each live row's key by RID.
type rowModel map[storage.RID]int64

// modelOf reads tb's rows into a rowModel.
func modelOf(t *testing.T, tb *heap.Table) rowModel {
	t.Helper()
	m := rowModel{}
	if err := tb.Scan(func(rid storage.RID, tu storage.Tuple) error {
		m[rid] = tu.Value(0).Int64()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return m
}

// rowOn returns the first row of page p, in slot order, with key k.
func (m rowModel) rowOn(t *testing.T, p storage.PageID, k int64) storage.RID {
	t.Helper()
	for s := 0; s < 64; s++ {
		rid := storage.RID{Page: p, Slot: uint16(s)}
		if key, ok := m[rid]; ok && key == k {
			return rid
		}
	}
	t.Fatalf("page %d holds no row with key %d", p, k)
	return storage.InvalidRID
}

// check compares a query's matches for key k with the model: the same
// RIDs, each with its key.
func (m rowModel) check(t *testing.T, what string, k int64, got []Match) {
	t.Helper()
	var want []storage.RID
	for rid, key := range m {
		if key == k {
			want = append(want, rid)
		}
	}
	slices.SortFunc(want, storage.RID.Compare)
	rids := make([]storage.RID, len(got))
	for i, mt := range got {
		rids[i] = mt.RID
		if key := mt.Tuple.Value(0).Int64(); key != k {
			t.Errorf("%s: row %v has key %d, want %d", what, mt.RID, key, k)
		}
	}
	slices.SortFunc(rids, storage.RID.Compare)
	if !slices.Equal(rids, want) {
		t.Errorf("%s: %d matches %v, want %d %v", what, len(rids), rids, len(want), want)
	}
}

// residentPages returns the pages of [0, n) the pool holds, pinning and
// unpinning each.
func residentPages(pool *buffer.Pool, n int) []storage.PageID {
	var out []storage.PageID
	var fr [1]*buffer.Frame
	for p := storage.PageID(0); int(p) < n; p++ {
		if pool.PinResident([]storage.PageID{p}, fr[:]) == 1 {
			pool.Unpin(fr[0])
			out = append(out, p)
		}
	}
	return out
}

// TestPoolBypassReadsDirtyFrames: an UPDATE and a DELETE leave three
// pages dirty in the pool, with their old images in the store, and
// misses that read past the pool return the rows as the DML left them.
func TestPoolBypassReadsDirtyFrames(t *testing.T) {
	for _, par := range []int{1, 2} {
		tb, pool := buildTableFrames(t, cyclicKeys(1100), 8)
		model := modelOf(t, tb)
		a := scanFixture(t, tb)
		a.Parallelism = par
		if err := pool.FlushAll(); err != nil {
			t.Fatal(err)
		}
		pad := storage.StringValue(strings.Repeat("p", 700))
		update := func(rid storage.RID, from, to int64) {
			if _, err := tb.Update(rid, storage.NewTuple(iv(to), pad)); err != nil {
				t.Fatal(err)
			}
			a.Buffer.MaintainUpdate(iv(from), iv(to), rid, rid, false, false)
			model[rid] = to
		}
		// Pages 0–2 are not resident: the fixture's scan of about 100
		// pages through 8 frames evicted them.
		update(model.rowOn(t, 0, 9), 9, 8)
		update(model.rowOn(t, 2, 8), 8, 9)
		del := model.rowOn(t, 1, 8)
		if err := tb.Delete(del); err != nil {
			t.Fatal(err)
		}
		a.Buffer.MaintainDelete(iv(8), del, false)
		delete(model, del)
		if n := pool.DirtyCount(); n != 3 {
			t.Fatalf("parallelism %d: %d dirty frames after the DML, want 3", par, n)
		}
		for _, k := range []int64{8, 9, 8} {
			got, st, err := Range(context.Background(), a, iv(k), iv(k))
			if err != nil {
				t.Fatal(err)
			}
			model.check(t, "miss", k, got)
			if st.ScanWorkers == 0 {
				t.Errorf("parallelism %d: key %d ran no table scan", par, k)
			}
		}
		checkCounterInvariant(t, tb, a)
	}
}

// TestPoolBypassBesideHits runs misses that read past the pool beside
// covered hits that Fetch the same pages, under the race detector in
// CI, and checks every answer against the model.
func TestPoolBypassBesideHits(t *testing.T) {
	tb, pool := buildTableFrames(t, cyclicKeys(1100), 8)
	model := modelOf(t, tb)
	// I^MAX 2 keeps every miss's visit list far above the pool's 8
	// frames, so each one reads most of its pages past the pool.
	a := spaceFixture(t, tb, core.Config{IMax: 2, P: 4})
	a.Parallelism = 2
	hit := Access{Table: tb, Column: 0, Index: a.Index}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				k := int64(i % 5) // covered: 0..4
				got, st, err := Range(context.Background(), hit, iv(k), iv(k))
				if err != nil || !st.PartialHit {
					t.Errorf("hit %d: err %v, partial hit %v", k, err, st.PartialHit)
					return
				}
				model.check(t, "hit", k, got)
			}
		}()
	}
	for i := 0; i < 20; i++ {
		k := int64(5 + i%5) // uncovered
		got, st, err := Range(context.Background(), a, iv(k), iv(k))
		if err != nil {
			t.Fatal(err)
		}
		if visited := tb.NumPages() - st.PagesSkipped; visited <= pool.Capacity() {
			t.Fatalf("miss %d visited %d pages, not more than the pool's %d", i, visited, pool.Capacity())
		}
		model.check(t, "miss", k, got)
	}
	wg.Wait()
	checkCounterInvariant(t, tb, a)
}

// TestPoolBypassScanResistant: a miss over a table ten times the pool
// leaves every frame that was resident before it resident and evicts
// nothing, while it reads every page it does not find from the store.
func TestPoolBypassScanResistant(t *testing.T) {
	tb, pool := buildTableFrames(t, cyclicKeys(1100), 8)
	if tb.NumPages() < 10*pool.Capacity() {
		t.Fatalf("table of %d pages, want at least 10x the pool's %d", tb.NumPages(), pool.Capacity())
	}
	model := modelOf(t, tb)
	a := scanFixture(t, tb)
	before := residentPages(pool, tb.NumPages())
	if len(before) != pool.Capacity() {
		t.Fatalf("%d pages resident before the miss, want a full pool of %d", len(before), pool.Capacity())
	}
	st0 := pool.Stats()
	got, _, err := Range(context.Background(), a, iv(8), iv(8))
	if err != nil {
		t.Fatal(err)
	}
	model.check(t, "miss", 8, got)
	st1 := pool.Stats()
	if after := residentPages(pool, tb.NumPages()); !slices.Equal(after, before) {
		t.Errorf("resident pages %v after the miss, want %v", after, before)
	}
	if st1.Evictions != st0.Evictions {
		t.Errorf("the miss evicted %d frames", st1.Evictions-st0.Evictions)
	}
	if reads, want := st1.Misses-st0.Misses, uint64(tb.NumPages()-len(before)); reads != want {
		t.Errorf("the miss read %d pages from the store, want %d", reads, want)
	}
}

// TestPoolBypassFittingTableResident: a table that fits its pool is
// resident from its inserts on, so misses over it read no page from the
// store and evict nothing.
func TestPoolBypassFittingTableResident(t *testing.T) {
	tb, pool := buildTableFrames(t, cyclicKeys(300), 64)
	model := modelOf(t, tb)
	// I^MAX 5 leaves most pages unindexed, so every miss scans.
	a := spaceFixture(t, tb, core.Config{IMax: 5, P: 100})
	st0 := pool.Stats()
	for _, k := range []int64{8, 9} {
		got, st, err := Range(context.Background(), a, iv(k), iv(k))
		if err != nil {
			t.Fatal(err)
		}
		model.check(t, "miss", k, got)
		if st.PagesSkipped == tb.NumPages() {
			t.Fatalf("the miss for key %d scanned no page", k)
		}
	}
	if st := pool.Stats(); st.Misses != st0.Misses || st.Evictions != st0.Evictions {
		t.Errorf("the misses read %d pages from the store and evicted %d frames, want 0 and 0",
			st.Misses-st0.Misses, st.Evictions-st0.Evictions)
	}
}
