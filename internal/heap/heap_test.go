package heap

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/storage"
)

func testSchema() *storage.Schema {
	return storage.MustSchema(
		storage.Column{Name: "a", Kind: storage.KindInt64},
		storage.Column{Name: "payload", Kind: storage.KindString},
	)
}

func newTable(t *testing.T, poolPages int) (*Table, *buffer.SimDisk) {
	t.Helper()
	d := buffer.NewSimDisk()
	pool, err := buffer.NewPool(d, poolPages)
	if err != nil {
		t.Fatal(err)
	}
	return NewTable(testSchema(), pool), d
}

func row(a int64, payload string) storage.Tuple {
	return storage.NewTuple(storage.Int64Value(a), storage.StringValue(payload))
}

func TestTableInsertGet(t *testing.T) {
	tb, _ := newTable(t, 8)
	rid, err := tb.Insert(row(42, "hello"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := tb.Get(rid)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value(0).Int64() != 42 || got.Value(1).Str() != "hello" {
		t.Errorf("got %v", got)
	}
	if tb.NumPages() != 1 {
		t.Errorf("pages = %d, want 1", tb.NumPages())
	}
}

func TestTableGetErrors(t *testing.T) {
	tb, _ := newTable(t, 8)
	if _, err := tb.Get(storage.RID{Page: 0, Slot: 0}); err == nil {
		t.Error("get on empty table should fail")
	}
	if _, err := tb.Get(storage.InvalidRID); err == nil {
		t.Error("get of invalid RID should fail")
	}
	rid, _ := tb.Insert(row(1, "x"))
	if err := tb.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Get(rid); err == nil {
		t.Error("get of deleted RID should fail")
	}
}

func TestTableSpillsToNewPages(t *testing.T) {
	tb, _ := newTable(t, 8)
	// ~500-byte tuples: ~16 per 8 KiB page.
	payload := strings.Repeat("p", 490)
	const n = 100
	rids := make([]storage.RID, n)
	for i := 0; i < n; i++ {
		rid, err := tb.Insert(row(int64(i), payload))
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	if tb.NumPages() < 4 {
		t.Errorf("pages = %d, want >= 4", tb.NumPages())
	}
	for i, rid := range rids {
		got, err := tb.Get(rid)
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if got.Value(0).Int64() != int64(i) {
			t.Errorf("row %d: key %d", i, got.Value(0).Int64())
		}
	}
	cnt, err := tb.Count()
	if err != nil {
		t.Fatal(err)
	}
	if cnt != n {
		t.Errorf("count = %d, want %d", cnt, n)
	}
}

func TestTableUpdateInPlaceAndMove(t *testing.T) {
	tb, _ := newTable(t, 8)
	rid, _ := tb.Insert(row(1, "short"))
	// In-place: same size.
	rid2, err := tb.Update(rid, row(2, "shart"))
	if err != nil {
		t.Fatal(err)
	}
	if rid2 != rid {
		t.Errorf("same-size update moved tuple: %v -> %v", rid, rid2)
	}
	got, _ := tb.Get(rid2)
	if got.Value(0).Int64() != 2 {
		t.Errorf("update not applied: %v", got)
	}

	// Force a move: fill the page, then grow a tuple beyond its room.
	big := strings.Repeat("b", 2000)
	for tb.NumPages() == 1 {
		if _, err := tb.Insert(row(9, big)); err != nil {
			t.Fatal(err)
		}
	}
	// Grow the first tuple to more than a page's remaining space: find a
	// tuple on page 0 and grow it hugely.
	var victim storage.RID
	_ = tb.ScanPage(0, 0, func(r storage.RID, _ storage.Value, _ []byte) error {
		victim = r
		return fmt.Errorf("stop")
	})
	huge := strings.Repeat("H", 7000)
	newRID, err := tb.Update(victim, row(77, huge))
	if err != nil {
		t.Fatal(err)
	}
	if newRID.Page == victim.Page {
		// The move is only guaranteed when the origin page lacks space;
		// page 0 was filled with big tuples so 7000 bytes cannot fit.
		t.Errorf("expected relocation off page %d, got %v", victim.Page, newRID)
	}
	got, err = tb.Get(newRID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value(0).Int64() != 77 || got.Value(1).Str() != huge {
		t.Error("moved tuple content mismatch")
	}
	if _, err := tb.Get(victim); err == nil {
		t.Error("old RID should be dead after move")
	}
}

func TestTableScanOrder(t *testing.T) {
	tb, _ := newTable(t, 8)
	payload := strings.Repeat("p", 400)
	const n = 60
	for i := 0; i < n; i++ {
		if _, err := tb.Insert(row(int64(i), payload)); err != nil {
			t.Fatal(err)
		}
	}
	var rids []storage.RID
	var keys []int64
	err := tb.Scan(func(r storage.RID, tu storage.Tuple) error {
		rids = append(rids, r)
		keys = append(keys, tu.Value(0).Int64())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != n {
		t.Fatalf("scan saw %d tuples, want %d", len(rids), n)
	}
	for i := 1; i < len(rids); i++ {
		if !rids[i-1].Less(rids[i]) {
			t.Errorf("scan order violated at %d: %v then %v", i, rids[i-1], rids[i])
		}
	}
	// Append-only inserts preserve key order under page/slot order.
	for i, k := range keys {
		if k != int64(i) {
			t.Errorf("key order: position %d has key %d", i, k)
			break
		}
	}
}

func TestTableScanPageErrors(t *testing.T) {
	tb, _ := newTable(t, 8)
	if err := tb.ScanPage(0, 0, func(storage.RID, storage.Value, []byte) error { return nil }); err == nil {
		t.Error("scan of nonexistent page should fail")
	}
	if _, err := tb.PageLiveCount(0); err == nil {
		t.Error("live count of nonexistent page should fail")
	}
}

func TestTablePageLiveCount(t *testing.T) {
	tb, _ := newTable(t, 8)
	payload := strings.Repeat("p", 400)
	var rids []storage.RID
	for i := 0; i < 10; i++ {
		rid, _ := tb.Insert(row(int64(i), payload))
		rids = append(rids, rid)
	}
	n, err := tb.PageLiveCount(0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("live = %d, want 10", n)
	}
	_ = tb.Delete(rids[3])
	_ = tb.Delete(rids[7])
	n, _ = tb.PageLiveCount(0)
	if n != 8 {
		t.Errorf("live after deletes = %d, want 8", n)
	}
}

func TestTableWorksThroughTinyPool(t *testing.T) {
	// A 2-frame pool forces constant eviction and writeback; data must
	// survive round trips through the simulated disk.
	tb, d := newTable(t, 2)
	payload := strings.Repeat("q", 450)
	const n = 200
	rids := make([]storage.RID, n)
	for i := 0; i < n; i++ {
		rid, err := tb.Insert(row(int64(i), payload))
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	for i, rid := range rids {
		got, err := tb.Get(rid)
		if err != nil {
			t.Fatalf("row %d after eviction churn: %v", i, err)
		}
		if got.Value(0).Int64() != int64(i) {
			t.Errorf("row %d corrupted", i)
		}
	}
	if d.Stats().Writes == 0 {
		t.Error("expected dirty writebacks through tiny pool")
	}
}

// TestTableRandomizedDML compares the table against a map model under
// random inserts, updates, deletes with varying payload sizes.
func TestTableRandomizedDML(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tb, _ := newTable(t, 4)
	model := map[storage.RID]int64{}
	var live []storage.RID

	removeRID := func(r storage.RID) {
		for i, x := range live {
			if x == r {
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				return
			}
		}
	}

	for step := 0; step < 2000; step++ {
		switch op := rng.Intn(4); {
		case op <= 1 || len(live) == 0: // insert (50%)
			key := rng.Int63n(1000)
			pl := strings.Repeat("x", 1+rng.Intn(600))
			rid, err := tb.Insert(row(key, pl))
			if err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
			if _, clash := model[rid]; clash {
				t.Fatalf("step %d: insert returned live RID %v", step, rid)
			}
			model[rid] = key
			live = append(live, rid)
		case op == 2: // delete
			r := live[rng.Intn(len(live))]
			if err := tb.Delete(r); err != nil {
				t.Fatalf("step %d delete %v: %v", step, r, err)
			}
			delete(model, r)
			removeRID(r)
		default: // update
			r := live[rng.Intn(len(live))]
			key := rng.Int63n(1000)
			pl := strings.Repeat("y", 1+rng.Intn(600))
			nr, err := tb.Update(r, row(key, pl))
			if err != nil {
				t.Fatalf("step %d update %v: %v", step, r, err)
			}
			if nr != r {
				delete(model, r)
				removeRID(r)
				if _, clash := model[nr]; clash {
					t.Fatalf("step %d: update moved to live RID %v", step, nr)
				}
				model[nr] = key
				live = append(live, nr)
			} else {
				model[r] = key
			}
		}
	}

	// Final verification: every model entry reachable, count matches.
	for rid, key := range model {
		got, err := tb.Get(rid)
		if err != nil {
			t.Fatalf("final: %v: %v", rid, err)
		}
		if got.Value(0).Int64() != key {
			t.Errorf("final: %v key = %d, want %d", rid, got.Value(0).Int64(), key)
		}
	}
	cnt, err := tb.Count()
	if err != nil {
		t.Fatal(err)
	}
	if cnt != len(model) {
		t.Errorf("final count = %d, model = %d", cnt, len(model))
	}
}

func TestOpenTableReattaches(t *testing.T) {
	d := buffer.NewSimDisk()
	pool, err := buffer.NewPool(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTable(testSchema(), pool)
	if tb.Schema() != testSchema() && tb.Schema().NumColumns() != 2 {
		t.Error("Schema accessor wrong")
	}
	payload := strings.Repeat("o", 400)
	var rids []storage.RID
	for i := 0; i < 60; i++ {
		rid, err := tb.Insert(row(int64(i), payload))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	_ = tb.Delete(rids[5])
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// Reattach over the same store with a fresh pool.
	pool2, err := buffer.NewPool(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	tb2, err := OpenTable(testSchema(), pool2, tb.NumPages())
	if err != nil {
		t.Fatal(err)
	}
	n, err := tb2.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 59 {
		t.Errorf("count = %d, want 59", n)
	}
	// Free hints rebuilt: inserts reuse the hole from the delete.
	rid, err := tb2.Insert(row(999, payload))
	if err != nil {
		t.Fatal(err)
	}
	got, err := tb2.Get(rid)
	if err != nil || got.Value(0).Int64() != 999 {
		t.Errorf("insert after reopen: %v, %v", got, err)
	}
	// Reopening a corrupt page fails loudly.
	f, err := pool2.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[0] = 0xFF // implausible slot count
	f.Data()[1] = 0xFF
	f.MarkDirty()
	pool2.Unpin(f)
	if err := pool2.FlushAll(); err != nil {
		t.Fatal(err)
	}
	pool3, _ := buffer.NewPool(d, 8)
	if _, err := OpenTable(testSchema(), pool3, tb.NumPages()); err == nil {
		t.Error("reopen over corrupt page should fail")
	}
}

// TestScanPageKeyFirst checks the key-first kernel against the full
// decode: every column it hands out equals the decoded tuple's, raw
// decodes to that tuple, and a tuple corrupt only outside the key column
// still fails the scan.
func TestScanPageKeyFirst(t *testing.T) {
	tb, _ := newTable(t, 8)
	for i := 0; i < 40; i++ {
		if _, err := tb.Insert(row(int64(i), strings.Repeat("p", 100+i))); err != nil {
			t.Fatal(err)
		}
	}
	full := map[storage.RID]storage.Tuple{}
	if err := tb.Scan(func(r storage.RID, tu storage.Tuple) error {
		full[r] = tu
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for col := 0; col < 2; col++ {
		seen := 0
		for p := 0; p < tb.NumPages(); p++ {
			err := tb.ScanPage(storage.PageID(p), col, func(r storage.RID, key storage.Value, raw []byte) error {
				seen++
				want := full[r]
				if !key.Equal(want.Value(col)) {
					t.Errorf("col %d at %v: key %v, want %v", col, r, key, want.Value(col))
				}
				tu, err := storage.DecodeTuple(testSchema(), raw)
				if err != nil || tu.String() != want.String() {
					t.Errorf("col %d at %v: raw decodes to %v (%v), want %v", col, r, tu, err, want)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if seen != len(full) {
			t.Errorf("col %d: kernel saw %d tuples, Scan %d", col, seen, len(full))
		}
	}

	// Shrink slot 0's VARCHAR length prefix: its key still decodes, but
	// the tuple now has trailing bytes.
	f, err := tb.pool.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := AsPage(f.Data())
	raw, err := sp.Tuple(0)
	if err != nil {
		t.Fatal(err)
	}
	raw[8]-- // low byte of the payload's length prefix
	tb.pool.Unpin(f)
	err = tb.ScanPage(0, 0, func(storage.RID, storage.Value, []byte) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "trailing bytes") {
		t.Errorf("scan over a tuple with corrupt framing: err = %v, want trailing-bytes error", err)
	}
}
