package engine

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/storage"
)

// churn deletes roughly half the rows and updates a quarter, fragmenting
// the heap. It returns the surviving RIDs.
func churn(t *testing.T, tb *Table) []storage.RID {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	var rids []storage.RID
	_ = tb.Scan(func(rid storage.RID, _ storage.Tuple) error {
		rids = append(rids, rid)
		return nil
	})
	var live []storage.RID
	for i, rid := range rids {
		switch {
		case i%2 == 0:
			if err := tb.Delete(rid); err != nil {
				t.Fatal(err)
			}
		case i%4 == 1:
			tu := storage.NewTuple(
				iv(1+rng.Int63n(100)), iv(1+rng.Int63n(100)), iv(1+rng.Int63n(100)),
				storage.StringValue(strings.Repeat("u", 1+rng.Intn(500))),
			)
			nr, err := tb.Update(rid, tu)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, nr)
		default:
			live = append(live, rid)
		}
	}
	return live
}

func TestVacuumCompactsAndStaysCorrect(t *testing.T) {
	_, tb := newABC(t, Config{Space: core.Config{IMax: 100000, P: 1000}}, 2000, 100)
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 50)); err != nil {
		t.Fatal(err)
	}
	// Warm the buffer, then fragment the heap.
	if _, _, err := tb.QueryEqual(0, iv(90)); err != nil {
		t.Fatal(err)
	}
	churn(t, tb)
	wantCount, err := tb.Count()
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth per key before vacuum (RIDs will change; count only).
	wantPerKey := map[int64]int{}
	_ = tb.Scan(func(_ storage.RID, tu storage.Tuple) error {
		wantPerKey[tu.Value(0).Int64()]++
		return nil
	})

	before, after, err := tb.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("vacuum did not shrink: %d -> %d pages", before, after)
	}
	gotCount, err := tb.Count()
	if err != nil {
		t.Fatal(err)
	}
	if gotCount != wantCount {
		t.Errorf("rows = %d, want %d", gotCount, wantCount)
	}
	// Index answers covered queries; buffer restarted empty and works.
	if tb.Buffer(0).EntryCount() != 0 {
		t.Error("buffer survived vacuum")
	}
	for _, key := range []int64{10, 25, 90, 99} {
		got, stats, err := tb.QueryEqual(0, iv(key))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != wantPerKey[key] {
			t.Errorf("key %d: %d rows, want %d", key, len(got), wantPerKey[key])
		}
		if key <= 50 && !stats.PartialHit {
			t.Errorf("key %d should hit the rebuilt index", key)
		}
	}
	// The buffer rebuilds via misses as usual.
	if _, _, err := tb.QueryEqual(0, iv(80)); err != nil {
		t.Fatal(err)
	}
	_, s2, err := tb.QueryEqual(0, iv(81))
	if err != nil {
		t.Fatal(err)
	}
	if s2.PagesSkipped != tb.NumPages() {
		t.Errorf("post-vacuum skips = %d of %d", s2.PagesSkipped, tb.NumPages())
	}
}

func TestVacuumFileBackedPersists(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, PoolPages: 8, Space: core.Config{IMax: 100000, P: 1000}}
	e := New(cfg)
	schema := storage.MustSchema(
		storage.Column{Name: "a", Kind: storage.KindInt64},
		storage.Column{Name: "pad", Kind: storage.KindString},
	)
	tb, err := e.CreateTable("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("f", 350)
	var rids []storage.RID
	for i := 0; i < 600; i++ {
		rid, err := tb.Insert(storage.NewTuple(iv(int64(i%50)), storage.StringValue(pad)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := tb.CreatePartialIndex(0, index.IntRange(0, 24)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(rids); i += 2 {
		if err := tb.Delete(rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	before, after, err := tb.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("no shrink: %d -> %d", before, after)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Reload: the vacuumed file must carry exactly the survivors.
	e2, err := Load(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	tb2 := e2.Table("t")
	n, err := tb2.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 300 {
		t.Errorf("rows after reload = %d, want 300", n)
	}
	got, stats, err := tb2.QueryEqual(0, iv(1)) // odd keys survive
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 12 || !stats.PartialHit {
		t.Errorf("rows=%d hit=%v", len(got), stats.PartialHit)
	}
}
