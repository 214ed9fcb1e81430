package btree

import (
	"math/rand"
	"testing"

	"repro/internal/storage"
)

func TestBulkEmpty(t *testing.T) {
	t.Parallel()
	tr := Bulk(8, nil)
	if tr.Len() != 0 || tr.EntryCount() != 0 || tr.Height() != 0 {
		t.Error("empty bulk not empty")
	}
	tr.Ascend(func(storage.Value, []storage.RID) bool {
		t.Fatal("ascend on empty tree called fn")
		return false
	})
	if tr.Lookup(iv(1)) != nil {
		t.Error("lookup on empty bulk")
	}
	// Still fully usable for inserts.
	tr.Insert(iv(1), rid(0, 0))
	if tr.Len() != 1 {
		t.Error("insert after empty bulk failed")
	}
}

func TestBulkSmall(t *testing.T) {
	t.Parallel()
	entries := []Entry{
		{iv(3), rid(3, 0)},
		{iv(1), rid(1, 0)},
		{iv(2), rid(2, 0)},
		{iv(1), rid(1, 1)}, // duplicate key
		{iv(2), rid(2, 0)}, // exact duplicate pair: collapsed
	}
	tr := Bulk(4, entries)
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	if tr.EntryCount() != 4 {
		t.Fatalf("EntryCount = %d, want 4", tr.EntryCount())
	}
	if post := tr.Lookup(iv(1)); len(post) != 2 {
		t.Errorf("posting for 1 = %v", post)
	}
	prev := int64(-1)
	tr.Ascend(func(k storage.Value, _ []storage.RID) bool {
		if k.Int64() <= prev {
			t.Fatalf("out of order: %d after %d", k.Int64(), prev)
		}
		prev = k.Int64()
		return true
	})
}

func TestBulkMatchesIncremental(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 3, 63, 64, 65, 1000, 5000} {
		rng := rand.New(rand.NewSource(int64(n)))
		var entries []Entry
		inc := New(8)
		for i := 0; i < n; i++ {
			k := iv(rng.Int63n(int64(n)))
			r := rid(i, 0)
			entries = append(entries, Entry{k, r})
			inc.Insert(k, r)
		}
		bulk := Bulk(8, entries)
		if bulk.Len() != inc.Len() || bulk.EntryCount() != inc.EntryCount() {
			t.Fatalf("n=%d: bulk Len/Entries %d/%d vs incremental %d/%d",
				n, bulk.Len(), bulk.EntryCount(), inc.Len(), inc.EntryCount())
		}
		// Identical contents via parallel iteration.
		type pair struct {
			k    int64
			post int
		}
		collect := func(tr *Tree) []pair {
			var out []pair
			tr.Ascend(func(k storage.Value, post []storage.RID) bool {
				out = append(out, pair{k.Int64(), len(post)})
				return true
			})
			return out
		}
		a, b := collect(bulk), collect(inc)
		if len(a) != len(b) {
			t.Fatalf("n=%d: %d vs %d keys", n, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("n=%d: key %d differs: %+v vs %+v", n, i, a[i], b[i])
			}
		}
	}
}

// TestBulkThenMutate verifies the bulk-built structure behaves correctly
// under subsequent inserts and deletes (structural invariants hold).
func TestBulkThenMutate(t *testing.T) {
	t.Parallel()
	var entries []Entry
	for i := 0; i < 2000; i++ {
		entries = append(entries, Entry{iv(int64(i * 2)), rid(i, 0)})
	}
	tr := Bulk(6, entries)
	checkInvariants(t, tr)
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 3000; step++ {
		k := iv(rng.Int63n(4000))
		r := rid(rng.Intn(2000), rng.Intn(4))
		if rng.Intn(2) == 0 {
			tr.Insert(k, r)
		} else {
			tr.Delete(k, r)
		}
	}
	checkInvariants(t, tr)
}

func BenchmarkBulkVsIncremental(b *testing.B) {
	const n = 100000
	rng := rand.New(rand.NewSource(1))
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{iv(rng.Int63n(n)), rid(i, 0)}
	}
	b.Run("bulk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Bulk(DefaultOrder, append([]Entry(nil), entries...))
		}
	})
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := NewDefault()
			for _, e := range entries {
				tr.Insert(e.Key, e.RID)
			}
		}
	})
}
