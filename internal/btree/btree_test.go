package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/storage"
)

func iv(v int64) storage.Value { return storage.Int64Value(v) }
func rid(p, s int) storage.RID { return storage.RID{Page: storage.PageID(p), Slot: uint16(s)} }

func TestNewPanicsOnTinyOrder(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Error("order < 4 should panic")
		}
	}()
	New(3)
}

func TestInsertLookupBasic(t *testing.T) {
	t.Parallel()
	tr := New(4)
	if !tr.Insert(iv(10), rid(1, 0)) {
		t.Error("first insert should report added")
	}
	if tr.Insert(iv(10), rid(1, 0)) {
		t.Error("duplicate (key, rid) should report not added")
	}
	if !tr.Insert(iv(10), rid(2, 0)) {
		t.Error("same key, new rid should report added")
	}
	post := tr.Lookup(iv(10))
	if len(post) != 2 || post[0] != rid(1, 0) || post[1] != rid(2, 0) {
		t.Errorf("posting = %v", post)
	}
	if tr.Lookup(iv(11)) != nil {
		t.Error("missing key should return nil")
	}
	if tr.Len() != 1 || tr.EntryCount() != 2 {
		t.Errorf("Len=%d EntryCount=%d, want 1, 2", tr.Len(), tr.EntryCount())
	}
	if !tr.Contains(iv(10), rid(2, 0)) || tr.Contains(iv(10), rid(3, 0)) {
		t.Error("Contains wrong")
	}
}

func TestInsertInvalidKeyPanics(t *testing.T) {
	t.Parallel()
	tr := NewDefault()
	defer func() {
		if recover() == nil {
			t.Error("invalid key should panic")
		}
	}()
	tr.Insert(storage.Value{}, rid(0, 0))
}

func TestPostingStaysRIDSorted(t *testing.T) {
	t.Parallel()
	tr := New(4)
	rids := []storage.RID{rid(5, 1), rid(1, 2), rid(3, 0), rid(1, 0), rid(5, 0)}
	for _, r := range rids {
		tr.Insert(iv(7), r)
	}
	post := tr.Lookup(iv(7))
	for i := 1; i < len(post); i++ {
		if !post[i-1].Less(post[i]) {
			t.Fatalf("posting not sorted: %v", post)
		}
	}
}

func TestSplitsAndOrderedIteration(t *testing.T) {
	t.Parallel()
	tr := New(4) // tiny order forces deep trees
	const n = 1000
	perm := rand.New(rand.NewSource(3)).Perm(n)
	for _, k := range perm {
		tr.Insert(iv(int64(k)), rid(k, 0))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	if tr.Height() < 3 {
		t.Errorf("height = %d, expected a deep tree at order 4", tr.Height())
	}
	var keys []int64
	tr.Ascend(func(k storage.Value, post []storage.RID) bool {
		keys = append(keys, k.Int64())
		return true
	})
	if len(keys) != n {
		t.Fatalf("iterated %d keys", len(keys))
	}
	for i, k := range keys {
		if k != int64(i) {
			t.Fatalf("position %d has key %d", i, k)
		}
	}
	if tr.Min().Int64() != 0 || tr.Max().Int64() != n-1 {
		t.Errorf("Min=%v Max=%v", tr.Min(), tr.Max())
	}
}

func TestAscendEarlyStop(t *testing.T) {
	t.Parallel()
	tr := New(4)
	for k := 0; k < 100; k++ {
		tr.Insert(iv(int64(k)), rid(k, 0))
	}
	count := 0
	tr.Ascend(func(storage.Value, []storage.RID) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("early stop saw %d keys, want 10", count)
	}
}

func TestAscendRange(t *testing.T) {
	t.Parallel()
	tr := New(4)
	for k := 0; k < 100; k += 2 { // even keys only
		tr.Insert(iv(int64(k)), rid(k, 0))
	}
	var got []int64
	tr.AscendRange(iv(11), iv(21), func(k storage.Value, _ []storage.RID) bool {
		got = append(got, k.Int64())
		return true
	})
	want := []int64{12, 14, 16, 18, 20}
	if len(got) != len(want) {
		t.Fatalf("range got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range got %v, want %v", got, want)
		}
	}
	// Open-ended ranges.
	var lo []int64
	tr.AscendRange(storage.Value{}, iv(5), func(k storage.Value, _ []storage.RID) bool {
		lo = append(lo, k.Int64())
		return true
	})
	if len(lo) != 3 { // 0 2 4
		t.Errorf("open-lo range = %v", lo)
	}
	n := 0
	tr.AscendRange(iv(90), storage.Value{}, func(storage.Value, []storage.RID) bool {
		n++
		return true
	})
	if n != 5 { // 90 92 94 96 98
		t.Errorf("open-hi range counted %d", n)
	}
}

func TestDeleteBasic(t *testing.T) {
	t.Parallel()
	tr := New(4)
	tr.Insert(iv(1), rid(1, 0))
	tr.Insert(iv(1), rid(2, 0))
	if !tr.Delete(iv(1), rid(1, 0)) {
		t.Error("delete of present pair should succeed")
	}
	if tr.Delete(iv(1), rid(1, 0)) {
		t.Error("delete of absent rid should fail")
	}
	if tr.Delete(iv(9), rid(0, 0)) {
		t.Error("delete of absent key should fail")
	}
	if tr.Len() != 1 || tr.EntryCount() != 1 {
		t.Errorf("Len=%d EntryCount=%d", tr.Len(), tr.EntryCount())
	}
	if !tr.Delete(iv(1), rid(2, 0)) {
		t.Error("second delete should succeed")
	}
	if tr.Len() != 0 || tr.EntryCount() != 0 {
		t.Errorf("after emptying: Len=%d EntryCount=%d", tr.Len(), tr.EntryCount())
	}
	if tr.Min().IsValid() || tr.Max().IsValid() {
		t.Error("Min/Max of empty tree should be invalid")
	}
}

// TestDeleteRebalancing drains a deep tree from both ends and then
// front to back, so leaves and inner nodes empty at the left edge, the
// right edge and in the middle and are pruned.
func TestDeleteRebalancing(t *testing.T) {
	t.Parallel()
	tr := New(4)
	const n = 2000
	for k := 0; k < n; k++ {
		tr.Insert(iv(int64(k)), rid(k, 0))
	}
	// Delete front, back, then everything in order.
	order := make([]int, 0, n)
	for i := 0; i < n/4; i++ {
		order = append(order, i, n-1-i)
	}
	for k := 0; k < n; k++ {
		order = append(order, k) // duplicates are fine; deletes fail silently
	}
	deleted := map[int]bool{}
	for _, k := range order {
		want := !deleted[k]
		got := tr.Delete(iv(int64(k)), rid(k, 0))
		if got != want {
			t.Fatalf("delete %d: got %v, want %v", k, got, want)
		}
		deleted[k] = true
		if k%97 == 0 {
			checkInvariants(t, tr)
		}
	}
	if tr.Len() != 0 || tr.Height() != 0 {
		t.Fatalf("tree not empty: %d keys", tr.Len())
	}
}

// checkInvariants walks the tree verifying structural invariants.
func checkInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	if tr.root == nil {
		if tr.Len() != 0 || tr.EntryCount() != 0 {
			t.Fatalf("nil root with Len=%d EntryCount=%d", tr.Len(), tr.EntryCount())
		}
		return
	}
	var walk func(n *node, depth int) (min, max storage.Value, leafDepth int)
	walk = func(n *node, depth int) (storage.Value, storage.Value, int) {
		if n.leaf() {
			if len(n.keys) == 0 || len(n.posts) != len(n.keys) {
				t.Fatalf("leaf has %d keys and %d postings", len(n.keys), len(n.posts))
			}
			for i := 1; i < len(n.keys); i++ {
				if n.keys[i-1].Compare(n.keys[i]) >= 0 {
					t.Fatalf("leaf keys out of order: %v, %v", n.keys[i-1], n.keys[i])
				}
			}
			for i, post := range n.posts {
				if len(post) == 0 {
					t.Fatalf("empty posting for key %v", n.keys[i])
				}
				for j := 1; j < len(post); j++ {
					if !post[j-1].Less(post[j]) {
						t.Fatalf("posting unsorted for key %v", n.keys[i])
					}
				}
			}
			return n.keys[0], n.keys[len(n.keys)-1], depth
		}
		if len(n.children) != len(n.keys)+1 {
			t.Fatalf("inner has %d children for %d keys", len(n.children), len(n.keys))
		}
		var lo, hi storage.Value
		leafDepth := -1
		for i, c := range n.children {
			cmin, cmax, d := walk(c, depth+1)
			if leafDepth == -1 {
				leafDepth = d
			} else if d != leafDepth {
				t.Fatal("leaves at different depths")
			}
			if i > 0 && cmin.Compare(n.keys[i-1]) < 0 {
				t.Fatalf("child %d min %v < separator %v", i, cmin, n.keys[i-1])
			}
			if i < len(n.keys) && cmax.Compare(n.keys[i]) >= 0 {
				t.Fatalf("child %d max %v >= separator %v", i, cmax, n.keys[i])
			}
			if i == 0 {
				lo = cmin
			}
			if i == len(n.children)-1 {
				hi = cmax
			}
		}
		return lo, hi, leafDepth
	}
	walk(tr.root, 0)

	// Iteration by descent must visit exactly the keys, in order.
	var keys []storage.Value
	entries := 0
	tr.Ascend(func(k storage.Value, post []storage.RID) bool {
		keys = append(keys, k)
		entries += len(post)
		return true
	})
	if len(keys) != tr.Len() {
		t.Fatalf("iteration found %d keys, Len says %d", len(keys), tr.Len())
	}
	if entries != tr.EntryCount() {
		t.Fatalf("iteration found %d entries, EntryCount says %d", entries, tr.EntryCount())
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i].Compare(keys[j]) < 0 }) {
		t.Fatal("iteration out of order")
	}
}

// TestRandomizedAgainstModel drives the tree with random ops against a
// map model, checking invariants and content periodically.
func TestRandomizedAgainstModel(t *testing.T) {
	t.Parallel()
	for _, order := range []int{4, 5, 16, 64} {
		order := order
		t.Run("order", func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(order)))
			tr := New(order)
			model := map[int64]map[storage.RID]bool{}
			modelEntries := 0

			for step := 0; step < 8000; step++ {
				k := rng.Int63n(500)
				r := rid(rng.Intn(50), rng.Intn(4))
				if rng.Intn(2) == 0 {
					added := tr.Insert(iv(k), r)
					wasThere := model[k][r]
					if added == wasThere {
						t.Fatalf("step %d: insert(%d,%v) added=%v model=%v", step, k, r, added, wasThere)
					}
					if model[k] == nil {
						model[k] = map[storage.RID]bool{}
					}
					if !wasThere {
						model[k][r] = true
						modelEntries++
					}
				} else {
					removed := tr.Delete(iv(k), r)
					wasThere := model[k][r]
					if removed != wasThere {
						t.Fatalf("step %d: delete(%d,%v) removed=%v model=%v", step, k, r, removed, wasThere)
					}
					if wasThere {
						delete(model[k], r)
						if len(model[k]) == 0 {
							delete(model, k)
						}
						modelEntries--
					}
				}
				if step%500 == 0 {
					checkInvariants(t, tr)
				}
			}
			checkInvariants(t, tr)
			if tr.EntryCount() != modelEntries {
				t.Fatalf("EntryCount=%d model=%d", tr.EntryCount(), modelEntries)
			}
			if tr.Len() != len(model) {
				t.Fatalf("Len=%d model=%d", tr.Len(), len(model))
			}
			// Full content check.
			for k, rids := range model {
				post := tr.Lookup(iv(k))
				if len(post) != len(rids) {
					t.Fatalf("key %d: posting %v, model %v", k, post, rids)
				}
				for _, r := range post {
					if !rids[r] {
						t.Fatalf("key %d: unexpected rid %v", k, r)
					}
				}
			}
		})
	}
}

func TestQuickInsertDeleteRoundTrip(t *testing.T) {
	t.Parallel()
	// Property: inserting a batch then deleting it leaves an empty tree,
	// regardless of key distribution.
	f := func(keys []int64) bool {
		tr := New(6)
		for i, k := range keys {
			tr.Insert(iv(k), rid(i, 0))
		}
		for i, k := range keys {
			if !tr.Delete(iv(k), rid(i, 0)) {
				return false
			}
		}
		return tr.Len() == 0 && tr.EntryCount() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStringKeys(t *testing.T) {
	t.Parallel()
	tr := New(4)
	airports := []string{"ORD", "FRA", "HEL", "JFK", "LAX", "MUC", "TXL", "SFO"}
	for i, a := range airports {
		tr.Insert(storage.StringValue(a), rid(i, 0))
	}
	var got []string
	tr.Ascend(func(k storage.Value, _ []storage.RID) bool {
		got = append(got, k.Str())
		return true
	})
	want := append([]string(nil), airports...)
	sort.Strings(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order: got %v, want %v", got, want)
		}
	}
	if post := tr.Lookup(storage.StringValue("FRA")); len(post) != 1 || post[0] != rid(1, 0) {
		t.Errorf("FRA posting = %v", post)
	}
}
