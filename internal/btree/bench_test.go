package btree

import (
	"math/rand"
	"testing"

	"repro/internal/storage"
)

// benchTree builds a tree with n random keys for lookup benchmarks.
func benchTree(n int) (*Tree, []storage.Value) {
	tr := NewDefault()
	rng := rand.New(rand.NewSource(1))
	keys := make([]storage.Value, n)
	for i := 0; i < n; i++ {
		k := storage.Int64Value(rng.Int63n(int64(n) * 4))
		keys[i] = k
		tr.Insert(k, storage.RID{Page: storage.PageID(i), Slot: 0})
	}
	return tr, keys
}

func BenchmarkInsert(b *testing.B) {
	tr := NewDefault()
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(storage.Int64Value(rng.Int63n(1<<30)), storage.RID{Page: storage.PageID(i), Slot: 0})
	}
}

func BenchmarkLookup(b *testing.B) {
	tr, keys := benchTree(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(keys[i%len(keys)])
	}
}

func BenchmarkDelete(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	b.StopTimer()
	for i := 0; i < b.N; i += 100000 {
		tr := NewDefault()
		n := 100000
		if b.N-i < n {
			n = b.N - i
		}
		rids := make([]storage.RID, n)
		keys := make([]storage.Value, n)
		for j := 0; j < n; j++ {
			keys[j] = storage.Int64Value(rng.Int63n(1 << 30))
			rids[j] = storage.RID{Page: storage.PageID(j), Slot: 0}
			tr.Insert(keys[j], rids[j])
		}
		b.StartTimer()
		for j := 0; j < n; j++ {
			tr.Delete(keys[j], rids[j])
		}
		b.StopTimer()
	}
}

func BenchmarkAscendRange(b *testing.B) {
	tr, _ := benchTree(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := storage.Int64Value(int64(i % 100000))
		hi := storage.Int64Value(int64(i%100000) + 1000)
		count := 0
		tr.AscendRange(lo, hi, func(storage.Value, []storage.RID) bool {
			count++
			return true
		})
	}
}

// BenchmarkCloneInsert measures one partial-index write: clone the
// published tree, insert into the clone and publish it, on a tree of
// 100,000 keys.
func BenchmarkCloneInsert(b *testing.B) {
	tr, _ := benchTree(100000)
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr = tr.Clone()
		tr.Insert(storage.Int64Value(rng.Int63n(1<<30)), storage.RID{Page: storage.PageID(i), Slot: 1})
	}
}
