package core

import (
	"math/rand"
	"testing"

	"repro/internal/storage"
)

// BenchmarkBufferLookup measures the Index Buffer scan (Algorithm 1
// lines 8–10) across a partitioned buffer.
func BenchmarkBufferLookup(b *testing.B) {
	s := NewSpace(Config{P: 50})
	counters := make([]int, 1000)
	for i := range counters {
		counters[i] = 20
	}
	buf, err := s.CreateBuffer("t.a", counters)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for p := 0; p < 1000; p++ {
		es := synthEntries(storage.PageID(p), 20, func(int) int64 { return rng.Int63n(50000) })
		if err := buf.ApplyPage(storage.PageID(p), es); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Lookup(storage.Int64Value(rng.Int63n(50000)))
	}
}

// BenchmarkSelectPages measures Algorithm 2 over a large counter array —
// the per-scan page-selection overhead.
func BenchmarkSelectPages(b *testing.B) {
	counters := make([]int, 27000) // the paper's ~27k-page table
	rng := rand.New(rand.NewSource(2))
	for i := range counters {
		counters[i] = 1 + rng.Intn(18)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := NewSpace(Config{IMax: 5000, P: 10000})
		buf, err := s.CreateBuffer("t.a", counters)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		s.SelectPagesForBuffer(buf, len(counters))
	}
}

// BenchmarkBenefit measures the buffer benefit computation that victim
// selection runs per candidate.
func BenchmarkBenefit(b *testing.B) {
	s := NewSpace(Config{P: 10})
	counters := make([]int, 2000)
	for i := range counters {
		counters[i] = 1
	}
	buf, err := s.CreateBuffer("t.a", counters)
	if err != nil {
		b.Fatal(err)
	}
	for p := 0; p < 2000; p++ {
		_ = buf.ApplyPage(storage.PageID(p), nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = buf.Benefit()
	}
}
