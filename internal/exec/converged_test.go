package exec

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
)

// This file holds the cost guard and the layer microbenchmarks of the
// miss path. A converged miss — the paper's steady state, every
// C[p] == 0 — reads no table page: the buffer answers it, so it must
// cost what its matches cost, not what the table's size costs. An
// indexing miss reads every page it cannot skip and indexes the pages of
// I. A covered hit with as many matches on the same table is the yardstick
// the converged miss is compared against.

const (
	hitKey  = 3 // covered by the fixtures' partial index [0, 4]
	missKey = 8 // uncovered
	keyRows = 4 // rows holding each of hitKey and missKey
)

// sizedFixture builds a table of about `pages` pages (buildTableKeys
// fits eleven rows a page) under the standard partial index and a buffer
// configured by cfg. hitKey and missKey each sit on keyRows rows spread
// evenly over the table; every other row draws from the remaining keys.
func sizedFixture(tb testing.TB, pages int, cfg core.Config) Access {
	tb.Helper()
	rows := 11 * pages
	others := []int64{0, 1, 2, 4, 5, 6, 7, 9}
	keys := make([]int64, rows)
	for i := range keys {
		keys[i] = others[i%len(others)]
	}
	for k := 0; k < keyRows; k++ {
		at := (2*k + 1) * rows / (2 * keyRows)
		keys[at], keys[at+1] = missKey, hitKey
	}
	t, _ := buildTableKeys(tb, keys)
	return spaceFixture(tb, t, cfg)
}

// convergedFixture is sizedFixture after one miss has indexed every
// page, so each C[p] is 0.
func convergedFixture(tb testing.TB, pages int) Access {
	tb.Helper()
	a := sizedFixture(tb, pages, core.Config{IMax: 1 << 20, P: 100})
	if o := ExecuteShared(a, pointQuery(missKey))[0]; o.Err != nil {
		tb.Fatal(o.Err)
	}
	if zero, total := a.Buffer.Skippable(); zero != total {
		tb.Fatalf("%d of %d pages skippable after the converging miss", zero, total)
	}
	return a
}

func pointQuery(k int64) []SharedQuery { return []SharedQuery{{Lo: iv(k), Hi: iv(k)}} }

// TestConvergedMissCostIndependentOfTableSize converges a buffer over a
// 64-page and a 4,096-page table and asserts that a converged miss reads
// only the pages its matches live on, runs no worker goroutine, and
// allocates as many objects at both sizes: nothing in the pass may be
// sized by the table.
func TestConvergedMissCostIndependentOfTableSize(t *testing.T) {
	var allocs []float64
	for _, pages := range []int{64, 4096} {
		a := convergedFixture(t, pages)
		a.Parallelism = 4
		o := ExecuteShared(a, pointQuery(missKey))[0]
		matchPages := map[storage.PageID]bool{}
		for _, m := range o.Matches {
			matchPages[m.RID.Page] = true
		}
		st := o.Stats
		if o.Err != nil || len(o.Matches) != keyRows || st.BufferMatches != keyRows {
			t.Fatalf("%d pages: %d matches (%d from the buffer), err %v; want %d", pages, len(o.Matches), st.BufferMatches, o.Err, keyRows)
		}
		if n := a.Table.NumPages(); st.PagesSkipped != n || st.PagesRead != len(matchPages) || st.ScanWorkers != 1 {
			t.Errorf("%d pages: skipped %d of %d, read %d (matches on %d), %d workers; want all skipped, only match pages read, 1 worker",
				pages, st.PagesSkipped, n, st.PagesRead, len(matchPages), st.ScanWorkers)
		}
		allocs = append(allocs, testing.AllocsPerRun(50, func() { ExecuteShared(a, pointQuery(missKey)) }))
	}
	t.Logf("converged miss: %.0f allocs at 64 pages, %.0f at 4096", allocs[0], allocs[1])
	if d := allocs[1] - allocs[0]; d < -2 || d > 2 {
		t.Errorf("a converged miss allocates %.0f objects at 64 pages and %.0f at 4096: its cost grows with the table", allocs[0], allocs[1])
	}
}

// BenchmarkConvergedMiss times a converged point miss beside a covered
// point hit with as many matches on the same table, at two table sizes.
// The miss should cost a small multiple of the hit at either size.
func BenchmarkConvergedMiss(b *testing.B) {
	for _, pages := range []int{64, 4096} {
		a := convergedFixture(b, pages)
		for _, c := range []struct {
			name string
			key  int64
		}{{"miss", missKey}, {"hit", hitKey}} {
			q := pointQuery(c.key)
			b.Run(fmt.Sprintf("pages=%d/%s", pages, c.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if o := ExecuteShared(a, q)[0]; o.Err != nil || len(o.Matches) != keyRows {
						b.Fatalf("%d matches, err %v", len(o.Matches), o.Err)
					}
				}
			})
		}
	}
}

// BenchmarkIndexingMiss times a point miss on a cold buffer at two table
// sizes: it reads every page and indexes the 64 cheapest (I^MAX). The
// buffer is reset between iterations, off the clock.
func BenchmarkIndexingMiss(b *testing.B) {
	for _, pages := range []int{64, 4096} {
		a := sizedFixture(b, pages, core.Config{IMax: 64, P: 100})
		q := pointQuery(missKey)
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a.Buffer.Reset()
				b.StartTimer()
				if o := ExecuteShared(a, q)[0]; o.Err != nil || o.Stats.PagesSelected != 64 {
					b.Fatalf("selected %d pages, err %v", o.Stats.PagesSelected, o.Err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*a.Table.NumPages()), "ns/page")
		})
	}
}
