package trace

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/flight"
)

func stats(hit, full bool, pages, skipped, matches int) exec.QueryStats {
	return exec.QueryStats{
		PartialHit:   hit,
		FullScan:     full,
		PagesRead:    pages,
		PagesSkipped: skipped,
		Matches:      matches,
		Duration:     3 * time.Millisecond,
	}
}

// record ingests st on table.column's handle under the mechanism the
// engine would derive for it.
func record(tr *Tracer, table, column string, follower bool, st exec.QueryStats) {
	tr.Record(tr.Column(table, column), flight.Mechanism(st.EmptyRange, st.PartialHit, follower, st.FullScan, st.QuotaDegraded), st)
}

func TestRecordAndAggregates(t *testing.T) {
	tr := New()
	record(tr, "t", "a", false, stats(true, false, 5, 0, 2))
	record(tr, "t", "a", false, stats(false, false, 10, 90, 1))
	record(tr, "t", "b", false, stats(false, true, 100, 0, 0))

	aggs := tr.Aggregates()
	if len(aggs) != 2 {
		t.Fatalf("aggregates = %d", len(aggs))
	}
	a := aggs[0]
	if a.Column != "a" || a.Queries != 2 || a.Hits != 1 {
		t.Errorf("agg a = %+v", a)
	}
	if a.HitRate() != 0.5 {
		t.Errorf("hit rate = %v", a.HitRate())
	}
	if a.MeanPages() != 7.5 {
		t.Errorf("mean pages = %v", a.MeanPages())
	}
	if got := a.SkipShare(); got < 0.85 || got > 0.87 { // 90/(15+90)
		t.Errorf("skip share = %v", got)
	}
	b := aggs[1]
	if b.Column != "b" || b.HitRate() != 0 || b.SkipShare() != 0 {
		t.Errorf("agg b = %+v", b)
	}
}

func TestZeroQueryAggregates(t *testing.T) {
	var a Aggregate
	if a.HitRate() != 0 || a.MeanPages() != 0 || a.SkipShare() != 0 {
		t.Error("zero aggregate should report zeros")
	}
}

func TestReportAndReset(t *testing.T) {
	tr := New()
	if tr.Report() != "no queries recorded" {
		t.Errorf("empty report = %q", tr.Report())
	}
	record(tr, "flights", "airport", false, stats(true, false, 3, 0, 1))
	rep := tr.Report()
	if !strings.Contains(rep, "flights.airport") || !strings.Contains(rep, "100.0%") {
		t.Errorf("report = %q", rep)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				record(tr, "t", "a", false, stats(i%2 == 0, false, 1, 1, 0))
				_ = tr.Aggregates()
			}
		}()
	}
	wg.Wait()
	aggs := tr.Aggregates()
	if len(aggs) != 1 || aggs[0].Queries != 1600 {
		t.Errorf("aggs = %+v", aggs)
	}
}

// TestTracerStress hammers every tracer entry point — recording on new
// and existing columns beside every reader — from parallel goroutines;
// under -race this is the monitor-correctness stress test CI runs.
func TestTracerStress(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				switch i % 5 {
				case 0:
					record(tr, "t", "a", false, stats(i%2 == 0, false, 2, 1, 1))
				case 1:
					record(tr, "t", fmt.Sprint(g), true, stats(false, false, 2, 1, 1))
				case 2:
					_ = tr.Aggregates()
				case 3:
					_ = tr.LatencyStats()
				case 4:
					_ = tr.Report()
				}
			}
		}(g)
	}
	wg.Wait()
	aggs := tr.Aggregates()
	if len(aggs) != 9 || aggs[8].Column != "a" || aggs[8].Queries != 8*60 {
		t.Errorf("aggregates after stress = %+v", aggs)
	}
}

// TestReportMeanMicros covers the µs/query column: WallMicros was
// historically accumulated into the aggregate but never surfaced.
func TestReportMeanMicros(t *testing.T) {
	tr := New()
	record(tr, "t", "a", false, stats(true, false, 1, 0, 0)) // 3ms each
	record(tr, "t", "a", false, stats(true, false, 1, 0, 0))
	a := tr.Aggregates()[0]
	if got := a.MeanWallMicros(); got != 3000 {
		t.Errorf("MeanWallMicros = %v, want 3000", got)
	}
	rep := tr.Report()
	if !strings.Contains(rep, "µs/query") {
		t.Errorf("report missing µs/query header: %q", rep)
	}
	if !strings.Contains(rep, "3000.0") {
		t.Errorf("report missing mean latency value: %q", rep)
	}
}

func TestLatencyStatsPerMechanism(t *testing.T) {
	tr := New()
	record(tr, "t", "a", false, stats(true, false, 1, 0, 0))  // hit
	record(tr, "t", "a", false, stats(false, false, 5, 0, 0)) // indexing-scan
	record(tr, "t", "b", false, stats(false, true, 9, 0, 0))  // full-scan
	record(tr, "t", "a", true, stats(false, false, 5, 0, 0))
	record(tr, "t", "a", true, stats(true, false, 1, 0, 0)) // follower served as hit

	ls := tr.LatencyStats()
	got := map[string]int{}
	for _, l := range ls {
		got[l.Mechanism] = l.Count
		if l.Count > 0 && l.P50 != 3000 {
			t.Errorf("%s p50 = %v, want 3000", l.Mechanism, l.P50)
		}
	}
	want := map[string]int{"hit": 2, "indexing-scan": 1, "full-scan": 1, "shared-follower": 1}
	for m, n := range want {
		if got[m] != n {
			t.Errorf("mechanism %q count = %d, want %d (all: %v)", m, got[m], n, got)
		}
	}
}

// BenchmarkTracerRecord measures the always-on path every query takes:
// one Record through a resolved handle, from every GOMAXPROCS
// goroutine at once (run it at -cpu 1,2 to see contention).
func BenchmarkTracerRecord(b *testing.B) {
	tr := New()
	c := tr.Column("t", "a")
	st := stats(true, false, 3, 0, 1)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tr.Record(c, "hit", st)
		}
	})
}

// TestRecordZeroAlloc pins the always-on contract: Record through a
// handle allocates nothing.
func TestRecordZeroAlloc(t *testing.T) {
	tr := New()
	c := tr.Column("t", "a")
	st := stats(true, false, 3, 0, 1)
	if avg := testing.AllocsPerRun(200, func() { tr.Record(c, "hit", st) }); avg != 0 {
		t.Errorf("Record allocates %v per call, want 0", avg)
	}
}

// TestColumnHandleShared checks that registering a pair twice yields
// one handle, so every table built over the name feeds one aggregate;
// that a registered column with no queries is not reported; and that
// Aggregates sorts by table then column whatever the registration
// order.
func TestColumnHandleShared(t *testing.T) {
	tr := New()
	c := tr.Column("t", "b")
	if tr.Column("t", "b") != c || tr.Column("t", "a") == c {
		t.Fatal("Column does not return one handle per (table, column)")
	}
	if aggs := tr.Aggregates(); len(aggs) != 0 {
		t.Errorf("columns without queries reported: %+v", aggs)
	}
	if ls := tr.LatencyStats(); len(ls) != 0 {
		t.Errorf("mechanisms without queries reported: %+v", ls)
	}
	for _, k := range [][2]string{{"t", "b"}, {"s", "z"}, {"t", "a"}, {"t", "b"}} {
		record(tr, k[0], k[1], false, stats(true, false, 1, 0, 1))
	}
	var got []string
	for _, a := range tr.Aggregates() {
		got = append(got, fmt.Sprintf("%s.%s=%d", a.Table, a.Column, a.Queries))
	}
	if want := "s.z=1 t.a=1 t.b=2"; strings.Join(got, " ") != want {
		t.Errorf("aggregates = %v, want %s", got, want)
	}
}

// TestAggregatesNeverShowMoreHitsThanQueries races hit-only recorders
// against snapshot readers: Record bumps Queries before Hits and
// Aggregates loads Hits first, so every snapshot has Hits <= Queries.
func TestAggregatesNeverShowMoreHitsThanQueries(t *testing.T) {
	tr := New()
	c := tr.Column("t", "a")
	st := stats(true, false, 1, 0, 1)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					tr.Record(c, "hit", st)
				}
			}
		}()
	}
	for i := 0; i < 20000; i++ {
		for _, a := range tr.Aggregates() {
			if a.Hits > a.Queries {
				close(stop)
				wg.Wait()
				t.Fatalf("snapshot %d: hits %d > queries %d", i, a.Hits, a.Queries)
			}
		}
	}
	close(stop)
	wg.Wait()
}
