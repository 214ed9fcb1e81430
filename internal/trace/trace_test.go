package trace

import (
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

// record ingests st under the mechanism the engine would derive for it.
func record(tr *Tracer, table, column string, follower bool, st exec.QueryStats) {
	tr.Record(table, column, flight.Mechanism(st.EmptyRange, st.PartialHit, follower, st.FullScan, st.QuotaDegraded), st)
}

func TestRecordAndAggregates(t *testing.T) {
	tr := New(16)
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
	tr := New(8)
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
	tr := New(64)
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

// TestTracerStress hammers every tracer entry point — including the
// span ring — from parallel goroutines; under -race this is the
// monitor-correctness stress test CI runs.
func TestTracerStress(t *testing.T) {
	tr := New(32)
	tr.EnableSpans(true)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				switch i % 6 {
				case 0:
					record(tr, "t", "a", false, stats(i%2 == 0, false, 2, 1, 1))
				case 1:
					record(tr, "t", "a", true, stats(false, false, 2, 1, 1))
				case 2:
					tr.SpanTraced(flight.SpanMissAdmit, "t.a", -1, 0, "")
					_ = tr.Spans(10)
				case 3:
					_ = tr.Aggregates()
					_ = tr.SpanCount()
				case 4:
					_ = tr.LatencyStats()
					_ = tr.Report()
				case 5:
					tr.EnableSpans(g != 0 || i%12 != 5)
				}
			}
		}(g)
	}
	wg.Wait()
	// Sequence numbers stay monotonic under concurrent emitters.
	spans := tr.Spans(32)
	for i := 1; i < len(spans); i++ {
		if spans[i-1].Seq <= spans[i].Seq {
			t.Fatalf("spans not newest-first monotonic: %d then %d", spans[i-1].Seq, spans[i].Seq)
		}
	}
}

// TestReportMeanMicros covers the µs/query column: WallMicros was
// historically accumulated into the aggregate but never surfaced.
func TestReportMeanMicros(t *testing.T) {
	tr := New(8)
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
	tr := New(8)
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

func TestSpansDisabledByDefault(t *testing.T) {
	tr := New(8)
	tr.SpanTraced(flight.SpanMissAdmit, "t.a", -1, 0, "")
	if got := tr.Spans(10); len(got) != 0 {
		t.Errorf("spans recorded while disabled: %v", got)
	}
	if tr.SpansEnabled() {
		t.Error("spans enabled by default")
	}
	if tr.SpanCount() != 0 {
		t.Errorf("SpanCount = %d while disabled", tr.SpanCount())
	}
}

func TestSpanRingOrderAndWrap(t *testing.T) {
	tr := New(3)
	tr.EnableSpans(true)
	for i := 1; i <= 5; i++ {
		tr.SpanTraced(flight.SpanPageComplete, "t.a", i, i*10, "")
	}
	got := tr.Spans(10)
	if len(got) != 3 {
		t.Fatalf("spans = %d, want 3", len(got))
	}
	// Newest first: pages 5, 4, 3 with seq 5, 4, 3.
	for i, want := range []int{5, 4, 3} {
		if got[i].Page != want || got[i].Seq != uint64(want) || got[i].N != want*10 {
			t.Errorf("spans[%d] = %+v, want page/seq %d", i, got[i], want)
		}
		if got[i].Kind != flight.SpanPageComplete || got[i].Target != "t.a" {
			t.Errorf("spans[%d] = %+v", i, got[i])
		}
	}
	if tr.SpanCount() != 5 {
		t.Errorf("SpanCount = %d, want 5", tr.SpanCount())
	}
	// The returned sequence number is the one the ring holds.
	if seq := tr.SpanTraced(flight.SpanMissAdmit, "t.a", -1, 0, ""); seq != 6 || tr.Spans(1)[0].Seq != 6 {
		t.Errorf("SpanTraced returned seq %d, ring holds %+v, want 6", seq, tr.Spans(1))
	}
}

// TestSpanDisabledZeroAlloc pins the overhead contract: with spans
// disabled, SpanTraced is one atomic load and allocates nothing.
func TestSpanDisabledZeroAlloc(t *testing.T) {
	tr := New(8)
	if avg := testing.AllocsPerRun(200, func() {
		tr.SpanTraced(flight.SpanPageSelect, "t.a", -1, 12, "")
	}); avg != 0 {
		t.Errorf("disabled SpanTraced allocates %v per call, want 0", avg)
	}
}

func BenchmarkSpanDisabled(b *testing.B) {
	tr := New(512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.SpanTraced(flight.SpanMissAdmit, "t.a", -1, 0, "")
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	tr := New(512)
	tr.EnableSpans(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.SpanTraced(flight.SpanMissAdmit, "t.a", -1, 0, "")
	}
}

func BenchmarkRecord(b *testing.B) {
	tr := New(512)
	st := stats(true, false, 3, 0, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		record(tr, "t", "a", false, st)
	}
}

func TestCapacityClamp(t *testing.T) {
	tr := New(0)
	tr.EnableSpans(true)
	tr.SpanTraced(flight.SpanMissAdmit, "t.a", -1, 0, "")
	tr.SpanTraced(flight.SpanScanLead, "t.a", -1, 1, "")
	if got := tr.Spans(5); len(got) != 1 || got[0].Kind != flight.SpanScanLead {
		t.Errorf("spans = %+v, want only the newest", got)
	}
}

// TestRecentSpansClampBoundaries pins the span ring reader's clamp at
// every boundary: negative, zero, partial, exact, and oversized n.
// (Negative n once panicked on the negative make cap.)
func TestRecentSpansClampBoundaries(t *testing.T) {
	const capacity, recorded = 4, 3
	tr := New(capacity)
	tr.EnableSpans(true)
	for i := 0; i < recorded; i++ {
		tr.SpanTraced(flight.SpanMissAdmit, "t.a", -1, 0, "")
	}
	cases := []struct {
		name string
		n    int
		want int
	}{
		{"negative", -1, 0},
		{"very negative", -1 << 30, 0},
		{"zero", 0, 0},
		{"partial", 2, 2},
		{"exact", recorded, recorded},
		{"over filled", recorded + 1, recorded},
		{"over capacity", capacity + 100, recorded},
		{"huge", 1 << 30, recorded},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := len(tr.Spans(tc.n)); got != tc.want {
				t.Errorf("Spans(%d) = %d spans, want %d", tc.n, got, tc.want)
			}
		})
	}
}

// TestSpanSink covers the telemetry tap: the sink sees every span after
// it enters the ring, respects the span gate, and detaches cleanly.
func TestSpanSink(t *testing.T) {
	tr := New(8)
	var mu sync.Mutex
	var got []flight.Span
	tr.SetSpanSink(func(sp flight.Span) {
		mu.Lock()
		got = append(got, sp)
		mu.Unlock()
	})

	// Gate closed: sink sees nothing.
	tr.SpanTraced(flight.SpanDisplace, "t.a", 3, 2, "")
	if len(got) != 0 {
		t.Fatalf("sink fired while spans disabled: %+v", got)
	}

	tr.EnableSpans(true)
	tr.SpanTraced(flight.SpanDisplace, "t.a", 3, 2, "tr-1")
	tr.SpanTraced(flight.SpanPageComplete, "t.a", 4, 7, "")
	if len(got) != 2 {
		t.Fatalf("sink saw %d spans, want 2", len(got))
	}
	if got[0].Kind != flight.SpanDisplace || got[0].Page != 3 || got[0].N != 2 || got[0].Trace != "tr-1" {
		t.Errorf("first sunk span = %+v", got[0])
	}
	if got[1].Seq != got[0].Seq+1 {
		t.Errorf("sink spans out of sequence: %d then %d", got[0].Seq, got[1].Seq)
	}

	tr.SetSpanSink(nil)
	tr.SpanTraced(flight.SpanMissAdmit, "t.a", -1, 0, "")
	if len(got) != 2 {
		t.Errorf("sink fired after detach: %d spans", len(got))
	}
	if tr.SpanCount() != 3 {
		t.Errorf("ring recording disturbed by sink lifecycle: %d spans", tr.SpanCount())
	}
}
