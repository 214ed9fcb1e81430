package engine

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/flight"
	"repro/internal/index"
)

// runMixedQueries drives hits (covered keys) and misses (uncovered keys,
// triggering indexing scans) through the table so every monitor has data.
func runMixedQueries(t *testing.T, tb *Table) {
	t.Helper()
	for k := int64(1); k <= 10; k++ {
		if _, _, err := tb.QueryEqual(0, iv(k)); err != nil { // covered: hit
			t.Fatal(err)
		}
	}
	for k := int64(60); k <= 70; k++ {
		if _, _, err := tb.QueryEqual(0, iv(k)); err != nil { // miss: indexing scan
			t.Fatal(err)
		}
	}
}

func TestWriteMetrics(t *testing.T) {
	e, tb := newABC(t, Config{}, 2000, 100)
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 50)); err != nil {
		t.Fatal(err)
	}
	runMixedQueries(t, tb)

	var sb strings.Builder
	if err := e.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# TYPE aib_shared_scan_misses_total counter",
		"aib_shared_scan_misses_total 11",
		"aib_shared_scan_passes_total 11",
		"# TYPE aib_space_entries_used gauge",
		`aib_buffer_entries{buffer="flights.a",tenant=""}`,
		`aib_buffer_benefit{buffer="flights.a",tenant=""}`,
		`aib_queries_total{table="flights",column="a"} 21`,
		`aib_query_hits_total{table="flights",column="a"} 10`,
		"# TYPE aib_query_latency_microseconds summary",
		`aib_query_latency_microseconds{mechanism="hit",quantile="0.5"}`,
		`aib_query_latency_microseconds{mechanism="indexing-scan",quantile="0.99"}`,
		`aib_query_latency_microseconds_count{mechanism="hit"} 10`,
		`aib_query_latency_microseconds_count{mechanism="indexing-scan"} 11`,
		"aib_trace_spans_enabled 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q\n---\n%s", want, out)
		}
	}
}

func TestMetricsLabelEscaping(t *testing.T) {
	if got := escapeLabel("a\\b\"c\nd"); got != `a\\b\"c\nd` {
		t.Errorf("escapeLabel = %q", got)
	}
}

func TestSpansThroughEngine(t *testing.T) {
	e, tb := newABC(t, Config{}, 2000, 100)
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 50)); err != nil {
		t.Fatal(err)
	}
	e.Tracer().EnableSpans(true)
	runMixedQueries(t, tb)

	kinds := make(map[string]int)
	var target string
	for _, s := range e.Tracer().Spans(1 << 20) {
		kinds[s.Kind]++
		if s.Kind == flight.SpanMissAdmit {
			target = s.Target
		}
	}
	if kinds[flight.SpanMissAdmit] != 11 {
		t.Errorf("miss-admit spans = %d, want 11", kinds[flight.SpanMissAdmit])
	}
	if kinds[flight.SpanScanLead] != 11 {
		t.Errorf("scan-lead spans = %d, want 11", kinds[flight.SpanScanLead])
	}
	// Each indexing scan selects at least one page and completes it.
	if kinds[flight.SpanPageSelect] == 0 {
		t.Error("no page-select spans recorded")
	}
	if kinds[flight.SpanPageComplete] == 0 {
		t.Error("no page-complete spans recorded")
	}
	if target != "flights.a" {
		t.Errorf("miss-admit target = %q, want flights.a", target)
	}
	if e.Tracer().SpanCount() == 0 {
		t.Error("SpanCount is zero after recorded spans")
	}
}

// TestSharedScanRecordsFollowers checks that queries riding another
// query's scan land in the shared-follower latency bucket while the
// leader is recorded under its real mechanism.
func TestSharedScanRecordsFollowers(t *testing.T) {
	e, tb := newABC(t, Config{}, 4000, 100)
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 10)); err != nil {
		t.Fatal(err)
	}
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(k int64) {
			defer wg.Done()
			if _, _, err := tb.QueryEqual(0, iv(50+k)); err != nil {
				t.Error(err)
			}
		}(int64(i))
	}
	wg.Wait()

	byMech := make(map[string]int)
	for _, l := range e.Tracer().LatencyStats() {
		byMech[l.Mechanism] = l.Count
	}
	scans := int(e.SharedScanStats().Scans)
	if byMech["indexing-scan"] != scans {
		t.Errorf("indexing-scan latencies = %d, want %d (one per pass)",
			byMech["indexing-scan"], scans)
	}
	if byMech["shared-follower"] != n-scans {
		t.Errorf("shared-follower latencies = %d, want %d",
			byMech["shared-follower"], n-scans)
	}
}

// TestTracerStressWithQueries races real queries against every tracer
// and metrics reader under -race: Aggregates, LatencyStats, Spans,
// EnableSpans and WriteMetrics all run while indexing scans mutate the
// buffers and record events.
func TestTracerStressWithQueries(t *testing.T) {
	e, tb := newABC(t, Config{}, 2000, 200)
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 20)); err != nil {
		t.Fatal(err)
	}
	e.Tracer().EnableSpans(true)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				k := int64(1 + (g*31+i*7)%200)
				if _, _, err := tb.QueryEqual(0, iv(k)); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var sink strings.Builder
			for i := 0; i < 50; i++ {
				switch i % 5 {
				case 0:
					e.Tracer().EnableSpans(g != 0 || i != 25)
				case 1:
					e.Tracer().Aggregates()
				case 2:
					e.Tracer().LatencyStats()
				case 3:
					e.Tracer().Spans(32)
				case 4:
					sink.Reset()
					if err := e.WriteMetrics(&sink); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
