package engine

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/index"
	"repro/internal/storage"
	"repro/internal/timeline"
)

// TestTimelineThroughEngine drives the paper's mixed workload and checks
// the timeline subsystem end to end: query-boundary samples accumulate,
// coverage ramps as indexing scans complete pages, the mechanism mix
// matches the workload, and the convergence detector issues a verdict.
func TestTimelineThroughEngine(t *testing.T) {
	e, tb := newABC(t, Config{}, 2000, 100)
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 50)); err != nil {
		t.Fatal(err)
	}
	e.Timeline().Enable(true)
	runMixedQueries(t, tb)

	all := e.Timeline().Series()
	if len(all) != 1 {
		t.Fatalf("series = %d, want 1", len(all))
	}
	s := all[0]
	if s.Buffer != "flights.a" || s.Table != "flights" || s.Column != "a" {
		t.Fatalf("series identity = %+v", s)
	}
	if len(s.Samples) < 21 {
		t.Fatalf("samples = %d, want >= 21 (one per query)", len(s.Samples))
	}
	last := s.Samples[len(s.Samples)-1]
	if last.Hits != 10 {
		t.Errorf("hits = %d, want 10", last.Hits)
	}
	if last.IndexingScans != 11 {
		t.Errorf("indexing scans = %d, want 11", last.IndexingScans)
	}
	// The miss range [60, 70] is repeatedly scanned, so coverage must
	// grow from the first miss sample to the last.
	first := s.Samples[0]
	if last.Coverage <= first.Coverage {
		t.Errorf("coverage did not grow: %g -> %g", first.Coverage, last.Coverage)
	}
	if last.TotalPages == 0 || last.Entries == 0 || last.Bytes == 0 {
		t.Errorf("occupancy not sampled: %+v", last)
	}

	convs := e.Convergence()
	if len(convs) != 1 {
		t.Fatalf("convergence verdicts = %d, want 1", len(convs))
	}
	c := convs[0]
	if c.Buffer != "flights.a" || c.Queries != 21 {
		t.Errorf("verdict = %+v", c)
	}
	if c.MaxCoverage != last.Coverage {
		t.Errorf("max coverage %g != last coverage %g (monotone workload)", c.MaxCoverage, last.Coverage)
	}
}

// TestTimelineDisabledByDefaultInEngine pins the opt-in contract: a
// fresh engine answers queries without taking a single sample.
func TestTimelineDisabledByDefaultInEngine(t *testing.T) {
	e, tb := newABC(t, Config{}, 500, 50)
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 20)); err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= 30; k++ {
		if _, _, err := tb.QueryEqual(0, iv(k)); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.Timeline().SampleCount(); n != 0 {
		t.Errorf("disabled timeline took %d samples", n)
	}
	if len(e.Convergence()) != 0 {
		t.Error("disabled timeline produced convergence verdicts")
	}
}

// TestTimelineDisplacementResample forces displacement with a tight
// space limit across two indexed columns and checks that the victim
// buffer's churn reaches its series — including the event-driven
// resample taken at the next query boundary.
func TestTimelineDisplacementResample(t *testing.T) {
	cfg := Config{Space: core.Config{
		IMax: 20, P: 5, K: 2, SpaceLimit: 400,
		Seed: 3,
	}}
	e, tb := newABC(t, cfg, 1500, 60)
	for col, hi := range map[int]int64{0: 20, 1: 30} {
		if err := tb.CreatePartialIndex(col, index.IntRange(1, hi)); err != nil {
			t.Fatal(err)
		}
	}
	e.Timeline().Enable(true)

	// Alternate misses on both columns so each column's scans displace
	// the other's partitions once the 400-entry limit binds.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 120; i++ {
		col := i % 2
		if _, _, err := tb.QueryEqual(col, iv(35+rng.Int63n(25))); err != nil {
			t.Fatal(err)
		}
	}
	if dropped := e.Space().Stats().PartitionsDropped; dropped == 0 {
		t.Fatal("workload produced no displacement; test premise broken")
	}

	var displacements uint64
	resamples := 0
	for _, s := range e.Timeline().Series() {
		for _, sm := range s.Samples {
			if sm.Event == timeline.EventResample {
				resamples++
			}
		}
		if n := len(s.Samples); n > 0 {
			displacements += s.Samples[n-1].Displacements
		}
	}
	if displacements == 0 {
		t.Error("displacement churn never reached the timeline")
	}
	if resamples == 0 {
		t.Error("no resample events despite displacement")
	}
}

// TestTimelineShiftingWorkloadReset reproduces the shifting-workload
// false positive: a column converges, the workload shifts and the
// partial index is redefined for the new range (dropping the buffer),
// and the detector must open a fresh episode — not keep reporting the
// dead buffer's "converged" verdict with a regression flag. The second
// convergence then gets its own crossing ordinal.
func TestTimelineShiftingWorkloadReset(t *testing.T) {
	e, tb := newABC(t, Config{}, 1200, 120)
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 30)); err != nil {
		t.Fatal(err)
	}
	e.Timeline().Enable(true)

	// Phase 1: misses in [31, 60]; the default I^MAX covers the whole
	// table, so the first indexing scan converges the buffer.
	for k := int64(31); k <= 40; k++ {
		if _, _, err := tb.QueryEqual(0, iv(k)); err != nil {
			t.Fatal(err)
		}
	}
	c := e.Convergence()[0]
	if !c.Achieved || c.Resets != 0 {
		t.Fatalf("phase 1 did not converge: %+v", c)
	}
	firstCrossing := c.QueriesToTarget

	// The workload shifts: redefine the index for the new hot range.
	// RedefineIndex drops and recreates the buffer from scratch.
	if err := tb.RedefineIndex(0, index.IntRange(61, 90)); err != nil {
		t.Fatal(err)
	}
	c = e.Convergence()[0]
	if c.Achieved || c.Regressed {
		t.Fatalf("stale converged verdict survived the shift: %+v", c)
	}
	if c.Resets != 1 {
		t.Errorf("Resets = %d, want 1", c.Resets)
	}

	// Phase 2: misses in [91, 120] re-converge the fresh buffer; the
	// new crossing ordinal must postdate the first episode's.
	for k := int64(91); k <= 100; k++ {
		if _, _, err := tb.QueryEqual(0, iv(k)); err != nil {
			t.Fatal(err)
		}
	}
	c = e.Convergence()[0]
	if !c.Achieved {
		t.Fatalf("phase 2 did not re-converge: %+v", c)
	}
	if c.QueriesToTarget <= firstCrossing {
		t.Errorf("second crossing at query %d, not after the first (%d)", c.QueriesToTarget, firstCrossing)
	}
	if c.Regressed {
		t.Errorf("re-converged column still flagged regressed: %+v", c)
	}
}

// TestMetricsTimelineFamilies checks the new exposition families are
// present and coherent once the timeline has data.
func TestMetricsTimelineFamilies(t *testing.T) {
	e, tb := newABC(t, Config{}, 2000, 100)
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 50)); err != nil {
		t.Fatal(err)
	}
	e.Timeline().Enable(true)
	runMixedQueries(t, tb)

	var sb strings.Builder
	if err := e.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`aib_buffer_bytes{buffer="flights.a",tenant=""}`,
		`aib_coverage_ratio{buffer="flights.a",tenant=""}`,
		`aib_convergence_achieved{buffer="flights.a",target="0.95"}`,
		"aib_timeline_enabled 1",
		"# TYPE aib_timeline_samples_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if strings.Contains(out, "aib_timeline_samples_total 0\n") {
		t.Error("sample counter still zero after sampled queries")
	}
}

// Prometheus text exposition v0.0.4 line shapes for the lint below.
var (
	helpRe   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) (.+)$`)
	typeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|summary|histogram|untyped)$`)
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (\S+)$`)
	labelRe  = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\\\|\\"|\\n)*)"$`)
)

// lintExposition is a strict structural parser for WriteMetrics output:
// every sample must follow a HELP+TYPE preamble for its family, no
// family may be declared twice, samples of one family must be
// contiguous, label syntax must be valid, and values must parse.
// Summary families also own their _sum and _count series.
func lintExposition(t *testing.T, out string) {
	t.Helper()
	declared := map[string]string{} // family -> type
	helped := map[string]bool{}
	current := "" // family whose sample block we are inside
	for i, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		lineNo := i + 1
		switch {
		case strings.HasPrefix(line, "# HELP "):
			mm := helpRe.FindStringSubmatch(line)
			if mm == nil {
				t.Fatalf("line %d: malformed HELP: %q", lineNo, line)
			}
			if helped[mm[1]] {
				t.Errorf("line %d: duplicate HELP for family %s", lineNo, mm[1])
			}
			helped[mm[1]] = true
		case strings.HasPrefix(line, "# TYPE "):
			mm := typeRe.FindStringSubmatch(line)
			if mm == nil {
				t.Fatalf("line %d: malformed TYPE: %q", lineNo, line)
			}
			fam := mm[1]
			if _, dup := declared[fam]; dup {
				t.Errorf("line %d: duplicate TYPE for family %s", lineNo, fam)
			}
			if !helped[fam] {
				t.Errorf("line %d: TYPE for %s without preceding HELP", lineNo, fam)
			}
			declared[fam] = mm[2]
			current = fam
		case strings.HasPrefix(line, "#"):
			t.Errorf("line %d: unexpected comment %q", lineNo, line)
		default:
			mm := sampleRe.FindStringSubmatch(line)
			if mm == nil {
				t.Fatalf("line %d: malformed sample: %q", lineNo, line)
			}
			name, labels, value := mm[1], mm[3], mm[4]
			fam := name
			if typ, ok := declared[fam]; !ok || typ == "summary" {
				// _sum/_count belong to the summary family that declared
				// them; a bare unknown name is an undeclared family.
				for _, suffix := range []string{"_sum", "_count"} {
					base := strings.TrimSuffix(name, suffix)
					if base != name && declared[base] == "summary" {
						fam = base
						break
					}
				}
			}
			if _, ok := declared[fam]; !ok {
				t.Errorf("line %d: sample %s has no TYPE declaration", lineNo, name)
				continue
			}
			if fam != current {
				t.Errorf("line %d: sample of family %s outside its contiguous block (current %s)", lineNo, fam, current)
			}
			if labels != "" {
				for _, pair := range splitLabels(labels) {
					if !labelRe.MatchString(pair) {
						t.Errorf("line %d: bad label syntax %q", lineNo, pair)
					}
				}
			}
			if _, err := strconv.ParseFloat(value, 64); err != nil {
				t.Errorf("line %d: unparseable value %q: %v", lineNo, value, err)
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("exposition declared no families at all")
	}
}

// splitLabels splits a label block on commas that are outside quoted
// values (label values may contain escaped quotes, never raw commas in
// our writer, but the splitter stays escape-aware regardless).
func splitLabels(s string) []string {
	var out []string
	var cur strings.Builder
	inQuotes, escaped := false, false
	for _, r := range s {
		switch {
		case escaped:
			escaped = false
			cur.WriteRune(r)
		case r == '\\':
			escaped = true
			cur.WriteRune(r)
		case r == '"':
			inQuotes = !inQuotes
			cur.WriteRune(r)
		case r == ',' && !inQuotes:
			out = append(out, cur.String())
			cur.Reset()
		default:
			cur.WriteRune(r)
		}
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

// TestMetricsExpositionLint runs the strict parser over a fully loaded
// exposition — every monitor populated, spans and timeline on, and a
// table name exercising every escapeLabel case.
func TestMetricsExpositionLint(t *testing.T) {
	e, tb := newABC(t, Config{}, 2000, 100)
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 50)); err != nil {
		t.Fatal(err)
	}
	// A second table whose name needs escaping in every label position.
	nasty, err := e.CreateTable("we\"ird\\ta\nble", tb.schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := nasty.CreatePartialIndex(1, index.IntRange(1, 10)); err != nil {
		t.Fatal(err)
	}
	e.SetTelemetrySink(timeline.NewSink(io.Discard)) // spans streamed, timeline on
	runMixedQueries(t, tb)
	if _, _, err := nasty.QueryEqual(1, iv(5)); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := e.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lintExposition(t, out)
	if !strings.Contains(out, `table="we\"ird\\ta\nble"`) {
		t.Error("escaped table name missing from exposition")
	}
}

// TestTelemetrySinkThroughEngine checks SetTelemetrySink end to end:
// samples and spans stream as decodable JSONL, and detaching stops the
// stream without disabling recording.
func TestTelemetrySinkThroughEngine(t *testing.T) {
	e, tb := newABC(t, Config{}, 2000, 100)
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 50)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	sink := timeline.NewSink(&out)
	e.SetTelemetrySink(sink)
	if !e.Timeline().Enabled() {
		t.Fatal("SetTelemetrySink did not enable the timeline")
	}
	runMixedQueries(t, tb)

	st := sink.Stats()
	if st.Errors != 0 || st.Lines == 0 {
		t.Fatalf("sink stats = %+v", st)
	}
	samples, spans := 0, 0
	n, err := timeline.ScanRecords(bytes.NewReader(out.Bytes()),
		func(rec timeline.SampleRecord) error {
			if rec.Buffer == "" {
				return fmt.Errorf("sample without buffer: %+v", rec)
			}
			samples++
			return nil
		},
		func(sp flight.Span) error {
			if sp.Kind == "" {
				return fmt.Errorf("span without kind: %+v", sp)
			}
			spans++
			return nil
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(n) != st.Lines {
		t.Errorf("decoded %d records, sink wrote %d", n, st.Lines)
	}
	if samples < 21 || spans == 0 {
		t.Errorf("decoded %d samples, %d spans", samples, spans)
	}

	// Detach: recording continues, stream does not.
	e.SetTelemetrySink(nil)
	lines := st.Lines
	runMixedQueries(t, tb)
	if sink.Stats().Lines != lines {
		t.Error("sink still receiving after detach")
	}
	if !e.Timeline().Enabled() {
		t.Error("detach disabled the timeline")
	}
}

// TestMetricsWALFamiliesLint extends the strict exposition lint to a
// WAL-backed engine: the aib_wal_* / aib_checkpoint_* / aib_recovery_*
// families must parse cleanly, and the fsync summary's count must equal
// the writer's own sync counter (they are bumped at the same sites).
func TestMetricsWALFamiliesLint(t *testing.T) {
	e := New(crashConfig(t.TempDir()))
	defer e.Close()
	schema := storage.MustSchema(storage.Column{Name: "a", Kind: storage.KindInt64})
	tb, err := e.CreateTable("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 64; i++ {
		if _, err := tb.Insert(storage.NewTuple(storage.Int64Value(i % 10))); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := e.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lintExposition(t, out)
	for _, want := range []string{
		"# TYPE aib_wal_appends_total counter",
		"# TYPE aib_wal_syncs_total counter",
		"# TYPE aib_wal_fsync_seconds summary",
		"# TYPE aib_wal_commit_batch_records summary",
		"aib_wal_sync_error 0",
		"# TYPE aib_checkpoint_completed_total counter",
		"aib_checkpoint_age_seconds",
		"aib_recovery_redo_records 0",
		"# TYPE aib_flight_enabled gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WAL exposition missing %q", want)
		}
	}

	tel, ok := e.WALTelemetry()
	if !ok {
		t.Fatal("WAL-backed engine has no telemetry")
	}
	countRe := regexp.MustCompile(`(?m)^aib_wal_fsync_seconds_count (\d+)$`)
	m := countRe.FindStringSubmatch(out)
	if m == nil {
		t.Fatal("no aib_wal_fsync_seconds_count sample")
	}
	if got, _ := strconv.ParseUint(m[1], 10, 64); got != tel.Syncs {
		t.Errorf("fsync summary count %d != WAL sync counter %d", got, tel.Syncs)
	}
	batchRe := regexp.MustCompile(`(?m)^aib_wal_commit_batch_records_sum (\S+)$`)
	if m := batchRe.FindStringSubmatch(out); m == nil {
		t.Error("no aib_wal_commit_batch_records_sum sample")
	} else if sum, _ := strconv.ParseFloat(m[1], 64); uint64(sum) != uint64(tel.DurableLSN) {
		t.Errorf("commit-batch sum %v != durable LSN %d", sum, tel.DurableLSN)
	}

	// An in-memory engine must not expose the WAL families at all —
	// absent, not zero, like the other per-subsystem families.
	mem, _ := newABC(t, Config{}, 100, 10)
	defer mem.Close()
	sb.Reset()
	if err := mem.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "aib_wal_") || strings.Contains(sb.String(), "aib_checkpoint_") {
		t.Error("in-memory engine exposes WAL families")
	}
}

// sinkSamples decodes the sample records of a telemetry stream, in
// stream order.
func sinkSamples(t *testing.T, stream []byte) []timeline.SampleRecord {
	t.Helper()
	var out []timeline.SampleRecord
	if _, err := timeline.ScanRecords(bytes.NewReader(stream), func(rec timeline.SampleRecord) error {
		out = append(out, rec)
		return nil
	}, nil, nil); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkOrdinals fails when a buffer's query ordinal goes backwards in
// the stream — the rule aibench -verify-telemetry applies.
func checkOrdinals(t *testing.T, samples []timeline.SampleRecord) {
	t.Helper()
	last := map[string]uint64{}
	backwards := 0
	for _, rec := range samples {
		if rec.Query < last[rec.Buffer] {
			backwards++
		}
		last[rec.Buffer] = rec.Query
	}
	if backwards > 0 {
		t.Errorf("%d samples went back to an earlier ordinal of their buffer", backwards)
	}
}

// TestSinkSampleOrdinalsNeverGoBackward races covered hits on one column
// with a sink attached: however the boundaries interleave, each buffer's
// samples must reach the stream in ordinal order.
func TestSinkSampleOrdinalsNeverGoBackward(t *testing.T) {
	e, tb := newABC(t, Config{}, 500, 50)
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 50)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	e.SetTelemetrySink(timeline.NewSink(&out))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if _, _, err := tb.QueryEqual(0, iv(int64(1+(g+i)%50))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	samples := sinkSamples(t, out.Bytes())
	if len(samples) != 8000 {
		t.Fatalf("streamed %d samples, want 8000", len(samples))
	}
	checkOrdinals(t, samples)
}

// TestTimelineChurnStressSink races misses on two tables whose indexing
// scans displace each other's entries from one bounded Space, with the
// timeline and a sink on, while Series, Convergence and /metrics are
// read. Afterwards each buffer's last sample must carry exactly its
// buffer's churn counters and its column's query mix, the buffers'
// displaced entries must sum to the Space's, and the stream's ordinals
// must never go backwards.
func TestTimelineChurnStressSink(t *testing.T) {
	cfg := Config{Space: core.Config{IMax: 20, P: 5, K: 2, SpaceLimit: 400, Seed: 3}}
	e, first := newABC(t, cfg, 1500, 60)
	second, err := e.CreateTable("second", first.Schema())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1500; i++ {
		if _, err := second.Insert(storage.NewTuple(iv(1+rng.Int63n(60)), iv(1), iv(1), storage.StringValue(strings.Repeat("y", 1+rng.Intn(256))))); err != nil {
			t.Fatal(err)
		}
	}
	tables := []*Table{first, second}
	for _, tb := range tables {
		if err := tb.CreatePartialIndex(0, index.IntRange(1, 20)); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	e.SetTelemetrySink(timeline.NewSink(&out))
	// Fill the Space one scan at a time: a scan pins its own buffer, so
	// two tables scanning at once cannot displace each other, and the
	// race below alone might never displace.
	for i := 0; i < 20; i++ {
		if _, _, err := tables[i%2].QueryEqual(0, iv(int64(21+i))); err != nil {
			t.Fatal(err)
		}
	}
	if e.Space().Stats().PartitionsDropped == 0 {
		t.Fatal("workload produced no displacement; test premise broken")
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			e.Timeline().Series()
			e.Convergence()
			if err := e.WriteMetrics(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if _, _, err := tables[(g+i)%2].QueryEqual(0, iv(int64(21+(g*13+i*7)%40))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	readers.Wait()

	last := map[string]timeline.Sample{}
	for _, s := range e.Timeline().Series() {
		last[s.Buffer] = s.Samples[len(s.Samples)-1]
	}
	queries := map[string]uint64{}
	for _, a := range e.Tracer().Aggregates() {
		queries[a.Table+"."+a.Column] = a.Queries
	}
	var displaced uint64
	for _, b := range e.Space().Buffers() {
		c := b.Churn()
		displaced += c.DisplacedEntries
		sm, ok := last[b.Name()]
		if !ok {
			t.Fatalf("no series for %s", b.Name())
		}
		if got := (core.Churn{Displacements: sm.Displacements, DisplacedEntries: sm.DisplacedEntries, PageCompletes: sm.PageCompletes}); got != c {
			t.Errorf("%s: last sample churn %+v, buffer %+v", b.Name(), got, c)
		}
		if mix := sm.Hits + sm.IndexingScans + sm.FullScans + sm.Followers; mix != queries[b.Name()] {
			t.Errorf("%s: last sample mix sums to %d, tracer counted %d queries", b.Name(), mix, queries[b.Name()])
		}
	}
	if want := e.Space().Stats().EntriesDropped; displaced != want {
		t.Errorf("buffers' displaced entries sum to %d, Space dropped %d", displaced, want)
	}
	checkOrdinals(t, sinkSamples(t, out.Bytes()))
}
