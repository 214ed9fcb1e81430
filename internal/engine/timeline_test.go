package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
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
	e.Tracer().EnableSpans(true)
	e.Timeline().Enable(true)
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
	if !e.Tracer().SpansEnabled() || !e.Timeline().Enabled() {
		t.Fatal("SetTelemetrySink did not enable recording")
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
