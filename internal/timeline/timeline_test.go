package timeline

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/flight"
)

// mkBuf builds a real IndexBuffer whose coverage is determined by the
// uncovered-counter array: pages with counter 0 are skippable.
func mkBuf(t *testing.T, name string, uncovered []int) *core.IndexBuffer {
	t.Helper()
	s := core.NewSpace(core.Config{})
	b, err := s.CreateBuffer(name, uncovered)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTimelineDisabledIsInert(t *testing.T) {
	r := New(0, 0)
	if r.Enabled() {
		t.Fatal("recorder enabled by default")
	}
	buf := mkBuf(t, "t.a", []int{0, 0})
	allocs := testing.AllocsPerRun(100, func() {
		r.ObserveQuery("t", "a", "hit", buf, nil)
		r.NoteEvent("displace", "t.a", 0, 3)
		r.Resample("t.a", buf)
	})
	if allocs != 0 {
		t.Errorf("disabled path allocates: %v allocs/op", allocs)
	}
	if r.SampleCount() != 0 || len(r.Series()) != 0 || r.TakeDirty() != nil {
		t.Error("disabled recorder retained state")
	}
}

func TestTimelineRingEvictionAndDropped(t *testing.T) {
	r := New(4, 0.95)
	r.Enable(true)
	buf := mkBuf(t, "t.a", []int{0, 1})
	for i := 0; i < 10; i++ {
		r.ObserveQuery("t", "a", "indexing-scan", buf, nil)
	}
	s, ok := r.SeriesFor("t.a")
	if !ok {
		t.Fatal("series missing")
	}
	if len(s.Samples) != 4 {
		t.Fatalf("retained %d samples, want 4", len(s.Samples))
	}
	if s.Dropped != 6 {
		t.Errorf("Dropped = %d, want 6", s.Dropped)
	}
	for i, sm := range s.Samples {
		if want := uint64(7 + i); sm.Query != want {
			t.Errorf("sample %d ordinal = %d, want %d (oldest-first)", i, sm.Query, want)
		}
	}
	if r.SampleCount() != 10 {
		t.Errorf("SampleCount = %d, want 10 (survives eviction)", r.SampleCount())
	}
	if s.Table != "t" || s.Column != "a" {
		t.Errorf("series identity = %q.%q", s.Table, s.Column)
	}
}

func TestTimelineSampleFields(t *testing.T) {
	r := New(8, 0.95)
	r.Enable(true)
	// Counters {0, 2, 5, 0}: 2 of 4 skippable, non-zero distribution {2, 5}.
	buf := mkBuf(t, "t.a", []int{0, 2, 5, 0})
	r.ObserveQuery("t", "a", "hit", buf, nil)
	s, _ := r.SeriesFor("t.a")
	sm := s.Samples[0]
	if sm.Event != EventQuery || sm.Query != 1 {
		t.Errorf("event/ordinal = %q/%d", sm.Event, sm.Query)
	}
	if sm.TotalPages != 4 || sm.Skippable != 2 || sm.Coverage != 0.5 {
		t.Errorf("coverage fields = %d/%d/%g", sm.TotalPages, sm.Skippable, sm.Coverage)
	}
	if sm.CMin != 2 || sm.CMax != 5 {
		t.Errorf("counter distribution = min %d max %d, want 2/5", sm.CMin, sm.CMax)
	}
	if sm.Hits != 1 || sm.IndexingScans != 0 {
		t.Errorf("mechanism mix = hits %d ix %d", sm.Hits, sm.IndexingScans)
	}
	if sm.UnixMicros == 0 {
		t.Error("UnixMicros not stamped")
	}
}

func TestTimelineNilBufferQueryMixOnly(t *testing.T) {
	r := New(8, 0.95)
	r.Enable(true)
	r.ObserveQuery("t", "a", "full-scan", nil, nil)
	s, _ := r.SeriesFor("t.a")
	sm := s.Samples[0]
	if sm.TotalPages != 0 || sm.Coverage != 0 {
		t.Errorf("nil buffer sampled as %d pages, coverage %g", sm.TotalPages, sm.Coverage)
	}
	if sm.FullScans != 1 {
		t.Errorf("full scans = %d", sm.FullScans)
	}
}

// TestTimelineQueryMix pins the mechanism vocabulary the timeline counts:
// a quota-degraded scan adapts nothing, so it counts with the full
// scans; an unknown label advances the query ordinal but no mix counter.
func TestTimelineQueryMix(t *testing.T) {
	r := New(8, 0.95)
	r.Enable(true)
	for _, mech := range []string{"hit", "indexing-scan", "full-scan", "degraded-scan", "shared-follower", "bogus"} {
		r.ObserveQuery("t", "a", mech, nil, nil)
	}
	s, _ := r.SeriesFor("t.a")
	sm := s.Samples[len(s.Samples)-1]
	if sm.Query != 6 || sm.Hits != 1 || sm.IndexingScans != 1 || sm.FullScans != 2 || sm.Followers != 1 {
		t.Errorf("query mix = %+v", sm)
	}
}

func TestConvergenceAchieveRegressRecover(t *testing.T) {
	r := New(16, 0.75)
	r.Enable(true)
	low := mkBuf(t, "t.a", []int{1, 1, 1, 0})  // coverage 0.25
	high := mkBuf(t, "t.b", []int{0, 0, 0, 1}) // coverage 0.75

	r.ObserveQuery("t", "a", "indexing-scan", low, nil)
	c := r.Convergence()[0]
	if c.Achieved || c.Regressed {
		t.Fatalf("premature verdict: %+v", c)
	}
	if c.Coverage != 0.25 || c.MaxCoverage != 0.25 {
		t.Errorf("coverage tracking = %g/%g", c.Coverage, c.MaxCoverage)
	}

	r.ObserveQuery("t", "a", "indexing-scan", high, nil)
	c = r.Convergence()[0]
	if !c.Achieved || c.QueriesToTarget != 2 {
		t.Fatalf("achieve not detected: %+v", c)
	}

	// Coverage drops below target after achieving: regression.
	r.ObserveQuery("t", "a", "indexing-scan", low, nil)
	c = r.Convergence()[0]
	if !c.Regressed || c.RegressedAt != 3 {
		t.Fatalf("regression not flagged: %+v", c)
	}
	if !c.Achieved || c.QueriesToTarget != 2 {
		t.Errorf("achieve history lost on regression: %+v", c)
	}

	// Recovery clears the flag but keeps the first-crossing ordinal.
	r.ObserveQuery("t", "a", "indexing-scan", high, nil)
	c = r.Convergence()[0]
	if c.Regressed {
		t.Errorf("regression flag not cleared on recovery: %+v", c)
	}
	if c.QueriesToTarget != 2 || c.Queries != 4 {
		t.Errorf("ordinals after recovery: %+v", c)
	}
	if c.Target != 0.75 {
		t.Errorf("target = %g", c.Target)
	}
}

// TestConvergenceBufferResetStartsNewEpisode pins the episode
// semantics: a buffer-reset event (partial index dropped or redefined)
// clears the stale "converged" verdict — the detector would otherwise
// report the old buffer's achievement for its fresh replacement,
// flagging the rebuild as a mere regression.
func TestConvergenceBufferResetStartsNewEpisode(t *testing.T) {
	r := New(16, 0.75)
	r.Enable(true)
	high := mkBuf(t, "t.a", []int{0, 0, 0, 1}) // coverage 0.75
	low := mkBuf(t, "t.a", []int{1, 1, 1, 0})  // coverage 0.25

	r.ObserveQuery("t", "a", "indexing-scan", high, nil)
	if c := r.Convergence()[0]; !c.Achieved || c.QueriesToTarget != 1 {
		t.Fatalf("setup verdict: %+v", c)
	}

	// The index is redefined: the buffer is dropped and recreated.
	r.NoteEvent("buffer-reset", "t.a", -1, 3)
	c := r.Convergence()[0]
	if c.Achieved || c.Regressed || c.QueriesToTarget != 0 {
		t.Fatalf("stale verdict survived buffer reset: %+v", c)
	}
	if c.Resets != 1 {
		t.Errorf("Resets = %d, want 1", c.Resets)
	}
	if c.MaxCoverage != 0 {
		t.Errorf("MaxCoverage = %g, want 0 after reset", c.MaxCoverage)
	}
	if d := r.TakeDirty(); len(d) != 1 || d[0] != "t.a" {
		t.Errorf("buffer-reset did not dirty the series: %v", d)
	}

	// The fresh buffer starts low, then re-achieves: the second episode
	// gets its own crossing ordinal, not the first's.
	r.ObserveQuery("t", "a", "indexing-scan", low, nil)
	if c := r.Convergence()[0]; c.Achieved || c.Regressed {
		t.Fatalf("new episode inherited old verdict: %+v", c)
	}
	r.ObserveQuery("t", "a", "indexing-scan", high, nil)
	c = r.Convergence()[0]
	if !c.Achieved || c.QueriesToTarget != 3 {
		t.Fatalf("re-achievement verdict: %+v", c)
	}
	if c.Resets != 1 || c.Queries != 3 {
		t.Errorf("episode bookkeeping: %+v", c)
	}
}

func TestNoteEventDirtyResample(t *testing.T) {
	r := New(8, 0.95)
	r.Enable(true)
	victim := mkBuf(t, "u.b", []int{0, 3})
	queried := mkBuf(t, "t.a", []int{0})

	r.NoteEvent("displace", "u.b", 1, 5)
	r.NoteEvent("page-complete", "u.b", 1, 0)
	r.NoteEvent("scan-start", "u.b", 0, 0) // not a churn event: ignored

	resolved := map[string]*core.IndexBuffer{"u.b": victim}
	r.ObserveQuery("t", "a", "hit", queried, func(name string) *core.IndexBuffer {
		return resolved[name]
	})

	s, ok := r.SeriesFor("u.b")
	if !ok {
		t.Fatal("victim series missing")
	}
	if len(s.Samples) != 1 || s.Samples[0].Event != EventResample {
		t.Fatalf("victim samples = %+v", s.Samples)
	}
	sm := s.Samples[0]
	if sm.Displacements != 1 || sm.DisplacedEntries != 5 || sm.PageCompletes != 1 {
		t.Errorf("churn counters = %d/%d/%d", sm.Displacements, sm.DisplacedEntries, sm.PageCompletes)
	}
	// The queried buffer's own boundary sample cleared its dirty mark;
	// nothing is left pending.
	if d := r.TakeDirty(); d != nil {
		t.Errorf("dirty set not drained: %v", d)
	}
}

func TestTakeDirtySortedAndCleared(t *testing.T) {
	r := New(8, 0.95)
	r.Enable(true)
	r.NoteEvent("displace", "z.z", 0, 1)
	r.NoteEvent("displace", "a.a", 0, 1)
	got := r.TakeDirty()
	if len(got) != 2 || got[0] != "a.a" || got[1] != "z.z" {
		t.Fatalf("TakeDirty = %v, want sorted [a.a z.z]", got)
	}
	if again := r.TakeDirty(); again != nil {
		t.Errorf("second TakeDirty = %v, want nil", again)
	}
}

func TestSinkRoundTrip(t *testing.T) {
	var out bytes.Buffer
	sink := NewSink(&out)
	r := New(8, 0.95)
	r.Enable(true)
	r.SetSink(sink)

	buf := mkBuf(t, "t.a", []int{0, 1})
	r.ObserveQuery("t", "a", "indexing-scan", buf, nil)
	r.ObserveQuery("t", "a", "hit", buf, nil)
	sink.WriteSpan(flight.Span{Seq: 7, Kind: "displace", Target: "t.a", Page: 3, N: 2, Trace: "tr-1"})
	sink.WriteFlight(flight.Record{Seq: 1, Trace: "tr-1", Mechanism: "hit", Spans: []flight.Span{{Kind: "page-select", Target: "t.a", Page: -1, N: 1}}})

	if st := sink.Stats(); st.Lines != 4 || st.Errors != 0 {
		t.Fatalf("sink stats = %+v", st)
	}

	var samples []SampleRecord
	var spans []flight.Span
	var flights []flight.Record
	n, err := ScanRecords(&out,
		func(rec SampleRecord) error { samples = append(samples, rec); return nil },
		func(sp flight.Span) error { spans = append(spans, sp); return nil },
		func(rec flight.Record) error { flights = append(flights, rec); return nil },
	)
	if err != nil || n != 4 {
		t.Fatalf("ScanRecords = %d, %v", n, err)
	}
	if len(samples) != 2 || len(spans) != 1 || len(flights) != 1 {
		t.Fatalf("decoded %d samples, %d spans, %d flight records", len(samples), len(spans), len(flights))
	}
	if samples[0].Buffer != "t.a" || samples[0].Table != "t" || samples[0].Column != "a" {
		t.Errorf("sample envelope = %+v", samples[0])
	}
	if samples[0].Query != 1 || samples[1].Query != 2 {
		t.Errorf("sample ordinals = %d, %d", samples[0].Query, samples[1].Query)
	}
	if samples[1].Coverage != 0.5 || samples[1].Hits != 1 {
		t.Errorf("replayed sample = %+v", samples[1].Sample)
	}
	if spans[0].Kind != "displace" || spans[0].Seq != 7 || spans[0].N != 2 || spans[0].Trace != "tr-1" {
		t.Errorf("replayed span = %+v", spans[0])
	}
	if f := flights[0]; f.Trace != "tr-1" || f.Mechanism != "hit" || len(f.Spans) != 1 || f.Spans[0].Kind != "page-select" {
		t.Errorf("replayed flight record = %+v", f)
	}
}

func TestScanRecordsRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, input, wantErr string
	}{
		{"bad json", "{\"type\": \"sample\"\n", "line 1"},
		{"unknown type", "{\"type\":\"sample\",\"buffer\":\"x\"}\n{\"type\":\"mystery\"}\n", "line 2"},
		{"missing type", "{\"buffer\":\"x\"}\n", "line 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ScanRecords(strings.NewReader(tc.input), nil, nil, nil)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}
	// Blank lines are tolerated; callback errors propagate with the line.
	cbErr := errors.New("boom")
	_, err := ScanRecords(strings.NewReader("\n{\"type\":\"span\",\"kind\":\"x\"}\n"),
		nil, func(flight.Span) error { return cbErr }, nil)
	if err == nil || !errors.Is(err, cbErr) || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("callback error = %v", err)
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("disk full") }

func TestSinkWriteFailureNonFatal(t *testing.T) {
	sink := NewSink(failWriter{})
	sink.WriteSample(SampleRecord{Buffer: "t.a"})
	st := sink.Stats()
	if st.Lines != 0 || st.Errors != 1 {
		t.Errorf("stats after failure = %+v", st)
	}
	if err := sink.Err(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("Err() = %v", err)
	}
}
