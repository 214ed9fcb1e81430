package timeline

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/flight"
	"repro/internal/storage"
	"repro/internal/trace"
)

// mkBufIn registers a buffer with sp.
func mkBufIn(t *testing.T, sp *core.Space, name string, uncovered []int) *core.IndexBuffer {
	t.Helper()
	b, err := sp.CreateBuffer(name, uncovered)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// mkBuf builds a real IndexBuffer, alone in its own Space, whose
// coverage is determined by the uncovered-counter array: pages with
// counter 0 are skippable.
func mkBuf(t *testing.T, name string, uncovered []int) *core.IndexBuffer {
	t.Helper()
	return mkBufIn(t, core.NewSpace(core.Config{}), name, uncovered)
}

// column returns a tracer handle for t.a that recorded one query per
// mechanism label.
func column(mechs ...string) *trace.Column {
	tr := trace.New()
	c := tr.Column("t", "a")
	for _, m := range mechs {
		tr.Record(c, m, exec.QueryStats{})
	}
	return c
}

// only returns the recorder's one series.
func only(t *testing.T, r *Recorder) Series {
	t.Helper()
	all := r.Series()
	if len(all) != 1 {
		t.Fatalf("series = %+v, want exactly one", all)
	}
	return all[0]
}

func TestTimelineDisabledIsInert(t *testing.T) {
	r := New(0, 0)
	if r.Enabled() {
		t.Fatal("recorder enabled by default")
	}
	buf := mkBuf(t, "t.a", []int{0, 0})
	allocs := testing.AllocsPerRun(100, func() {
		r.ObserveQuery("t", "a", nil, buf, nil)
		r.Reset(buf)
	})
	if allocs != 0 {
		t.Errorf("disabled path allocates: %v allocs/op", allocs)
	}
	if r.SampleCount() != 0 || len(r.Series()) != 0 {
		t.Error("disabled recorder retained state")
	}
}

func TestTimelineRingEvictionAndDropped(t *testing.T) {
	r := New(4, 0.95)
	r.Enable(true)
	buf := mkBuf(t, "t.a", []int{0, 1})
	for i := 0; i < 10; i++ {
		r.ObserveQuery("t", "a", nil, buf, nil)
	}
	s := only(t, r)
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
	r.ObserveQuery("t", "a", column("hit"), buf, nil)
	sm := only(t, r).Samples[0]
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
	r.ObserveQuery("t", "a", column("full-scan"), nil, nil)
	sm := only(t, r).Samples[0]
	if sm.TotalPages != 0 || sm.Coverage != 0 {
		t.Errorf("nil buffer sampled as %d pages, coverage %g", sm.TotalPages, sm.Coverage)
	}
	if sm.FullScans != 1 {
		t.Errorf("full scans = %d", sm.FullScans)
	}
}

// TestTimelineQueryMix pins the mechanism vocabulary the timeline reads
// from the tracer's handle: a quota-degraded scan adapts nothing, so it
// counts with the full scans; an empty range or an unknown label
// advances the query ordinal but no mix counter.
func TestTimelineQueryMix(t *testing.T) {
	r := New(8, 0.95)
	r.Enable(true)
	tr := trace.New()
	c := tr.Column("t", "a")
	for _, mech := range []string{"hit", "indexing-scan", "full-scan", "degraded-scan", "shared-follower", "empty-range", "bogus"} {
		tr.Record(c, mech, exec.QueryStats{})
		r.ObserveQuery("t", "a", c, nil, nil)
	}
	s := only(t, r)
	sm := s.Samples[len(s.Samples)-1]
	if sm.Query != 7 || sm.Hits != 1 || sm.IndexingScans != 1 || sm.FullScans != 2 || sm.Followers != 1 {
		t.Errorf("query mix = %+v", sm)
	}
}

func TestConvergenceAchieveRegressRecover(t *testing.T) {
	r := New(16, 0.75)
	r.Enable(true)
	low := mkBuf(t, "t.a", []int{1, 1, 1, 0})  // coverage 0.25
	high := mkBuf(t, "t.b", []int{0, 0, 0, 1}) // coverage 0.75

	r.ObserveQuery("t", "a", nil, low, nil)
	c := r.Convergence()[0]
	if c.Achieved || c.Regressed {
		t.Fatalf("premature verdict: %+v", c)
	}
	if c.Coverage != 0.25 || c.MaxCoverage != 0.25 {
		t.Errorf("coverage tracking = %g/%g", c.Coverage, c.MaxCoverage)
	}

	r.ObserveQuery("t", "a", nil, high, nil)
	c = r.Convergence()[0]
	if !c.Achieved || c.QueriesToTarget != 2 {
		t.Fatalf("achieve not detected: %+v", c)
	}

	// Coverage drops below target after achieving: regression.
	r.ObserveQuery("t", "a", nil, low, nil)
	c = r.Convergence()[0]
	if !c.Regressed || c.RegressedAt != 3 {
		t.Fatalf("regression not flagged: %+v", c)
	}
	if !c.Achieved || c.QueriesToTarget != 2 {
		t.Errorf("achieve history lost on regression: %+v", c)
	}

	// Recovery clears the flag but keeps the first-crossing ordinal.
	r.ObserveQuery("t", "a", nil, high, nil)
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
// semantics: a Reset (partial index dropped or redefined) clears the
// stale "converged" verdict — the detector would otherwise report the
// old buffer's achievement for its fresh replacement, flagging the
// rebuild as a mere regression — while the series' churn stays
// cumulative across the swap and the successor is re-sampled at the
// next boundary of another column.
func TestConvergenceBufferResetStartsNewEpisode(t *testing.T) {
	r := New(16, 0.75)
	r.Enable(true)
	high := mkBuf(t, "t.a", []int{0, 0, 0, 1}) // coverage 1 once page 3 completes
	sp := core.NewSpace(core.Config{})
	low := mkBufIn(t, sp, "t.a", []int{1, 1, 1, 0}) // coverage 0.25: high's successor
	other := mkBufIn(t, sp, "t.b", []int{0})
	if err := high.ApplyPage(3, nil); err != nil {
		t.Fatal(err)
	}

	r.ObserveQuery("t", "a", nil, high, nil)
	if c := r.Convergence()[0]; !c.Achieved || c.QueriesToTarget != 1 {
		t.Fatalf("setup verdict: %+v", c)
	}

	// The index is redefined: the buffer is dropped and recreated.
	r.Reset(high)
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

	// The next boundary, on another column, re-samples the successor.
	r.ObserveQuery("t", "b", nil, other, sp)
	a := r.Series()[0]
	if sm := a.Samples[len(a.Samples)-1]; sm.Event != EventResample || sm.Coverage != 0.25 || sm.PageCompletes != 1 {
		t.Fatalf("successor sample = %+v, want a resample at 0.25 keeping the retired page complete", sm)
	}

	// The fresh buffer starts low, then re-achieves: the second episode
	// gets its own crossing ordinal, not the first's.
	r.ObserveQuery("t", "a", nil, low, nil)
	if c := r.Convergence()[0]; c.Achieved || c.Regressed {
		t.Fatalf("new episode inherited old verdict: %+v", c)
	}
	r.ObserveQuery("t", "a", nil, high, nil) // a stale read of the retired buffer
	c = r.Convergence()[0]
	if !c.Achieved || c.QueriesToTarget != 3 {
		t.Fatalf("re-achievement verdict: %+v", c)
	}
	if c.Resets != 1 || c.Queries != 3 {
		t.Errorf("episode bookkeeping: %+v", c)
	}
	a = r.Series()[0]
	if sm := a.Samples[len(a.Samples)-1]; sm.PageCompletes != 1 {
		t.Errorf("stale read of the retired buffer counted its churn twice: %+v", sm)
	}
}

// TestTimelineResampleFollowsBufferChurn checks that a query boundary
// re-samples other buffers exactly when their own churn counters moved
// since their last sample, in name order, after the queried buffer's
// own sample.
func TestTimelineResampleFollowsBufferChurn(t *testing.T) {
	var out bytes.Buffer
	r := New(8, 0.95)
	r.Enable(true)
	r.SetSink(NewSink(&out))
	sp := core.NewSpace(core.Config{})
	queried := mkBufIn(t, sp, "t.a", []int{0})
	victims := []*core.IndexBuffer{mkBufIn(t, sp, "z.b", []int{0, 3}), mkBufIn(t, sp, "u.b", []int{0, 3})}
	for _, v := range victims {
		table, column, _ := strings.Cut(v.Name(), ".")
		r.ObserveQuery(table, column, nil, v, sp)
	}
	r.ObserveQuery("t", "a", nil, queried, sp) // nothing moved
	if n := r.SampleCount(); n != 3 {
		t.Fatalf("%d samples before any churn, want 3", n)
	}

	entries := []core.PageEntry{{Key: storage.Int64Value(7), RID: storage.RID{Page: 1, Slot: 0}}}
	for _, v := range victims {
		if err := v.ApplyPage(1, entries); err != nil {
			t.Fatal(err)
		}
	}
	out.Reset()
	r.ObserveQuery("t", "a", nil, queried, sp)
	r.ObserveQuery("t", "a", nil, queried, sp) // churn unchanged since the resamples
	var got []string
	if _, err := ScanRecords(&out, func(rec SampleRecord) error {
		got = append(got, rec.Buffer+" "+rec.Event)
		if rec.Event == EventResample && (rec.Query != 1 || rec.PageCompletes != 1 || rec.Entries != 1) {
			t.Errorf("resample = %+v", rec)
		}
		return nil
	}, nil, nil); err != nil {
		t.Fatal(err)
	}
	want := []string{"t.a query", "u.b resample", "z.b resample", "t.a query"}
	if strings.Join(got, ", ") != strings.Join(want, ", ") {
		t.Errorf("stream = %v, want %v", got, want)
	}
}

func TestSinkRoundTrip(t *testing.T) {
	var out bytes.Buffer
	sink := NewSink(&out)
	r := New(8, 0.95)
	r.Enable(true)
	r.SetSink(sink)

	buf := mkBuf(t, "t.a", []int{0, 1})
	tr := trace.New()
	c := tr.Column("t", "a")
	for _, mech := range []string{"indexing-scan", "hit"} {
		tr.Record(c, mech, exec.QueryStats{})
		r.ObserveQuery("t", "a", c, buf, nil)
	}
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
