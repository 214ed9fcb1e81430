package obs

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/flight"
	"repro/internal/index"
	"repro/internal/storage"
	"repro/internal/timeline"
)

func newEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New(engine.Config{})
	schema := storage.MustSchema(storage.Column{Name: "a", Kind: storage.KindInt64})
	tb, err := e.CreateTable("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 200; i++ {
		if _, err := tb.Insert(storage.NewTuple(storage.Int64Value(i % 50))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 10)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tb.QueryEqual(0, storage.Int64Value(5)); err != nil { // hit
		t.Fatal(err)
	}
	if _, _, err := tb.QueryEqual(0, storage.Int64Value(30)); err != nil { // miss
		t.Fatal(err)
	}
	return e
}

func get(t *testing.T, h http.Handler, path string) (*http.Response, string) {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	h := Handler(newEngine(t))
	resp, body := get(t, h, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	for _, want := range []string{
		"aib_shared_scan_misses_total 1",
		`aib_queries_total{table="t",column="a"} 2`,
		`aib_query_latency_microseconds_count{mechanism="hit"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n---\n%s", want, body)
		}
	}
}

func TestPprofEndpoint(t *testing.T) {
	h := Handler(newEngine(t))
	resp, body := get(t, h, "/debug/pprof/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !strings.Contains(body, "goroutine") {
		t.Error("pprof index does not list profiles")
	}
}

func TestServeBindsEphemeralPort(t *testing.T) {
	srv, addr, err := Serve("127.0.0.1:0", newEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "aib_space_entries_used") {
		t.Errorf("GET /metrics over TCP: status %d, body %.200s", resp.StatusCode, body)
	}
}

func TestHealthzEndpoint(t *testing.T) {
	h := Handler(newEngine(t))
	resp, body := get(t, h, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var hr struct {
		Status    string `json:"status"`
		GoVersion string `json:"go_version"`
		Engine    bool   `json:"engine"`
	}
	if err := json.Unmarshal([]byte(body), &hr); err != nil {
		t.Fatalf("healthz body not JSON: %v\n%s", err, body)
	}
	if hr.Status != "ok" || !hr.Engine || hr.GoVersion == "" {
		t.Errorf("healthz = %+v", hr)
	}
}

// TestNilEngineEndpoints pins the moving-target contract: without an
// engine, the data endpoints refuse while the liveness probe answers.
func TestNilEngineEndpoints(t *testing.T) {
	h := NewServer(func() *engine.Engine { return nil })
	for _, path := range []string{"/metrics", "/timeline"} {
		if resp, _ := get(t, h, path); resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("GET %s with nil engine = %d, want 503", path, resp.StatusCode)
		}
	}
	resp, body := get(t, h, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz with nil engine = %d, want 200", resp.StatusCode)
	}
	if !strings.Contains(body, `"engine":false`) {
		t.Errorf("healthz does not report missing engine: %s", body)
	}
}

func TestTimelineEndpointFilters(t *testing.T) {
	e := newEngine(t)
	e.Timeline().Enable(true)
	tb := e.Table("t")
	for i := int64(0); i < 5; i++ {
		if _, _, err := tb.QueryEqual(0, storage.Int64Value(20+i)); err != nil {
			t.Fatal(err)
		}
	}
	h := Handler(e)

	decode := func(body string) (series []map[string]any, enabled bool) {
		t.Helper()
		var resp struct {
			Series      []map[string]any `json:"series"`
			Convergence []map[string]any `json:"convergence"`
			Enabled     bool             `json:"enabled"`
		}
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatalf("timeline body not JSON: %v\n%s", err, body)
		}
		return resp.Series, resp.Enabled
	}

	_, body := get(t, h, "/timeline")
	series, enabled := decode(body)
	if !enabled || len(series) != 1 {
		t.Fatalf("unfiltered: enabled=%v series=%d", enabled, len(series))
	}
	if series[0]["buffer"] != "t.a" {
		t.Errorf("series buffer = %v", series[0]["buffer"])
	}

	if _, body = get(t, h, "/timeline?table=t&column=a"); len(firstOf(decode(body))) != 1 {
		t.Error("matching filter dropped the series")
	}
	if _, body = get(t, h, "/timeline?table=nope"); len(firstOf(decode(body))) != 0 {
		t.Error("non-matching table filter kept the series")
	}
	if _, body = get(t, h, "/timeline?column=zz"); len(firstOf(decode(body))) != 0 {
		t.Error("non-matching column filter kept the series")
	}
}

func firstOf(series []map[string]any, _ bool) []map[string]any { return series }

// failAfterWriter fails every response write after the first n bytes,
// simulating a scraper hanging up mid-body.
type failAfterWriter struct {
	header  http.Header
	n       int
	written int
}

func (f *failAfterWriter) Header() http.Header { return f.header }
func (f *failAfterWriter) WriteHeader(int)     {}
func (f *failAfterWriter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.n {
		return 0, errors.New("client went away")
	}
	f.written += len(p)
	return len(p), nil
}

// TestScrapeErrorCounted is the satellite regression test: a mid-stream
// /metrics write failure cannot be signaled by status code (headers are
// already out), so it must land in aib_scrape_errors_total on the next
// successful scrape.
func TestScrapeErrorCounted(t *testing.T) {
	eng := newEngine(t)
	s := NewServer(func() *engine.Engine { return eng })

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	s.ServeHTTP(&failAfterWriter{header: http.Header{}, n: 64}, req)
	if st := s.ScrapeStats(); st.Scrapes != 1 || st.Errors != 1 {
		t.Fatalf("after failed scrape: %+v", st)
	}

	_, body := get(t, s, "/metrics")
	if !strings.Contains(body, "aib_scrape_errors_total 1") {
		t.Errorf("error not exported on next scrape:\n%s", body)
	}
	if !strings.Contains(body, "aib_scrapes_total 2") {
		t.Errorf("scrape counter wrong:\n%s", body)
	}
	if st := s.ScrapeStats(); st.Scrapes != 2 || st.Errors != 1 {
		t.Errorf("after good scrape: %+v", st)
	}
}

// TestConcurrentScrapeTimelineE2E races a miss-heavy workload against
// pollers of /metrics and /timeline over real TCP: every scrape must
// parse and every observed gauge must stay in range. Run with -race this
// doubles as the data-race check for the whole scrape path.
func TestConcurrentScrapeTimelineE2E(t *testing.T) {
	e := newEngine(t)
	e.SetTelemetrySink(timeline.NewSink(io.Discard)) // spans streamed, timeline on
	tb := e.Table("t")
	s := NewServer(func() *engine.Engine { return e })
	srv, addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	covRe := regexp.MustCompile(`(?m)^aib_coverage_ratio\{[^}]*\} (\S+)$`)
	var work, poll sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		work.Add(1)
		go func(g int) {
			defer work.Done()
			for i := 0; i < 80; i++ {
				k := int64(11 + (g*13+i)%39) // outside the covered [1,10] range: all misses
				if _, _, err := tb.QueryEqual(0, storage.Int64Value(k)); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		poll.Add(1)
		go func() {
			defer poll.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/metrics", "/timeline?table=t"} {
					resp, err := http.Get("http://" + addr + path)
					if err != nil {
						t.Error(err)
						return
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						t.Errorf("GET %s: status %d, err %v", path, resp.StatusCode, err)
						continue
					}
					if path == "/metrics" {
						for _, mm := range covRe.FindAllStringSubmatch(string(body), -1) {
							cov, err := strconv.ParseFloat(mm[1], 64)
							if err != nil || cov < 0 || cov > 1 {
								t.Errorf("coverage gauge out of range: %q (%v)", mm[1], err)
							}
						}
					} else {
						var tl struct {
							Series []struct {
								Samples []struct {
									Coverage  float64 `json:"coverage"`
									Skippable int     `json:"skippable_pages"`
									Total     int     `json:"total_pages"`
								} `json:"samples"`
							} `json:"series"`
						}
						if err := json.Unmarshal(body, &tl); err != nil {
							t.Errorf("timeline scrape not JSON: %v", err)
							continue
						}
						for _, ser := range tl.Series {
							for _, sm := range ser.Samples {
								if sm.Coverage < 0 || sm.Coverage > 1 || sm.Skippable > sm.Total {
									t.Errorf("insane sample: %+v", sm)
								}
							}
						}
					}
				}
			}
		}()
	}
	work.Wait() // workload done
	// A fast workload can finish before any poller completes a scrape;
	// keep polling until one has, so the stats check below means something.
	for deadline := time.Now().Add(5 * time.Second); s.ScrapeStats().Scrapes == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	poll.Wait()

	if st := s.ScrapeStats(); st.Errors != 0 || st.Scrapes == 0 {
		t.Errorf("scrape stats after run: %+v", st)
	}
	if e.Timeline().SampleCount() == 0 {
		t.Error("no timeline samples despite sampled workload")
	}
}

// TestQueriesEndpoint exercises /debug/queries: the enabled flag, the
// trace/tenant/min_ms/n filters and the 400s on malformed parameters.
func TestQueriesEndpoint(t *testing.T) {
	e := newEngine(t)
	h := Handler(e)

	// Recorder off: the endpoint answers with enabled=false, no records.
	resp, body := get(t, h, "/debug/queries")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var qr struct {
		Enabled bool `json:"enabled"`
		Records []struct {
			Trace  string `json:"trace"`
			Tenant string `json:"tenant"`
			Stmt   string `json:"stmt"`
		} `json:"records"`
	}
	if err := json.Unmarshal([]byte(body), &qr); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, body)
	}
	if qr.Enabled || len(qr.Records) != 0 {
		t.Fatalf("disabled recorder served %+v", qr)
	}

	// Complete two records through the recorder, one with a known trace.
	fr := e.Flight()
	fr.Enable(1)
	a, _ := fr.Begin(context.Background(), "acme", "SELECT 1")
	fr.Complete(a, nil)
	b, _ := fr.Begin(flight.WithTrace(context.Background(), "tr-obs"), "tiny", "SELECT 2")
	fr.Complete(b, nil)

	_, body = get(t, h, "/debug/queries?trace=tr-obs")
	if err := json.Unmarshal([]byte(body), &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Enabled || len(qr.Records) != 1 || qr.Records[0].Stmt != "SELECT 2" {
		t.Errorf("trace filter = %+v", qr)
	}
	_, body = get(t, h, "/debug/queries?tenant=acme")
	if err := json.Unmarshal([]byte(body), &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Records) != 1 || qr.Records[0].Tenant != "acme" {
		t.Errorf("tenant filter = %+v", qr)
	}
	_, body = get(t, h, "/debug/queries?min_ms=3600000")
	if err := json.Unmarshal([]byte(body), &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Records) != 0 {
		t.Errorf("min_ms=1h returned %+v", qr.Records)
	}
	_, body = get(t, h, "/debug/queries?n=1")
	if err := json.Unmarshal([]byte(body), &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Records) != 1 {
		t.Errorf("n=1 returned %d records", len(qr.Records))
	}

	for _, bad := range []string{"?min_ms=-1", "?min_ms=x", "?n=0", "?n=x"} {
		if resp, _ := get(t, h, "/debug/queries"+bad); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /debug/queries%s = %d, want 400", bad, resp.StatusCode)
		}
	}
	if resp, _ := get(t, NewServer(func() *engine.Engine { return nil }), "/debug/queries"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("nil engine /debug/queries = %d, want 503", resp.StatusCode)
	}
}

// TestQueriesRejectsBadMinMS pins the min_ms parse: NaN, infinities and
// values whose Duration overflows answer 400 instead of wrapping into a
// filter that keeps every record, while the largest representable
// threshold still filters normally.
func TestQueriesRejectsBadMinMS(t *testing.T) {
	e := newEngine(t)
	h := Handler(e)
	fr := e.Flight()
	fr.Enable(1)
	a, _ := fr.Begin(context.Background(), "", "SELECT 1")
	fr.Complete(a, nil)

	for _, bad := range []string{"NaN", "Inf", "-Inf", "1e300", "9.3e12"} {
		if resp, body := get(t, h, "/debug/queries?min_ms="+bad); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("min_ms=%s = %d, want 400: %s", bad, resp.StatusCode, body)
		}
	}
	resp, body := get(t, h, "/debug/queries?min_ms=9.2e12")
	var qr struct {
		Records []json.RawMessage `json:"records"`
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("min_ms=9.2e12 = %d, want 200", resp.StatusCode)
	}
	if err := json.Unmarshal([]byte(body), &qr); err != nil || len(qr.Records) != 0 {
		t.Errorf("min_ms=9.2e12 (~292 years) returned %d records (err %v)", len(qr.Records), err)
	}
}

// TestHealthzUnhealthyDurability pins the liveness-vs-durability split:
// an engine whose WAL failed to initialize answers 503 with the failure
// in the durability section, while a healthy WAL-less engine stays 200.
func TestHealthzUnhealthyDurability(t *testing.T) {
	// A regular file where the WAL directory must go forces init failure.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := engine.New(engine.Config{DataDir: dir})
	resp, body := get(t, Handler(e), "/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unhealthy engine /healthz = %d, want 503\n%s", resp.StatusCode, body)
	}
	var hr struct {
		Status     string `json:"status"`
		Reason     string `json:"reason"`
		Durability struct {
			Healthy      bool   `json:"healthy"`
			WALInitError string `json:"wal_init_error"`
		} `json:"durability"`
		Flight struct {
			Enabled bool `json:"enabled"`
		} `json:"flight"`
	}
	if err := json.Unmarshal([]byte(body), &hr); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, body)
	}
	if hr.Status != "unhealthy" || hr.Reason == "" {
		t.Errorf("health = %+v", hr)
	}
	if hr.Durability.Healthy || hr.Durability.WALInitError == "" {
		t.Errorf("durability section = %+v", hr.Durability)
	}

	// Healthy in-memory engine: 200 with a healthy durability section.
	resp, body = get(t, Handler(newEngine(t)), "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy engine /healthz = %d\n%s", resp.StatusCode, body)
	}
	if !strings.Contains(body, `"healthy":true`) {
		t.Errorf("healthz lacks durability verdict: %s", body)
	}
}
