// Package obs mounts the engine's observability surface on HTTP: a
// Prometheus /metrics endpoint rendered by engine.WriteMetrics, a
// /timeline JSON endpoint over the adaptation-timeline recorder, a
// /healthz liveness probe, and the standard net/http/pprof profiling
// handlers under /debug/pprof/. It is opt-in — nothing listens unless a
// cmd tool is started with -listen — and it registers on a private mux,
// never on http.DefaultServeMux, so importing this package has no
// global side effects.
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/timeline"
)

// Server is the observability surface bound to one (possibly moving)
// engine. It implements http.Handler and additionally exposes its
// scrape counters, so tools and tests can assert that no /metrics
// response failed mid-stream.
//
//	/metrics            Prometheus text exposition (v0.0.4)
//	/timeline           adaptation timeline + convergence as JSON,
//	                    filtered by ?table=, ?column= and ?tenant=
//	/healthz            build info + durability health JSON; 503 when
//	                    the WAL or checkpointer is unhealthy
//	/debug/queries      flight records as JSON, filtered by ?trace=,
//	                    ?tenant=, ?min_ms= and bounded by ?n=
//	/debug/pprof/       pprof index, plus cmdline, profile, symbol, trace
type Server struct {
	current func() *engine.Engine
	mux     *http.ServeMux
	scrapes metrics.ScrapeCounters
}

// NewServer builds the surface for a moving target: current resolves
// the engine per request, so a tool that builds a fresh engine per
// experiment (cmd/aibench) can expose whichever one is running. A nil
// engine turns /metrics and /timeline into 503; /healthz and pprof
// always work — they describe the process, not an engine.
func NewServer(current func() *engine.Engine) *Server {
	s := &Server{current: current, mux: http.NewServeMux()}
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/timeline", s.handleTimeline)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/debug/queries", s.handleQueries)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// ServeHTTP dispatches to the surface's endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// ScrapeStats reads the /metrics scrape counters.
func (s *Server) ScrapeStats() metrics.ScrapeStats {
	return s.scrapes.Snapshot()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	eng := s.current()
	if eng == nil {
		http.Error(w, "no engine running", http.StatusServiceUnavailable)
		return
	}
	s.scrapes.Scrapes.Add(1)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	err := eng.WriteMetrics(w)
	if err == nil {
		// Append the scrape families after the engine's. The snapshot
		// was taken after this scrape's Scrapes bump, so the pair is
		// consistent; a failure of this scrape necessarily surfaces on
		// the *next* successful one (its own response is already dead).
		err = writeScrapeMetrics(w, s.scrapes.Snapshot())
	}
	if err != nil {
		// Headers are already out, so the client cannot be signaled
		// with a status code — count the failure instead and let the
		// aib_scrape_errors_total family report it.
		s.scrapes.Errors.Add(1)
	}
}

// writeScrapeMetrics renders the scrape counters in the exposition
// format, matching engine.WriteMetrics' conventions.
func writeScrapeMetrics(w http.ResponseWriter, st metrics.ScrapeStats) error {
	const text = "# HELP aib_scrapes_total Scrape attempts against a live engine, including this one.\n" +
		"# TYPE aib_scrapes_total counter\n" +
		"aib_scrapes_total %d\n" +
		"# HELP aib_scrape_errors_total Scrapes whose response write failed after headers were sent.\n" +
		"# TYPE aib_scrape_errors_total counter\n" +
		"aib_scrape_errors_total %d\n"
	_, err := fmt.Fprintf(w, text, st.Scrapes, st.Errors)
	return err
}

// timelineResponse is the /timeline JSON document.
type timelineResponse struct {
	Series      []timeline.Series      `json:"series"`
	Convergence []timeline.Convergence `json:"convergence"`
	Enabled     bool                   `json:"enabled"`
}

func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	eng := s.current()
	if eng == nil {
		http.Error(w, "no engine running", http.StatusServiceUnavailable)
		return
	}
	table := r.URL.Query().Get("table")
	column := r.URL.Query().Get("column")
	// ?tenant= keeps only series of the named tenant's tables, whose
	// catalog names are "<tenant>:<table>"; tenant=<default> (the
	// literal) keeps unqualified tables only.
	tenant := r.URL.Query().Get("tenant")
	match := func(t, c string) bool {
		if (table != "" && t != table) || (column != "" && c != column) {
			return false
		}
		switch tenant {
		case "":
			return true
		case "<default>":
			return !strings.Contains(t, ":")
		default:
			return strings.HasPrefix(t, tenant+":")
		}
	}
	resp := timelineResponse{
		Series:      []timeline.Series{},
		Convergence: []timeline.Convergence{},
		Enabled:     eng.Timeline().Enabled(),
	}
	for _, ser := range eng.Timeline().Series() {
		if match(ser.Table, ser.Column) {
			resp.Series = append(resp.Series, ser)
		}
	}
	for _, c := range eng.Convergence() {
		if match(c.Table, c.Column) {
			resp.Convergence = append(resp.Convergence, c)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// queriesResponse is the /debug/queries JSON document.
type queriesResponse struct {
	Enabled     bool            `json:"enabled"`
	ThresholdMS float64         `json:"slow_threshold_ms"`
	Records     []flight.Record `json:"records"`
}

// handleQueries serves the flight recorder's retained records:
// ?trace= / ?tenant= filter exactly, ?min_ms= keeps statements at least
// that slow, and ?n= bounds the result (default 100). Matching records
// come back newest first.
func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request) {
	eng := s.current()
	if eng == nil {
		http.Error(w, "no engine running", http.StatusServiceUnavailable)
		return
	}
	q := r.URL.Query()
	var minDur time.Duration
	if v := q.Get("min_ms"); v != "" {
		// NaN compares false to everything and an out-of-range float
		// converts to an arbitrary Duration, so both are refused rather
		// than left to invert the filter.
		ms, err := strconv.ParseFloat(v, 64)
		ns := ms * float64(time.Millisecond)
		if err != nil || math.IsNaN(ms) || ms < 0 || ns >= math.MaxInt64 {
			http.Error(w, "bad min_ms: want a finite non-negative number of milliseconds", http.StatusBadRequest)
			return
		}
		minDur = time.Duration(ns)
	}
	n := 100
	if v := q.Get("n"); v != "" {
		i, err := strconv.Atoi(v)
		if err != nil || i <= 0 {
			http.Error(w, "bad n: want a positive integer", http.StatusBadRequest)
			return
		}
		n = i
	}
	fr := eng.Flight()
	recs := fr.Find(q.Get("trace"), q.Get("tenant"), minDur, n)
	if recs == nil {
		recs = []flight.Record{}
	}
	resp := queriesResponse{
		Enabled:     fr.Enabled(),
		ThresholdMS: float64(fr.SlowThreshold()) / float64(time.Millisecond),
		Records:     recs,
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// healthResponse is the /healthz JSON document: build identity plus the
// engine's durability health and flight-recorder counters. Status is
// "ok" (200) or "unhealthy" (503, with Reason naming the failing
// durability condition); a server with no engine stays 200 — the probe
// then only asserts process liveness.
type healthResponse struct {
	Status     string                   `json:"status"`
	Reason     string                   `json:"reason,omitempty"`
	GoVersion  string                   `json:"go_version"`
	Module     string                   `json:"module,omitempty"`
	Revision   string                   `json:"revision,omitempty"`
	Engine     bool                     `json:"engine"`
	Durability *engine.DurabilityHealth `json:"durability,omitempty"`
	Flight     *flight.Stats            `json:"flight,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	eng := s.current()
	resp := healthResponse{
		Status:    "ok",
		GoVersion: runtime.Version(),
		Engine:    eng != nil,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		resp.Module = bi.Main.Path
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				resp.Revision = kv.Value
			}
		}
	}
	status := http.StatusOK
	if eng != nil {
		dh := eng.DurabilityHealth()
		resp.Durability = &dh
		fs := eng.Flight().Stats()
		resp.Flight = &fs
		if !dh.Healthy {
			resp.Status = "unhealthy"
			resp.Reason = dh.Reason
			status = http.StatusServiceUnavailable
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(resp)
}

// Handler returns the observability surface for one fixed engine.
func Handler(eng *engine.Engine) http.Handler {
	return NewServer(func() *engine.Engine { return eng })
}

// Serve binds addr (e.g. "localhost:9090", or ":0" for an ephemeral
// port) and serves Handler(eng) on it in a background goroutine. It
// returns the server and the bound address so callers can print where
// the endpoints landed; shut down with srv.Close or srv.Shutdown.
func Serve(addr string, eng *engine.Engine) (*http.Server, string, error) {
	return serve(addr, Handler(eng))
}

// Start is Serve over this Server, keeping a handle on the scrape
// counters.
func (s *Server) Start(addr string) (*http.Server, string, error) {
	return serve(addr, s)
}

func serve(addr string, h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go func() {
		// ErrServerClosed (and any late accept error) is deliberate
		// shutdown noise; the process-level caller owns the lifecycle.
		_ = srv.Serve(ln)
	}()
	return srv, ln.Addr().String(), nil
}
