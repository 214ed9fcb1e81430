// Command aibench regenerates the paper's figures. Each -fig value runs
// the corresponding experiment of "Adaptive Index Buffer" (ICDEW 2012)
// and prints the per-query series as an aligned table, TSV, or an ASCII
// plot.
//
// Usage:
//
//	aibench -fig 6                 # experiment 1 (Figure 6), default scale
//	aibench -fig 8 -rows 500000    # experiment 3 at the paper's full size
//	aibench -fig all -format plot  # every figure as ASCII plots
//	aibench -fig 3 -format tsv > fig3.tsv
//	aibench -robustness -baseline BENCH_robustness.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sync/atomic"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/timeline"
)

func main() {
	var (
		fig        = flag.String("fig", "all", "figure to regenerate: 1, 3, 6, 7, 8, 9, bridge, corr, churn or all")
		rows       = flag.Int("rows", 50000, "table rows (paper: 500000)")
		queries    = flag.Int("queries", 200, "queries per experiment (paper: 200)")
		seed       = flag.Int64("seed", 1, "random seed")
		format     = flag.String("format", "table", "output format: table, tsv or plot")
		step       = flag.Int("step", 10, "table output: print every step-th query")
		latency    = flag.Duration("latency", 0, "simulated device read latency (e.g. 100us); shapes wall-clock series")
		listen     = flag.String("listen", "", "serve /metrics and /timeline (current experiment) and /debug/pprof on this address")
		telemetry  = flag.String("telemetry", "", "stream structured telemetry (spans + timeline samples) as JSONL to this file")
		verify     = flag.String("verify-telemetry", "", "validate a telemetry JSONL file and exit (no experiments run)")
		robustness = flag.Bool("robustness", false, "run the workload-robustness scenario suite instead of figures")
		out        = flag.String("out", "", "robustness: write the result as JSON to this file")
		baseline   = flag.String("baseline", "", "robustness: compare against this committed baseline JSON and fail on regression")
	)
	flag.Parse()

	if err := checkRobustnessFlags(*robustness, *out, *baseline); err != nil {
		fmt.Fprintln(os.Stderr, "aibench:", err)
		flag.Usage()
		os.Exit(2)
	}

	if *verify != "" {
		if err := verifyTelemetry(*verify); err != nil {
			fmt.Fprintln(os.Stderr, "aibench: verify-telemetry:", err)
			os.Exit(1)
		}
		return
	}

	if *robustness {
		// The robustness matrix runs 15 engine setups, so it defaults to
		// its own smaller scale; -rows/-queries/-seed still win when given
		// explicitly.
		o := bench.Options{Seed: *seed}
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "rows":
				o.Rows = *rows
			case "queries":
				o.Queries = *queries
			}
		})
		if err := runRobustness(o, *out, *baseline); err != nil {
			fmt.Fprintln(os.Stderr, "aibench: robustness:", err)
			os.Exit(1)
		}
		return
	}

	var sink *timeline.Sink
	var sinkFile *os.File
	if *telemetry != "" {
		f, err := os.Create(*telemetry)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aibench: telemetry:", err)
			os.Exit(1)
		}
		sinkFile = f
		sink = timeline.NewSink(f)
	}

	// Experiments build their own engines; track the latest so /metrics
	// and /timeline follow whichever experiment is running, and so each
	// engine gets its telemetry wired up as it is created.
	var current atomic.Pointer[engine.Engine]
	observing := *listen != "" || sink != nil
	if observing {
		bench.SetEngineObserver(func(e *engine.Engine) {
			e.Timeline().Enable(true)
			if sink != nil {
				e.SetTelemetrySink(sink)
			}
			current.Store(e)
		})
	}

	var server *obs.Server
	var addr string
	if *listen != "" {
		server = obs.NewServer(current.Load)
		srv, boundAddr, err := server.Start(*listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aibench: listen:", err)
			os.Exit(1)
		}
		defer srv.Close()
		addr = boundAddr
		fmt.Printf("observability: http://%s/metrics, /timeline and /debug/pprof/\n", addr)
	}

	opts := bench.Options{Rows: *rows, Queries: *queries, Seed: *seed, ReadLatency: *latency}
	figs := []string{*fig}
	if *fig == "all" {
		figs = []string{"1", "3", "6", "7", "8", "9", "bridge", "corr", "churn"}
	}
	for _, f := range figs {
		if err := run(f, opts, *format, *step); err != nil {
			fmt.Fprintf(os.Stderr, "aibench: figure %s: %v\n", f, err)
			os.Exit(1)
		}
		if observing {
			printConvergence(current.Load())
		}
	}

	failed := false
	if server != nil {
		if err := selfScrape(addr); err != nil {
			fmt.Fprintln(os.Stderr, "aibench: self-scrape:", err)
			failed = true
		}
		if st := server.ScrapeStats(); st.Errors > 0 {
			fmt.Fprintf(os.Stderr, "aibench: %d of %d scrapes failed mid-stream\n", st.Errors, st.Scrapes)
			failed = true
		}
	}
	if sink != nil {
		st := sink.Stats()
		if err := sinkFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "aibench: telemetry:", err)
			failed = true
		}
		if st.Errors > 0 {
			fmt.Fprintf(os.Stderr, "aibench: telemetry: %d records dropped (last error: %v)\n", st.Errors, sink.Err())
			failed = true
		} else {
			fmt.Printf("telemetry: %d records -> %s\n", st.Lines, *telemetry)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runRobustness runs the scenario × selection-arm matrix, prints it,
// enforces the adversarial acceptance criterion, and optionally writes
// the JSON artifact and diffs it against a committed baseline.
func runRobustness(o bench.Options, out, baseline string) error {
	r, err := bench.RunRobustness(o)
	if err != nil {
		return err
	}
	fmt.Printf("== Workload robustness: %d rows, %d ops per cell, seed %d, target %.0f%% coverage ==\n",
		r.Rows, r.Ops, r.Seed, 100*r.Target)
	for _, sc := range r.Scenarios {
		fmt.Printf("%s:\n", sc.Scenario)
		for _, a := range sc.Arms {
			verdict := fmt.Sprintf("converged after %d ops", a.OpsToTarget)
			if !a.Achieved {
				verdict = fmt.Sprintf("NOT converged in %d ops (max coverage %.1f%%)", r.Ops, 100*a.MaxCoverage)
			}
			fmt.Printf("  %-14s %s\n", a.Arm, verdict)
		}
	}
	fmt.Println()

	if out != "" {
		data, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("robustness matrix -> %s\n", out)
	}
	if err := r.CheckAdversarial(); err != nil {
		return err
	}
	fmt.Println("adversarial criterion: ok (stochastic selection converges in <= half the deterministic arm's ops)")
	if baseline != "" {
		data, err := os.ReadFile(baseline)
		if err != nil {
			return err
		}
		var base bench.RobustnessResult
		if err := json.Unmarshal(data, &base); err != nil {
			return fmt.Errorf("baseline %s: %w", baseline, err)
		}
		if regs := r.CompareBaseline(&base); len(regs) > 0 {
			for _, reg := range regs {
				fmt.Fprintln(os.Stderr, "regression:", reg)
			}
			return fmt.Errorf("%d regression(s) vs baseline %s", len(regs), baseline)
		}
		fmt.Printf("baseline %s: no regressions\n", baseline)
	}
	return nil
}

// checkRobustnessFlags rejects -out and -baseline without -robustness:
// the figure runs write no JSON, so either flag alone would be silently
// ignored.
func checkRobustnessFlags(robustness bool, out, baseline string) error {
	switch {
	case robustness:
		return nil
	case out != "":
		return fmt.Errorf("-out requires -robustness")
	case baseline != "":
		return fmt.Errorf("-baseline requires -robustness")
	}
	return nil
}

// printConvergence summarizes the just-finished experiment's timeline
// verdicts — the paper-shaped "queries to X% coverage" readout.
func printConvergence(e *engine.Engine) {
	if e == nil {
		return
	}
	convs := e.Convergence()
	if len(convs) == 0 {
		return
	}
	fmt.Println("convergence:")
	for _, c := range convs {
		switch {
		case c.Achieved && c.Regressed:
			fmt.Printf("  %-20s reached %.0f%% coverage after %d queries, then REGRESSED (now %.1f%%)\n",
				c.Buffer, 100*c.Target, c.QueriesToTarget, 100*c.Coverage)
		case c.Achieved:
			fmt.Printf("  %-20s reached %.0f%% coverage after %d queries (now %.1f%%)\n",
				c.Buffer, 100*c.Target, c.QueriesToTarget, 100*c.Coverage)
		default:
			fmt.Printf("  %-20s below the %.0f%% target: %.1f%% after %d queries (max %.1f%%)\n",
				c.Buffer, 100*c.Target, 100*c.Coverage, c.Queries, 100*c.MaxCoverage)
		}
	}
	fmt.Println()
}

// selfScrape hits the run's own /metrics and /timeline once after the
// experiments finish, so a CI smoke run fails loudly when either
// endpoint stops parsing or serving.
func selfScrape(addr string) error {
	for _, path := range []string{"/metrics", "/timeline", "/healthz"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %s", path, resp.Status)
		}
	}
	return nil
}

// verifyTelemetry decodes every record of a JSONL telemetry file and
// applies basic sanity rules: coverage within [0, 1], skippable pages
// within the total, per-buffer query ordinals non-decreasing, span
// kinds non-empty. Any malformed line fails the whole file.
func verifyTelemetry(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	samples, spans := 0, 0
	lastQuery := make(map[string]uint64)
	n, err := timeline.ScanRecords(f,
		func(rec timeline.SampleRecord) error {
			samples++
			if rec.Buffer == "" {
				return fmt.Errorf("sample without buffer")
			}
			if rec.Coverage < 0 || rec.Coverage > 1 {
				return fmt.Errorf("buffer %s: coverage %g outside [0, 1]", rec.Buffer, rec.Coverage)
			}
			if rec.Skippable > rec.TotalPages {
				return fmt.Errorf("buffer %s: %d skippable of %d pages", rec.Buffer, rec.Skippable, rec.TotalPages)
			}
			if rec.Query < lastQuery[rec.Buffer] {
				return fmt.Errorf("buffer %s: query ordinal went backwards (%d after %d)", rec.Buffer, rec.Query, lastQuery[rec.Buffer])
			}
			lastQuery[rec.Buffer] = rec.Query
			return nil
		},
		func(sp flight.Span) error {
			spans++
			if sp.Kind == "" {
				return fmt.Errorf("span without kind")
			}
			return nil
		}, nil)
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("%s: no records", path)
	}
	fmt.Printf("telemetry ok: %d records (%d samples, %d spans) in %s\n", n, samples, spans, path)
	return nil
}

func run(fig string, opts bench.Options, format string, step int) error {
	switch fig {
	case "1":
		fmt.Println("== Figure 1: control loop delay of adaptive partial indexing ==")
		r, err := bench.RunFig1(bench.DefaultFig1Options())
		if err != nil {
			return err
		}
		emit(r.Frame(), format, step)
		fmt.Printf("summary: hit rate pre-shift %.2f, during shift %.2f, recovered %.2f\n\n",
			r.HitRate.MeanRange(150, 200), r.HitRate.MeanRange(300, 340), r.HitRate.MeanRange(450, 500))

	case "3":
		fmt.Println("== Figure 3: share of fully indexed pages vs. order correlation ==")
		o := bench.DefaultFig3Options()
		r, err := bench.RunFig3(o)
		if err != nil {
			return err
		}
		emit(r.Frame(), format, 1)
		fmt.Println("summary: rows are correlation 1.00 down to 0.00 in 0.05 steps")
		fmt.Println()

	case "6":
		fmt.Println("== Figure 6: single Index Buffer, unlimited space (experiment 1) ==")
		r, err := bench.RunFig6(opts)
		if err != nil {
			return err
		}
		emit(r.Frame(), format, step)
		fmt.Printf("summary: table %d pages; query cost %0.f pages initially, %.1f after build-out; buffer ends at %d entries\n",
			r.TablePages, r.PagesRead.Y[0], r.PagesRead.MeanRange(r.PagesRead.Len()/2, r.PagesRead.Len()), int(r.Entries.Y[r.Entries.Len()-1]))
		fmt.Printf("wall-clock: %s\n\n", r.WallSummary())

	case "7":
		fmt.Println("== Figure 7: varying I^MAX and Index Buffer Space size (experiment 2) ==")
		r, err := bench.RunFig7(opts, nil)
		if err != nil {
			return err
		}
		emit(r.Frame(), format, step)
		fmt.Printf("summary: table %d pages; late per-query cost per configuration:\n", r.TablePages)
		for _, c := range r.Curves {
			fmt.Printf("  %-22s %8.1f pages\n", c.Config.Label(), c.PagesRead.MeanRange(c.PagesRead.Len()/2, c.PagesRead.Len()))
		}
		fmt.Println()

	case "8":
		fmt.Println("== Figure 8: three Index Buffers with limited space (experiment 3) ==")
		r, err := bench.RunFig8(opts)
		if err != nil {
			return err
		}
		emit(r.Frame(), format, step)
		n := r.Entries[0].Len()
		fmt.Printf("summary: space limit %d entries; occupancy A/B/C: first period %0.f/%0.f/%0.f, second period %0.f/%0.f/%0.f\n\n",
			r.SpaceLimit,
			r.Entries[0].MeanRange(n/4, n/2), r.Entries[1].MeanRange(n/4, n/2), r.Entries[2].MeanRange(n/4, n/2),
			r.Entries[0].MeanRange(3*n/4, n), r.Entries[1].MeanRange(3*n/4, n), r.Entries[2].MeanRange(3*n/4, n))

	case "9":
		fmt.Println("== Figure 9: limited space with partial index hits on column A (experiment 4) ==")
		r, err := bench.RunFig9(opts)
		if err != nil {
			return err
		}
		emit(r.Frame(), format, step)
		n := r.Entries[0].Len()
		fmt.Printf("summary: space limit %d entries; A's occupancy %0.f (80%% hits) -> %0.f (20%% hits)\n\n",
			r.SpaceLimit, r.Entries[0].MeanRange(n/4, n/2), r.Entries[0].MeanRange(3*n/4, n))

	case "bridge":
		fmt.Println("== Bridge (extension): Index Buffer covering the adaptation gap ==")
		r, err := bench.RunBridge(bench.BridgeOptions{Rows: opts.Rows, Queries: opts.Queries, Seed: opts.Seed})
		if err != nil {
			return err
		}
		emit(r.Frame(), format, step)
		base, adapt, adaptBuf := r.Cumulative()
		fmt.Printf("summary: partial index adapted at query %d; cumulative pages read: baseline %.0f, adapt-only %.0f, adapt+buffer %.0f (%.1fx saved vs baseline)\n\n",
			r.AdaptedAt, base, adapt, adaptBuf, base/adaptBuf)

	case "corr":
		fmt.Println("== Correlation (extension): Fig. 3's argument inside the engine ==")
		r, err := bench.RunCorrelation(bench.CorrelationOptions{Rows: opts.Rows / 2, Seed: opts.Seed})
		if err != nil {
			return err
		}
		emit(r.Frame(), format, 1)
		fmt.Println("summary: per correlation level — pages skippable via the partial index alone, and the buffer cost of full skip coverage:")
		for _, p := range r.Points {
			fmt.Printf("  corr %.2f: natural skip share %.1f%%, buffer completes %d pages with %d entries, steady cost %.1f pages/query\n",
				p.Measured, 100*p.NaturalSkipShare, p.BufferedPages, p.BufferEntries, p.SteadyMissPages)
		}
		fmt.Println()

	case "churn":
		fmt.Println("== Churn (extension): Table I maintenance under mixed query/DML ==")
		r, err := bench.RunChurn(bench.ChurnOptions{Rows: opts.Rows / 2, Operations: 2 * opts.Queries, Seed: opts.Seed})
		if err != nil {
			return err
		}
		emit(r.Frame(), format, step)
		n := r.QueryPages.Len()
		fmt.Printf("summary: %d queries interleaved with %d DML ops; query cost %0.f pages initially, %.1f in the second half\n\n",
			r.Queries, r.DML, r.QueryPages.Y[0], r.QueryPages.MeanRange(n/2, n))

	default:
		return fmt.Errorf("unknown figure %q (want 1, 3, 6, 7, 8, 9, bridge, corr, churn or all)", fig)
	}
	return nil
}

func emit(f *metrics.Frame, format string, step int) {
	switch format {
	case "tsv":
		_ = f.WriteTSV(os.Stdout)
	case "plot":
		fmt.Print(f.ASCIIPlot(80, 16))
	default:
		_ = f.WriteTable(os.Stdout, step)
	}
}
