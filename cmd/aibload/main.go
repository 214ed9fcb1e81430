// Command aibload is the load harness for aibserver: it populates one
// table per tenant over the wire, replays seeded query streams from
// many concurrent connections, and reports client-side latency
// percentiles plus the engine-side saved-scan fraction as JSON on
// stdout.
//
// By default it runs self-contained — an in-process server over a fresh
// database — so the report includes engine-side stats and the
// per-tenant quota invariants are verified after the replay (a
// violation exits nonzero). With -addr it drives an external aibserver
// instead, reporting client-side numbers only.
//
//	$ aibload -conns 200 -queries 20 -rows 2000 -space 60000 \
//	    -tenants 'acme:40000,tiny:500'
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/server"
)

func main() {
	conns := flag.Int("conns", 1000, "concurrent client connections")
	queries := flag.Int("queries", 50, "queries per connection")
	tenants := flag.String("tenants", "acme:40000,tiny:500", "tenant specs name:quota[:strict] (in-process mode); connections round-robin over them")
	rows := flag.Int("rows", 2000, "rows per tenant table")
	domain := flag.Int64("domain", 1000, "key domain [1, domain]")
	covered := flag.Int64("covered", 100, "partial-index coverage prefix [1, covered]")
	hitrate := flag.Float64("hitrate", 0.5, "fraction of queries in the covered prefix")
	payload := flag.Int("payload", 0, "pad each row's payload to this many bytes (wide rows overflow the buffer pool)")
	seed := flag.Int64("seed", 1, "base seed; per-connection streams use fixed offsets")
	space := flag.Int("space", 60000, "SpaceLimit for the in-process database (0 = unlimited)")
	workers := flag.Int("workers", 0, "server worker-pool size (in-process mode)")
	poolPages := flag.Int("poolpages", 0, "buffer-pool pages per table, 0 = engine default (in-process mode)")
	addr := flag.String("addr", "", "drive an external server at this address instead of an in-process one")
	flag.Parse()

	cfg := server.DefaultLoadConfig()
	cfg.Conns = *conns
	cfg.QueriesPerConn = *queries
	cfg.Rows = *rows
	cfg.Domain = *domain
	cfg.Covered = *covered
	cfg.HitRate = *hitrate
	cfg.PayloadLen = *payload
	cfg.Seed = *seed

	var db *repro.DB
	target := *addr
	spaceLimit := 0
	if target == "" {
		specs, err := parseTenants(*tenants)
		if err != nil {
			fatal(err)
		}
		cfg.Tenants = tenantNames(specs)
		db, err = repro.Open(repro.Options{
			SpaceLimit: *space,
			Tenants:    specs,
			PoolPages:  *poolPages,
		})
		if err != nil {
			fatal(fmt.Errorf("open: %w", err))
		}
		defer db.Close()
		spaceLimit = *space

		srv := server.New(db, server.Config{Workers: *workers})
		bound, err := srv.Start()
		if err != nil {
			fatal(fmt.Errorf("listen: %w", err))
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		}()
		target = bound.String()
		fmt.Fprintf(os.Stderr, "aibload: in-process server on %s\n", target)
	} else {
		// External servers own their tenant setup; split the flag into
		// names only so connections still round-robin correctly.
		specs, err := parseTenants(*tenants)
		if err != nil {
			fatal(err)
		}
		cfg.Tenants = tenantNames(specs)
	}

	if err := server.SetupLoad(target, cfg); err != nil {
		fatal(fmt.Errorf("setup: %w", err))
	}
	rep, err := server.RunLoad(target, cfg, db)
	if err != nil {
		fatal(fmt.Errorf("run: %w", err))
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(enc))
	fmt.Fprintf(os.Stderr, "aibload: %d conns, latency ms p50 %.2f p90 %.2f p99 %.2f max %.2f, saved-scan fraction %.3f\n",
		rep.Conns, rep.P50MS, rep.P90MS, rep.P99MS, rep.MaxMS, rep.SavedScanFraction)
	for _, tl := range rep.TenantLatency {
		fmt.Fprintf(os.Stderr, "aibload:   tenant %-12s %6d stmts, p50 %.2f p90 %.2f p99 %.2f max %.2f ms\n",
			tl.Tenant, tl.Statements, tl.P50MS, tl.P90MS, tl.P99MS, tl.MaxMS)
	}

	if db != nil {
		if violations := server.VerifyQuotas(db, spaceLimit); len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "aibload: QUOTA VIOLATION:", v)
			}
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "aibload: quota invariants hold")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aibload:", err)
	os.Exit(1)
}

// parseTenants decodes "name:quota[:strict]" specs, the same syntax as
// aibserver's -tenants flag.
func parseTenants(s string) ([]repro.Tenant, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []repro.Tenant
	for _, spec := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(spec), ":")
		if len(parts) < 2 || len(parts) > 3 || parts[0] == "" {
			return nil, fmt.Errorf("bad tenant spec %q (want name:quota[:strict])", spec)
		}
		quota, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("bad tenant quota in %q: %v", spec, err)
		}
		t := repro.Tenant{Name: parts[0], Quota: quota}
		if len(parts) == 3 {
			if parts[2] != "strict" {
				return nil, fmt.Errorf("bad tenant modifier %q in %q (want strict)", parts[2], spec)
			}
			t.Strict = true
		}
		out = append(out, t)
	}
	return out, nil
}

func tenantNames(specs []repro.Tenant) []string {
	if len(specs) == 0 {
		return []string{""}
	}
	names := make([]string, len(specs))
	for i, t := range specs {
		names[i] = t.Name
	}
	return names
}
