// Command aibserver is the multi-tenant network front end: a TCP server
// whose line-oriented protocol executes shell statements through the
// repro.DB.Exec front door, one JSON response per line. Connections
// bind to a tenant with the TENANT handshake; each tenant's misses
// compete for Index Buffer entries within its own quota before the
// global Space.
//
//	$ aibserver -addr 127.0.0.1:7475 -space 100000 \
//	    -tenants 'acme:60000,initech:30000:strict'
//	$ printf 'TENANT acme\nCREATE TABLE t (a INT, p VARCHAR)\n' | nc 127.0.0.1 7475
//	{"ok":true,"output":"tenant acme"}
//	{"ok":true,"output":"created table t (a INT, p VARCHAR)"}
//
// With -obs the Prometheus /metrics and /timeline endpoints are served
// on a second address; per-tenant families (aib_tenant_entries_used,
// aib_tenant_degraded_total, ...) report every tenant's ledger, and
// /timeline?tenant=acme filters the adaptation timeline to one tenant.
// SIGINT/SIGTERM drains gracefully: in-flight statements finish (up to
// the grace period), then connections close.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7475", "TCP listen address for the statement protocol")
	obsAddr := flag.String("obs", "", "serve /metrics, /timeline and /debug/pprof on this address (also enables timeline sampling)")
	workers := flag.Int("workers", 0, "max concurrently executing statements (0 = 4×GOMAXPROCS)")
	tenants := flag.String("tenants", "", "comma-separated tenant specs name:quota[:strict], e.g. 'acme:60000,initech:30000:strict'")
	space := flag.Int("space", 0, "global Index Buffer Space limit in entries (0 = unlimited)")
	data := flag.String("data", "", "directory for persistent storage (reopened if a catalog exists)")
	grace := flag.Duration("grace", 10*time.Second, "shutdown grace period for in-flight statements")
	flag.Parse()

	specs, err := parseTenants(*tenants)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aibserver:", err)
		os.Exit(2)
	}
	opts := repro.Options{SpaceLimit: *space, DataDir: *data, Tenants: specs}
	db, err := open(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aibserver: open:", err)
		os.Exit(1)
	}
	defer db.Close()

	if *obsAddr != "" {
		srv, bound, err := serveObs(db, *obsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aibserver: obs listen:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("observability: http://%s/metrics, /timeline?tenant=<name>, /healthz and /debug/queries?trace=<id>\n", bound)
	}

	srv := server.New(db, server.Config{Addr: *addr, Workers: *workers})
	bound, err := srv.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "aibserver: listen:", err)
		os.Exit(1)
	}
	fmt.Printf("aibserver listening on %s (%d tenants)\n", bound, len(specs))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("aibserver: draining...")
	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "aibserver: forced shutdown:", err)
	}
	fmt.Printf("aibserver: served %d statements (%d errors)\n", srv.Statements(), srv.Errors())
}

// open reopens a DataDir-backed catalog when one exists, else starts
// fresh — the same fallback aibshell uses. A catalog that fails to
// reopen (for example, one naming an undeclared tenant) is an error,
// never a reason to start over on top of it.
func open(opts repro.Options) (*repro.DB, error) {
	if opts.DataDir != "" {
		db, err := repro.OpenExisting(opts)
		if err == nil {
			fmt.Println("reopened database from", opts.DataDir)
			return db, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
	}
	return repro.Open(opts)
}

// serveObs mounts db.MetricsHandler on its own HTTP listener and turns
// on timeline sampling and the per-statement flight recorder, so
// /timeline, /debug/queries and SHOW SLOW have data.
func serveObs(db *repro.DB, addr string) (interface{ Close() error }, string, error) {
	db.EnableTimeline(true)
	db.EnableFlightRecorder(0)
	return db.ServeMetrics(addr)
}

// parseTenants decodes the -tenants flag: "name:quota[:strict]" specs
// separated by commas.
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
