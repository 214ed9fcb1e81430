package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/workload"
)

// This file is the load harness behind cmd/aibload and the server
// stress tests: it populates one table per tenant over the wire, then
// replays seeded query-only streams from many concurrent connections
// and reports client-side latency percentiles plus the engine-side
// saved-scan fraction. The measured phase issues only SELECTs — the
// per-tenant quota is a hard invariant for query traffic, so a replay
// that mixed in DML could not assert it afterwards.

// LoadConfig shapes one load run. The zero value is not runnable; use
// DefaultLoadConfig as a base.
type LoadConfig struct {
	// Conns is the number of concurrent client connections.
	Conns int
	// QueriesPerConn is the number of SELECTs each connection replays.
	QueriesPerConn int
	// Tenants are the tenant names connections round-robin over; an
	// empty entry is the default tenant. Each tenant gets its own table.
	Tenants []string
	// Rows per tenant table.
	Rows int
	// Domain is the key domain [1, Domain] of the indexed column.
	Domain int64
	// Covered is the partial-index coverage prefix [1, Covered].
	Covered int64
	// HitRate is the fraction of queries drawn from the covered prefix.
	HitRate float64
	// PayloadLen, when positive, pads every row's payload column to this
	// many bytes. Wide rows spread the table over more pages than the
	// buffer pool holds, so indexing scans pay simulated-disk reads and
	// run long enough for concurrent misses to share them.
	PayloadLen int
	// Seed drives every random stream; per-connection sub-streams use
	// fixed offsets from it, so a run is reproducible.
	Seed int64
	// DialTimeout bounds each connection attempt.
	DialTimeout time.Duration
}

// DefaultLoadConfig is a short smoke-sized run.
func DefaultLoadConfig() LoadConfig {
	return LoadConfig{
		Conns:          64,
		QueriesPerConn: 50,
		Tenants:        []string{""},
		Rows:           2000,
		Domain:         1000,
		Covered:        100,
		HitRate:        0.5,
		Seed:           1,
		DialTimeout:    10 * time.Second,
	}
}

// LoadReport is the JSON document a load run produces.
type LoadReport struct {
	Conns          int     `json:"conns"`
	QueriesPerConn int     `json:"queries_per_conn"`
	Statements     int     `json:"statements"`
	Errors         int     `json:"errors"`
	DurationMS     float64 `json:"duration_ms"`
	Throughput     float64 `json:"statements_per_sec"`
	P50MS          float64 `json:"p50_ms"`
	P90MS          float64 `json:"p90_ms"`
	P95MS          float64 `json:"p95_ms"`
	P99MS          float64 `json:"p99_ms"`
	MaxMS          float64 `json:"max_ms"`
	// TenantLatency breaks the client-side latency distribution down by
	// tenant, in the round-robin order of LoadConfig.Tenants. Quota-tight
	// tenants degrade to unindexed scans, so their tail separates from
	// the well-provisioned tenants' here.
	TenantLatency []TenantLatency `json:"tenant_latency,omitempty"`
	// SavedScanFraction is engine-side: the share of admitted misses
	// whose indexing scan was avoided by riding along on another's
	// (metrics.SharedScanStats.Saved / Misses). Only populated when the
	// run has in-process access to the database.
	SavedScanFraction float64 `json:"saved_scan_fraction"`
	// Tenants is the post-run quota ledger (in-process runs only).
	Tenants []repro.TenantStats `json:"tenants,omitempty"`
}

// TenantLatency is one tenant's slice of the replay: statement count,
// protocol errors, and the latency distribution in milliseconds.
type TenantLatency struct {
	Tenant     string  `json:"tenant"`
	Statements int     `json:"statements"`
	Errors     int     `json:"errors"`
	P50MS      float64 `json:"p50_ms"`
	P90MS      float64 `json:"p90_ms"`
	P99MS      float64 `json:"p99_ms"`
	MaxMS      float64 `json:"max_ms"`
}

// latencySummary sorts lats in place and reads the p50/p90/p95/p99/max
// milliseconds (zeros for an empty slice).
func latencySummary(lats []time.Duration) (p50, p90, p95, p99, max float64) {
	n := len(lats)
	if n == 0 {
		return
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	p50 = ms(lats[n*50/100])
	p90 = ms(lats[min(n-1, n*90/100)])
	p95 = ms(lats[min(n-1, n*95/100)])
	p99 = ms(lats[min(n-1, n*99/100)])
	max = ms(lats[n-1])
	return
}

// loadClient is one wire connection: statement out, JSON response in.
type loadClient struct {
	conn net.Conn
	sc   *bufio.Scanner
}

func dialClient(addr string, timeout time.Duration) (*loadClient, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	return &loadClient{conn: conn, sc: sc}, nil
}

func (c *loadClient) close() { c.conn.Close() }

// do sends one statement and decodes the response line.
func (c *loadClient) do(stmt string) (response, error) {
	if _, err := fmt.Fprintf(c.conn, "%s\n", stmt); err != nil {
		return response{}, err
	}
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return response{}, err
		}
		return response{}, fmt.Errorf("connection closed mid-response")
	}
	var r response
	if err := json.Unmarshal(c.sc.Bytes(), &r); err != nil {
		return response{}, fmt.Errorf("bad response line %q: %w", c.sc.Text(), err)
	}
	return r, nil
}

// mustOK is do plus turning a protocol-level failure into an error.
func (c *loadClient) mustOK(stmt string) (response, error) {
	r, err := c.do(stmt)
	if err != nil {
		return r, err
	}
	if !r.OK {
		return r, fmt.Errorf("statement %q failed: %s (%s)", stmt, r.Error, r.Code)
	}
	return r, nil
}

// SetupLoad creates and populates one table ("t", columns a INT /
// payload VARCHAR) per tenant over the wire, then covers [1, Covered]
// with a partial index so the replay phase exercises hits, misses and —
// for quota-tight tenants — degraded scans.
func SetupLoad(addr string, cfg LoadConfig) error {
	const batch = 500
	for _, tenant := range cfg.Tenants {
		c, err := dialClient(addr, cfg.DialTimeout)
		if err != nil {
			return fmt.Errorf("setup dial: %w", err)
		}
		err = func() error {
			defer c.close()
			if tenant != "" {
				if _, err := c.mustOK("TENANT " + tenant); err != nil {
					return err
				}
			}
			if _, err := c.mustOK("CREATE TABLE t (a INT, payload VARCHAR)"); err != nil {
				return err
			}
			rng := rand.New(rand.NewSource(cfg.Seed + 17))
			var pad string
			if cfg.PayloadLen > 0 {
				pad = strings.Repeat("x", cfg.PayloadLen)
			}
			for lo := 0; lo < cfg.Rows; lo += batch {
				hi := lo + batch
				if hi > cfg.Rows {
					hi = cfg.Rows
				}
				var sb strings.Builder
				sb.WriteString("INSERT INTO t VALUES ")
				for i := lo; i < hi; i++ {
					if i > lo {
						sb.WriteString(", ")
					}
					key := rng.Int63n(cfg.Domain) + 1
					fmt.Fprintf(&sb, "(%d, 'p%d%s')", key, i, pad)
				}
				if _, err := c.mustOK(sb.String()); err != nil {
					return err
				}
			}
			stmt := fmt.Sprintf("CREATE PARTIAL INDEX ON t (a) COVERING 1 TO %d", cfg.Covered)
			if _, err := c.mustOK(stmt); err != nil {
				return err
			}
			return nil
		}()
		if err != nil {
			return fmt.Errorf("setup tenant %q: %w", tenant, err)
		}
	}
	return nil
}

// RunLoad replays the configured query streams against addr and
// aggregates the report. db may be nil (external server) — then the
// engine-side fields stay zero. RunLoad does not call SetupLoad; run it
// first on a fresh database.
func RunLoad(addr string, cfg LoadConfig, db *repro.DB) (LoadReport, error) {
	if cfg.Conns <= 0 || cfg.QueriesPerConn <= 0 || len(cfg.Tenants) == 0 {
		return LoadReport{}, fmt.Errorf("load: Conns, QueriesPerConn and Tenants must be set")
	}

	var before repro.SharedScanStats
	if db != nil {
		before = db.SharedScanStats()
	}

	type connResult struct {
		latencies []time.Duration
		errors    int
		err       error // fatal (dial / transport) error
	}
	results := make([]connResult, cfg.Conns)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.Conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res := &results[i]
			c, err := dialClient(addr, cfg.DialTimeout)
			if err != nil {
				res.err = err
				return
			}
			defer c.close()
			tenant := cfg.Tenants[i%len(cfg.Tenants)]
			if tenant != "" {
				if _, err := c.mustOK("TENANT " + tenant); err != nil {
					res.err = err
					return
				}
			}
			// Per-connection sub-stream at a fixed offset, repo seeding
			// convention: reproducible, and distinct across connections.
			rng := rand.New(rand.NewSource(cfg.Seed + 1000*int64(i) + 7))
			draw := workload.WithHitRate(cfg.HitRate,
				workload.Uniform(1, cfg.Covered),
				workload.Uniform(cfg.Covered+1, cfg.Domain))
			res.latencies = make([]time.Duration, 0, cfg.QueriesPerConn)
			for q := 0; q < cfg.QueriesPerConn; q++ {
				stmt := fmt.Sprintf("SELECT * FROM t WHERE a = %d", draw(rng))
				t0 := time.Now()
				r, err := c.do(stmt)
				if err != nil {
					res.err = err
					return
				}
				res.latencies = append(res.latencies, time.Since(t0))
				if !r.OK {
					res.errors++
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	perTenant := make(map[string][]time.Duration, len(cfg.Tenants))
	tenantErrs := make(map[string]int, len(cfg.Tenants))
	rep := LoadReport{Conns: cfg.Conns, QueriesPerConn: cfg.QueriesPerConn}
	for i := range results {
		if results[i].err != nil {
			return rep, fmt.Errorf("conn %d: %w", i, results[i].err)
		}
		tenant := cfg.Tenants[i%len(cfg.Tenants)]
		all = append(all, results[i].latencies...)
		perTenant[tenant] = append(perTenant[tenant], results[i].latencies...)
		tenantErrs[tenant] += results[i].errors
		rep.Errors += results[i].errors
	}
	rep.Statements = len(all)
	rep.DurationMS = float64(elapsed.Microseconds()) / 1e3
	if elapsed > 0 {
		rep.Throughput = float64(rep.Statements) / elapsed.Seconds()
	}
	rep.P50MS, rep.P90MS, rep.P95MS, rep.P99MS, rep.MaxMS = latencySummary(all)
	for _, tenant := range cfg.Tenants {
		lats, seen := perTenant[tenant]
		if !seen {
			continue
		}
		delete(perTenant, tenant) // a tenant listed twice reports once
		name := tenant
		if name == "" {
			name = "default"
		}
		tl := TenantLatency{Tenant: name, Statements: len(lats), Errors: tenantErrs[tenant]}
		tl.P50MS, tl.P90MS, _, tl.P99MS, tl.MaxMS = latencySummary(lats)
		rep.TenantLatency = append(rep.TenantLatency, tl)
	}

	if db != nil {
		after := db.SharedScanStats()
		if misses := after.Misses - before.Misses; misses > 0 {
			rep.SavedScanFraction = float64(after.Saved-before.Saved) / float64(misses)
		}
		rep.Tenants = db.TenantStats()
	}
	return rep, nil
}

// VerifyQuotas checks the hard per-tenant invariants after a query-only
// replay: every tenant's occupancy within its quota, and the sum of all
// occupancies within the global SpaceLimit. It returns one message per
// violation (empty = clean).
func VerifyQuotas(db *repro.DB, spaceLimit int) []string {
	var violations []string
	total := 0
	for _, ts := range db.TenantStats() {
		total += ts.Used
		if ts.Quota > 0 && ts.Used > ts.Quota {
			violations = append(violations,
				fmt.Sprintf("tenant %q: used %d > quota %d", ts.Name, ts.Used, ts.Quota))
		}
	}
	if spaceLimit > 0 && total > spaceLimit {
		violations = append(violations,
			fmt.Sprintf("tenant ledgers sum to %d > SpaceLimit %d", total, spaceLimit))
	}
	if used := db.SpaceUsed(); spaceLimit > 0 && used > spaceLimit {
		violations = append(violations,
			fmt.Sprintf("space used %d > SpaceLimit %d", used, spaceLimit))
	}
	return violations
}
