package repro

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/storage"
)

// This file pins the one-query-shape contract: a point query is the
// closed range [k, k]. Two identically built databases run the same
// seeded stream of queries and DML, one asking every query as
// Query(k) and the other as QueryRange(k, k); rows, QueryStats (apart
// from wall time), Index Buffer Space occupancy and per-buffer state
// must agree after every operation.

// pointRangeCoverages are the partial-index shapes the equivalence
// covers; each takes a different branch of the coverage test
// (index.CoversWholeRange).
var pointRangeCoverages = []struct {
	name  string
	cov   index.Coverage
	noBuf bool // Options.DisableIndexBuffer
}{
	{name: "range", cov: index.IntRange(0, 7)},
	{name: "set", cov: index.NewSetCoverage(storage.Int64Value(1), storage.Int64Value(4), storage.Int64Value(9), storage.Int64Value(30))},
	{name: "union", cov: index.UnionCoverage{index.IntRange(0, 3), index.IntRange(20, 24)}},
	{name: "none", cov: index.NoneCoverage{}},
	{name: "range-nobuffer", cov: index.IntRange(0, 7), noBuf: true},
}

// newPointRangeHarness builds one database of the pair: a seeded table
// with a partial index of the given coverage on column k.
func newPointRangeHarness(t *testing.T, parallelism int, cov index.Coverage, noBuf bool, rows, keyDomain int) *oracleHarness {
	t.Helper()
	db := openTuned(t, Options{
		IMax:               40,
		PartitionPages:     8,
		SpaceLimit:         400, // tight enough that misses displace
		PoolPages:          48,
		Seed:               5,
		DisableIndexBuffer: noBuf,
	}, false, func(c *engine.Config) { c.ScanParallelism = parallelism })
	t.Cleanup(func() { db.Close() })
	tb, err := db.CreateTable("data", Int64Column("k"), Int64Column("v"), StringColumn("pad"))
	if err != nil {
		t.Fatal(err)
	}
	h := &oracleHarness{db: db, tb: tb}
	for i := 0; i < rows; i++ {
		rid, err := tb.Insert(int64(i%keyDomain), int64(i), fmt.Sprintf("pad-%04d-%0120d", i, i))
		if err != nil {
			t.Fatal(err)
		}
		h.rids = append(h.rids, rid)
	}
	if err := tb.t.CreatePartialIndex(0, cov); err != nil {
		t.Fatal(err)
	}
	return h
}

// diffSpace asserts both databases hold the same Index Buffer state.
func diffSpace(t *testing.T, op string, a, b *oracleHarness) {
	t.Helper()
	if ua, ub := a.db.SpaceUsed(), b.db.SpaceUsed(); ua != ub {
		t.Fatalf("%s: SpaceUsed point %d, range %d", op, ua, ub)
	}
	if ba, bb := a.db.BufferStats(), b.db.BufferStats(); !reflect.DeepEqual(ba, bb) {
		t.Fatalf("%s: BufferStats\npoint %+v\nrange %+v", op, ba, bb)
	}
}

// TestPointQueryEqualsRange drives a Query(k) database and a
// QueryRange(k, k) database through one seeded stream at scan
// parallelism 1 and 2 over every coverage shape.
func TestPointQueryEqualsRange(t *testing.T) {
	const (
		rows      = 600
		keyDomain = 40
		ops       = 160
	)
	for _, c := range pointRangeCoverages {
		for _, par := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/parallelism=%d", c.name, par), func(t *testing.T) {
				point := newPointRangeHarness(t, par, c.cov, c.noBuf, rows, keyDomain)
				rng := newPointRangeHarness(t, par, c.cov, c.noBuf, rows, keyDomain)
				r := rand.New(rand.NewSource(42))
				nextRow := rows
				hits, skipped := 0, 0
				for i := 0; i < ops; i++ {
					var op string
					switch x := r.Intn(10); {
					case x < 6: // point query, a few keys outside the domain
						k := int64(r.Intn(keyDomain+4) - 2)
						op = fmt.Sprintf("op %d: k=%d", i, k)
						pr, ps, pe := point.tb.Query("k", k)
						rr, rs, re := rng.tb.QueryRange("k", k, k)
						diffQuery(t, op, pr, rr, ps, rs, pe, re)
						if ps.ScanWorkers != rs.ScanWorkers {
							t.Fatalf("%s: ScanWorkers point %d, range %d", op, ps.ScanWorkers, rs.ScanWorkers)
						}
						if ps.PartialHit {
							hits++
						}
						skipped += ps.PagesSkipped
					case x < 8: // insert
						k := int64(r.Intn(keyDomain))
						op = fmt.Sprintf("op %d: insert k=%d", i, k)
						pad := fmt.Sprintf("pad-%04d-%0120d", nextRow, nextRow)
						pr, pe := point.tb.Insert(k, int64(nextRow), pad)
						rr, re := rng.tb.Insert(k, int64(nextRow), pad)
						nextRow++
						if pe != nil || re != nil || pr != rr {
							t.Fatalf("%s: point (%v, %v), range (%v, %v)", op, pr, pe, rr, re)
						}
						point.rids = append(point.rids, pr)
						rng.rids = append(rng.rids, rr)
					case x < 9: // update a live row to a new key
						j := r.Intn(len(point.rids))
						k := int64(r.Intn(keyDomain))
						op = fmt.Sprintf("op %d: update %v k=%d", i, point.rids[j], k)
						pad := fmt.Sprintf("pad-%04d-%0120d", nextRow, nextRow)
						pr, pe := point.tb.Update(point.rids[j], k, int64(nextRow), pad)
						rr, re := rng.tb.Update(rng.rids[j], k, int64(nextRow), pad)
						nextRow++
						if pe != nil || re != nil || pr != rr {
							t.Fatalf("%s: point (%v, %v), range (%v, %v)", op, pr, pe, rr, re)
						}
						point.rids[j], rng.rids[j] = pr, rr
					default: // delete a live row
						j := r.Intn(len(point.rids))
						op = fmt.Sprintf("op %d: delete %v", i, point.rids[j])
						if pe, re := point.tb.Delete(point.rids[j]), rng.tb.Delete(rng.rids[j]); pe != nil || re != nil {
							t.Fatalf("%s: point %v, range %v", op, pe, re)
						}
						point.rids = append(point.rids[:j], point.rids[j+1:]...)
						rng.rids = append(rng.rids[:j], rng.rids[j+1:]...)
					}
					diffSpace(t, op, point, rng)
					if !c.noBuf {
						diffCounters(t, op, point, rng)
					}
				}
				// The stream reached both sides of the fork it pins.
				if _, none := c.cov.(index.NoneCoverage); hits == 0 && !none {
					t.Error("no query hit the partial index")
				}
				if skipped == 0 && !c.noBuf {
					t.Error("no scan skipped a page")
				}
			})
		}
	}
}

// TestEmptyRangeIsNotAScan checks that a range with hi < lo is labelled
// an empty range on both read arms — in the shell's summary line and as
// the mechanism of the latency histograms — and never counted as the
// indexing scan it does not run.
func TestEmptyRangeIsNotAScan(t *testing.T) {
	ctx := context.Background()
	for _, locked := range []bool{false, true} {
		t.Run(fmt.Sprintf("locked=%v", locked), func(t *testing.T) {
			db := openTuned(t, Options{}, false, func(c *engine.Config) { c.DisableEpochReadPath = locked })
			defer db.Close()
			for _, stmt := range []string{"CREATE TABLE t (k INT)", "INSERT INTO t VALUES (4)"} {
				if _, err := db.Exec(ctx, stmt); err != nil {
					t.Fatal(err)
				}
			}
			res, err := db.Exec(ctx, "SELECT * FROM t WHERE k BETWEEN 5 AND 3")
			if err != nil || res.Rows != 0 || !strings.Contains(res.Output, "empty range:") {
				t.Fatalf("empty range = %+v, %v; want 0 rows reported as an empty range", res, err)
			}
			lat := db.eng.Tracer().LatencyStats()
			if len(lat) != 1 || lat[0].Mechanism != "empty-range" || lat[0].Count != 1 {
				t.Fatalf("latency mechanisms = %+v, want one empty-range query", lat)
			}
		})
	}
}
