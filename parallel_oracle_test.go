package repro

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/storage"
)

// This file checks that scan results do not depend on the worker count:
// two engines differing only in engine.Config.ScanParallelism are driven
// through the same seeded stream of queries and DML, and every
// observable — result sets, query stats, the per-page counter table
// C[p] — must stay identical after every operation. Both engines run
// the same two-phase table-scan pass and differ only in how its read
// phase is chunked — at parallelism 1 the caller reads every page
// itself, at n > 1 a pool reads the chunks — so a divergence means the
// chunking leaked into a result. The pass's correctness is held against
// a reference Algorithm 1 in internal/exec/reference_test.go. CI runs
// this under -race as the parallel-scan stress step.

// oracleHarness is one engine of the property-test pair plus its live
// RID book-keeping.
type oracleHarness struct {
	db   *DB
	tb   *Table
	rids []RID
}

// newOracleHarness builds a DB at the given scan parallelism with a
// deterministically seeded table. Everything except parallelism is
// identical across calls.
func newOracleHarness(t *testing.T, parallelism, rows, keyDomain, covered int) *oracleHarness {
	t.Helper()
	db := openTuned(t, Options{
		IMax:           60,
		PartitionPages: 16,
		SpaceLimit:     3000,
		PoolPages:      48,
		Seed:           11,
	}, false, func(c *engine.Config) { c.ScanParallelism = parallelism })
	t.Cleanup(func() { db.Close() })
	tb, err := db.CreateTable("data", Int64Column("k"), Int64Column("v"), StringColumn("pad"))
	if err != nil {
		t.Fatal(err)
	}
	h := &oracleHarness{db: db, tb: tb}
	for i := 0; i < rows; i++ {
		rid, err := tb.Insert(int64(i%keyDomain), int64(i), fmt.Sprintf("pad-%04d-%0160d", i, i))
		if err != nil {
			t.Fatal(err)
		}
		h.rids = append(h.rids, rid)
	}
	if err := tb.CreatePartialRangeIndex("k", 0, covered-1); err != nil {
		t.Fatal(err)
	}
	return h
}

// normalizeStats zeroes the fields allowed to differ across parallelism
// settings: wall time and the scan fan-out itself.
func normalizeStats(s QueryStats) QueryStats {
	s.Duration = 0
	s.ScanWorkers = 0
	return s
}

// diffCounters asserts the two engines' C[p] tables are identical and
// non-negative on every page.
func diffCounters(t *testing.T, op string, serial, par *oracleHarness) {
	t.Helper()
	sb, pb := serial.tb.t.Buffer(0), par.tb.t.Buffer(0)
	pages := serial.tb.NumPages()
	if pp := par.tb.NumPages(); pp != pages {
		t.Fatalf("%s: page counts diverged: serial %d, parallel %d", op, pages, pp)
	}
	for p := 0; p < pages; p++ {
		pg := storage.PageID(p)
		sc, pc := sb.Counter(pg), pb.Counter(pg)
		if sc != pc {
			t.Fatalf("%s: C[%d] serial %d, parallel %d", op, p, sc, pc)
		}
		if pc < 0 {
			t.Fatalf("%s: C[%d] = %d negative", op, p, pc)
		}
	}
}

// diffQuery asserts one query produced identical results and stats on
// both engines.
func diffQuery(t *testing.T, op string, sRows, pRows []Row, sStats, pStats QueryStats, sErr, pErr error) {
	t.Helper()
	if (sErr == nil) != (pErr == nil) {
		t.Fatalf("%s: serial err %v, parallel err %v", op, sErr, pErr)
	}
	if len(sRows) != len(pRows) {
		t.Fatalf("%s: %d serial rows, %d parallel rows", op, len(sRows), len(pRows))
	}
	for i := range sRows {
		if sRows[i].RID != pRows[i].RID {
			t.Fatalf("%s row %d: serial %v, parallel %v", op, i, sRows[i].RID, pRows[i].RID)
		}
	}
	if ns, np := normalizeStats(sStats), normalizeStats(pStats); ns != np {
		t.Fatalf("%s stats:\nserial   %+v\nparallel %+v", op, ns, np)
	}
}

// TestParallelSerialOracleProperty drives a one-worker engine and an
// n-worker engine through the same randomized mixed query/DML stream and
// checks identity after every operation. Runs at n = 1 (harness
// self-check), 2, and NumCPU; the seed is fixed so failures replay.
func TestParallelSerialOracleProperty(t *testing.T) {
	const (
		rows      = 500
		keyDomain = 40
		covered   = 8
		ops       = 250
	)
	levels := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		levels = append(levels, n)
	}
	for _, par := range levels {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			serial := newOracleHarness(t, 1, rows, keyDomain, covered)
			parallel := newOracleHarness(t, par, rows, keyDomain, covered)
			rng := rand.New(rand.NewSource(99))
			nextRow := rows
			for i := 0; i < ops; i++ {
				var op string
				switch c := rng.Intn(10); {
				case c < 5: // equality query, mostly uncovered keys
					k := int64(rng.Intn(keyDomain))
					op = fmt.Sprintf("op %d: query k=%d", i, k)
					sr, ss, se := serial.tb.Query("k", k)
					pr, ps, pe := parallel.tb.Query("k", k)
					diffQuery(t, op, sr, pr, ss, ps, se, pe)
				case c < 6: // range query
					lo := int64(rng.Intn(keyDomain))
					hi := lo + int64(rng.Intn(keyDomain/4))
					op = fmt.Sprintf("op %d: range [%d,%d]", i, lo, hi)
					sr, ss, se := serial.tb.QueryRange("k", lo, hi)
					pr, ps, pe := parallel.tb.QueryRange("k", lo, hi)
					diffQuery(t, op, sr, pr, ss, ps, se, pe)
				case c < 8: // insert
					k := int64(rng.Intn(keyDomain))
					op = fmt.Sprintf("op %d: insert k=%d", i, k)
					sr, se := serial.tb.Insert(k, int64(nextRow), fmt.Sprintf("pad-%04d-%0160d", nextRow, nextRow))
					pr, pe := parallel.tb.Insert(k, int64(nextRow), fmt.Sprintf("pad-%04d-%0160d", nextRow, nextRow))
					nextRow++
					if se != nil || pe != nil || sr != pr {
						t.Fatalf("%s: serial (%v, %v), parallel (%v, %v)", op, sr, se, pr, pe)
					}
					serial.rids = append(serial.rids, sr)
					parallel.rids = append(parallel.rids, pr)
				case c < 9: // delete a random live row
					if len(serial.rids) == 0 {
						continue
					}
					j := rng.Intn(len(serial.rids))
					op = fmt.Sprintf("op %d: delete %v", i, serial.rids[j])
					se := serial.tb.Delete(serial.rids[j])
					pe := parallel.tb.Delete(parallel.rids[j])
					if se != nil || pe != nil {
						t.Fatalf("%s: serial %v, parallel %v", op, se, pe)
					}
					serial.rids = append(serial.rids[:j], serial.rids[j+1:]...)
					parallel.rids = append(parallel.rids[:j], parallel.rids[j+1:]...)
				default: // update a random live row to a new key
					if len(serial.rids) == 0 {
						continue
					}
					j := rng.Intn(len(serial.rids))
					k := int64(rng.Intn(keyDomain))
					op = fmt.Sprintf("op %d: update %v k=%d", i, serial.rids[j], k)
					sr, se := serial.tb.Update(serial.rids[j], k, int64(nextRow), fmt.Sprintf("pad-%04d-%0160d", nextRow, nextRow))
					pr, pe := parallel.tb.Update(parallel.rids[j], k, int64(nextRow), fmt.Sprintf("pad-%04d-%0160d", nextRow, nextRow))
					nextRow++
					if se != nil || pe != nil || sr != pr {
						t.Fatalf("%s: serial (%v, %v), parallel (%v, %v)", op, sr, se, pr, pe)
					}
					serial.rids[j], parallel.rids[j] = sr, pr
				}
				diffCounters(t, op, serial, parallel)
			}
			// The Space budget balances the buffers on both engines.
			for _, h := range []*oracleHarness{serial, parallel} {
				total := 0
				for _, b := range h.db.eng.Space().Buffers() {
					total += b.EntryCount()
				}
				if used := h.db.SpaceUsed(); used != total {
					t.Fatalf("Space.Used() = %d, buffers hold %d entries", used, total)
				}
			}
		})
	}
}

// TestParallelScanCancellationNoLeaks cancels a query mid-parallel-scan
// and checks the three cancellation guarantees: the caller gets ctx.Err
// promptly (well before the device-bound scan could finish serially),
// the aborted scan applied nothing to the Index Buffer (every C[p] still
// reads its full uncovered count — no page assignment to roll back), and
// every worker goroutine exits.
//
// The deadline must land mid-scan however late a loaded machine fires
// it, so one page read alone outlasts the deadline fourfold and a
// parallel pass over the ~28 pages on 6 workers (8 asked for, capped at
// half the 12-page pool) lasts about 100 ms, 20 times the deadline.
func TestParallelScanCancellationNoLeaks(t *testing.T) {
	const (
		rows        = 1200
		keyDomain   = 100
		covered     = 5
		readLatency = 20 * time.Millisecond
	)
	// The pool is far smaller than the table so the scan stays
	// device-bound: with LRU and a sequential walk, essentially every
	// page fetch pays the simulated read latency.
	db := openTuned(t, Options{
		PoolPages: 12,
		Seed:      3,
	}, false, func(c *engine.Config) {
		c.ScanParallelism = 8
		c.ReadLatency = readLatency
	})
	defer db.Close()
	tb, err := db.CreateTable("data", Int64Column("k"), StringColumn("pad"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := tb.Insert(int64(i%keyDomain), fmt.Sprintf("pad-%04d-%0160d", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.CreatePartialRangeIndex("k", 0, covered-1); err != nil {
		t.Fatal(err)
	}
	pages := tb.NumPages()
	serialFloor := time.Duration(pages) * readLatency // what a serial scan would cost

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = tb.QueryCtx(ctx, "k", int64(covered+1)) // uncovered: needs the indexing scan
	elapsed := time.Since(start)
	if ctx.Err() == nil || err == nil {
		t.Fatalf("query returned err=%v before the context expired (elapsed %v)", err, elapsed)
	}
	if elapsed >= serialFloor/2 {
		t.Errorf("cancellation not prompt: returned after %v, serial scan floor is %v", elapsed, serialFloor)
	}

	// Whole-batch cancellation aborts before the merge: nothing applied.
	if used := db.SpaceUsed(); used != 0 {
		t.Errorf("Space.Used() = %d after canceled scan, want 0", used)
	}
	buf := tb.t.Buffer(0)
	for p := 0; p < pages; p++ {
		pg := storage.PageID(p)
		if got, want := buf.Counter(pg), buf.Uncovered(pg); got != want {
			t.Errorf("C[%d] = %d after canceled scan, want untouched %d", p, got, want)
		}
	}

	// Every worker must exit; give the runtime a moment to reap them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before the canceled scan, %d after", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The engine is healthy: the same query without cancellation completes
	// and builds the buffer.
	rowsOut, stats, err := tb.Query("k", int64(covered+1))
	if err != nil {
		t.Fatal(err)
	}
	if want := rows / keyDomain; len(rowsOut) != want {
		t.Errorf("post-cancel query: %d rows, want %d", len(rowsOut), want)
	}
	if stats.ScanWorkers <= 1 {
		t.Errorf("post-cancel query ran with %d workers, want parallel", stats.ScanWorkers)
	}
	if db.SpaceUsed() == 0 {
		t.Error("post-cancel scan built no buffer entries")
	}
}

// TestConvergedMissScanWorkers checks that ScanWorkers and the
// parallel-scan counters report the workers that actually ran. A cold
// miss reads every page and fans out; once that scan has buffered every
// page, a miss has no page to read, so it runs inline on one worker and
// is not counted as a parallel scan.
func TestConvergedMissScanWorkers(t *testing.T) {
	db := openTuned(t, Options{IMax: 1 << 20, PartitionPages: 1 << 20, PoolPages: 64, Seed: 5}, false,
		func(c *engine.Config) { c.ScanParallelism = 4 })
	defer db.Close()
	tb, err := db.CreateTable("data", Int64Column("k"), StringColumn("pad"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if _, err := tb.Insert(int64(i%10), fmt.Sprintf("pad-%04d-%0160d", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.CreatePartialRangeIndex("k", 0, 4); err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		phase           string
		workers         int
		skipped         int
		parallelCounted uint64
	}{
		{"cold", 4, 0, 1},
		{"converged", 1, tb.NumPages(), 0},
	} {
		before := db.ParallelScanStats()
		rows, stats, err := tb.Query("k", int64(7))
		if err != nil || len(rows) != 40 {
			t.Fatalf("%s miss: %d rows, err %v; want 40", want.phase, len(rows), err)
		}
		after := db.ParallelScanStats()
		if stats.ScanWorkers != want.workers || stats.PagesSkipped != want.skipped {
			t.Errorf("%s miss: %d workers, %d pages skipped; want %d, %d", want.phase, stats.ScanWorkers, stats.PagesSkipped, want.workers, want.skipped)
		}
		if scans := after.Scans - before.Scans; scans != want.parallelCounted {
			t.Errorf("%s miss counted as %d parallel scans, want %d", want.phase, scans, want.parallelCounted)
		}
	}
}

// TestScanWorkersBoundedByPool checks that a scan's fan-out never pins
// more than half its table's pool: with more workers than frames, an
// uncovered point query and a full scan must both succeed on a 16-page
// table whose pool holds one or two pages, and report at most
// max(1, PoolPages/2) workers.
func TestScanWorkersBoundedByPool(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, pool := range []int{1, 2} {
		db := MustOpen(Options{PoolPages: pool, Seed: 1})
		tb, err := db.CreateTable("data", Int64Column("k"), Int64Column("v"), StringColumn("pad"))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; tb.NumPages() < 16; i++ {
			if _, err := tb.Insert(int64(i%10), int64(i), fmt.Sprintf("pad-%0200d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tb.CreatePartialRangeIndex("k", 0, 4); err != nil {
			t.Fatal(err)
		}
		limit := max(1, pool/2)
		for _, q := range []struct{ name, column string }{
			{"uncovered point query", "k"},
			{"full scan", "v"},
		} {
			rows, stats, err := tb.Query(q.column, int64(7))
			if err != nil {
				t.Fatalf("pool %d, %s: %v", pool, q.name, err)
			}
			if len(rows) == 0 {
				t.Errorf("pool %d, %s: no rows", pool, q.name)
			}
			if stats.ScanWorkers > limit {
				t.Errorf("pool %d, %s: %d scan workers, want at most %d", pool, q.name, stats.ScanWorkers, limit)
			}
		}
		db.Close()
	}
}
