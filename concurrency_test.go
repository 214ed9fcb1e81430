package repro

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/storage"
)

// TestConcurrentStress mixes queries, inserts, updates and index
// redefinitions from many goroutines over two shared tables, then checks
// the paper's counter invariant (C[p] >= 0 for every page) and result
// correctness against a serial full-scan oracle. Run with -race; the
// engine must make concurrent progress without an engine-wide lock.
func TestConcurrentStress(t *testing.T) {
	const (
		keyDomain  = 50
		seedRows   = 400
		readers    = 4
		writerOps  = 300
		readerOps  = 400
		redefineOp = 40
	)
	db := MustOpen(Options{IMax: 40, PartitionPages: 16, SpaceLimit: 4000, Seed: 7})
	defer db.Close()

	mkTable := func(name string) *Table {
		tb, err := db.CreateTable(name, Int64Column("k"), Int64Column("v"), StringColumn("pad"))
		if err != nil {
			t.Fatalf("CreateTable %s: %v", name, err)
		}
		for i := 0; i < seedRows; i++ {
			if _, err := tb.Insert(int64(i%keyDomain), int64(i), fmt.Sprintf("pad-%04d-%032d", i, i)); err != nil {
				t.Fatalf("seed insert: %v", err)
			}
		}
		if err := tb.CreatePartialRangeIndex("k", 0, keyDomain/4); err != nil {
			t.Fatalf("index: %v", err)
		}
		return tb
	}
	tables := []*Table{mkTable("alpha"), mkTable("beta")}

	var wg sync.WaitGroup
	var inserted atomic.Int64
	errCh := make(chan error, 64)
	report := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}

	// Readers: every returned row must actually satisfy the predicate —
	// a torn scan or a displacement race would surface as a stray value.
	for g := 0; g < readers; g++ {
		for ti, tb := range tables {
			wg.Add(1)
			go func(g, ti int, tb *Table) {
				defer wg.Done()
				for i := 0; i < readerOps; i++ {
					key := int64((g*31 + i) % keyDomain)
					rows, _, err := tb.Query("k", key)
					if err != nil {
						report(fmt.Errorf("Query: %w", err))
						return
					}
					for _, r := range rows {
						got, err := r.Int64("k")
						if err != nil {
							report(err)
							return
						}
						if got != key {
							report(fmt.Errorf("Query(k=%d) returned row with k=%d", key, got))
							return
						}
					}
					if i%5 == 0 {
						lo := key
						hi := key + 3
						rows, _, err := tb.QueryRange("k", lo, hi)
						if err != nil {
							report(fmt.Errorf("QueryRange: %w", err))
							return
						}
						for _, r := range rows {
							got, _ := r.Int64("k")
							if got < lo || got > hi {
								report(fmt.Errorf("QueryRange[%d,%d] returned k=%d", lo, hi, got))
								return
							}
						}
					}
				}
			}(g, ti, tb)
		}
	}

	// Writers: one per table, owning the RIDs it creates so updates never
	// race on relocated rows.
	for _, tb := range tables {
		wg.Add(1)
		go func(tb *Table) {
			defer wg.Done()
			var mine []RID
			for i := 0; i < writerOps; i++ {
				if i%3 != 2 || len(mine) == 0 {
					rid, err := tb.Insert(int64(i%keyDomain), int64(1000+i), fmt.Sprintf("w-%04d-%032d", i, i))
					if err != nil {
						report(fmt.Errorf("Insert: %w", err))
						return
					}
					mine = append(mine, rid)
					inserted.Add(1)
				} else {
					j := i % len(mine)
					rid, err := tb.Update(mine[j], int64((i*7)%keyDomain), int64(2000+i), fmt.Sprintf("u-%04d-%032d", i, i))
					if err != nil {
						report(fmt.Errorf("Update: %w", err))
						return
					}
					mine[j] = rid
				}
			}
		}(tb)
	}

	// Adversary: periodically redefines each table's index coverage — the
	// buffer-discarding DDL path — while queries are in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < redefineOp; i++ {
			tb := tables[i%len(tables)]
			lo := (i * 3) % keyDomain
			hi := lo + keyDomain/4
			if err := tb.RedefineRangeIndex("k", lo, hi); err != nil {
				report(fmt.Errorf("RedefineRangeIndex: %w", err))
				return
			}
		}
	}()

	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Invariant: C[p] >= 0 on every page of every buffer, and the Space
	// budget equals the sum of the buffers' entries.
	total := 0
	for _, b := range db.eng.Space().Buffers() {
		for p := 0; p < b.NumPages(); p++ {
			if c := b.Uncovered(storage.PageID(p)); c < 0 {
				t.Fatalf("buffer %s: uncovered[%d] = %d < 0", b.Name(), p, c)
			}
		}
		total += b.EntryCount()
	}
	if used := db.eng.Space().Used(); used != total {
		t.Fatalf("Space.Used() = %d, buffers hold %d entries", used, total)
	}

	// Serial oracle: after quiescing, every key's query result must match
	// a raw full scan exactly.
	for _, tb := range tables {
		oracle := make(map[int64]int)
		live := 0
		err := tb.t.Scan(func(_ storage.RID, tu storage.Tuple) error {
			oracle[tu.Value(0).Int64()]++
			live++
			return nil
		})
		if err != nil {
			t.Fatalf("oracle scan: %v", err)
		}
		for k := int64(0); k < keyDomain; k++ {
			rows, _, err := tb.Query("k", k)
			if err != nil {
				t.Fatalf("oracle query: %v", err)
			}
			if len(rows) != oracle[k] {
				t.Fatalf("table %s key %d: query returned %d rows, oracle has %d", tb.t.Name(), k, len(rows), oracle[k])
			}
		}
		count, err := tb.Count()
		if err != nil {
			t.Fatalf("Count: %v", err)
		}
		if count != live {
			t.Fatalf("Count() = %d, oracle scanned %d", count, live)
		}
	}
}

// TestConcurrentHitQueriesMakeProgress runs index-covered reads on two
// tables from many goroutines; under the old engine-wide exclusive lock
// this still worked but serialized, and under the new scheme it must not
// deadlock nor return wrong rows. (Throughput scaling is measured by
// BenchmarkParallelQuery.)
func TestConcurrentHitQueriesMakeProgress(t *testing.T) {
	db := MustOpen(Options{Seed: 11})
	defer db.Close()
	var tabs []*Table
	for _, name := range []string{"t0", "t1"} {
		tb, err := db.CreateTable(name, Int64Column("k"), StringColumn("pad"))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			if _, err := tb.Insert(int64(i%100), fmt.Sprintf("p-%03d-%048d", i, i)); err != nil {
				t.Fatal(err)
			}
		}
		// Full coverage: every query is a partial-index hit.
		if err := tb.CreatePartialRangeIndex("k", 0, 100); err != nil {
			t.Fatal(err)
		}
		tabs = append(tabs, tb)
	}
	var wg sync.WaitGroup
	var bad atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tb := tabs[g%2]
			for i := 0; i < 300; i++ {
				key := int64((g + i) % 100)
				rows, stats, err := tb.Query("k", key)
				if err != nil || !stats.PartialHit || len(rows) != 5 {
					bad.Add(1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d goroutines saw a miss, error, or wrong row count on a fully covered workload", bad.Load())
	}
}

// TestQueryCtxCancel verifies that a canceled context aborts the
// page-at-a-time scan paths with ctx.Err, and that a live context leaves
// queries untouched.
func TestQueryCtxCancel(t *testing.T) {
	db := MustOpen(Options{Seed: 2})
	defer db.Close()
	tb, err := db.CreateTable("t", Int64Column("k"), StringColumn("pad"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := tb.Insert(int64(i), fmt.Sprintf("pad-%051d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.CreatePartialRangeIndex("k", 0, 10); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	// Indexing scan (miss with a buffer): canceled before the first page.
	if _, _, err := tb.QueryCtx(ctx, "k", int64(250)); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryCtx on canceled ctx: err = %v, want context.Canceled", err)
	}
	if _, _, err := tb.QueryRangeCtx(ctx, "k", int64(50), int64(60)); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryRangeCtx on canceled ctx: err = %v, want context.Canceled", err)
	}
	// Hit path completes regardless: a handful of page fetches.
	if _, stats, err := tb.QueryCtx(ctx, "k", int64(5)); err != nil || !stats.PartialHit {
		t.Fatalf("QueryCtx hit on canceled ctx: err = %v, hit = %v", err, stats.PartialHit)
	}
	// Live context: both paths work.
	if _, _, err := tb.QueryCtx(context.Background(), "k", int64(250)); err != nil {
		t.Fatalf("QueryCtx live: %v", err)
	}

	// Full-scan path (no index buffer at all).
	db2 := MustOpen(Options{DisableIndexBuffer: true})
	defer db2.Close()
	tb2, err := db2.CreateTable("t", Int64Column("k"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb2.Insert(int64(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tb2.QueryCtx(ctx, "k", int64(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("full-scan QueryCtx on canceled ctx: err = %v, want context.Canceled", err)
	}
}

// TestSharedScanBurst fires a burst of uncovered-key queries — the
// workload the Adaptive Index Buffer exists to accelerate, and the one
// that serialized hardest before scan sharing — from 8 goroutines on one
// table, and asserts both correctness (every query gets exactly its
// rows) and coalescing (the metrics counters prove fewer indexing scans
// ran than miss queries arrived). The small SpaceLimit keeps the buffer
// from ever covering the table, so every query stays a genuine miss; the
// simulated read latency keeps scans long enough that concurrent misses
// reliably overlap. Run with -race.
func TestSharedScanBurst(t *testing.T) {
	const (
		goroutines = 8
		perG       = 5
		rowsPerKey = 3
	)
	// PoolPages is far below the table size so every scan stays
	// device-bound: ReadLatency then gives each pass a real duration for
	// concurrent misses to pile up against.
	db := openTuned(t, Options{
		Seed:           5,
		SpaceLimit:     40,
		IMax:           40,
		PartitionPages: 8,
		PoolPages:      16,
	}, false, func(c *engine.Config) { c.ReadLatency = 200 * time.Microsecond })
	defer db.Close()
	tb, err := db.CreateTable("t", Int64Column("k"), StringColumn("pad"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200*rowsPerKey; i++ {
		if _, err := tb.Insert(int64(i%200), fmt.Sprintf("pad-%04d-%0700d", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.CreatePartialRangeIndex("k", 0, 19); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < perG; r++ {
				key := int64(20 + g*perG + r) // distinct uncovered keys
				rows, _, err := tb.Query("k", key)
				if err != nil {
					errCh <- fmt.Errorf("Query(k=%d): %w", key, err)
					return
				}
				if len(rows) != rowsPerKey {
					errCh <- fmt.Errorf("Query(k=%d): %d rows, want %d", key, len(rows), rowsPerKey)
					return
				}
				for _, row := range rows {
					if got, _ := row.Int64("k"); got != key {
						errCh <- fmt.Errorf("Query(k=%d) returned row with k=%d", key, got)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	s := db.SharedScanStats()
	if s.Misses != goroutines*perG {
		t.Fatalf("Misses = %d, want %d (every query an uncovered miss)", s.Misses, goroutines*perG)
	}
	if s.Scans >= s.Misses {
		t.Errorf("Scans = %d for %d misses: no coalescing happened", s.Scans, s.Misses)
	}
	if s.Saved == 0 || s.Attached == 0 {
		t.Errorf("stats = %+v: expected attached queries and saved scans", s)
	}
}

// TestSentinelErrors exercises the typed error surface via errors.Is.
func TestSentinelErrors(t *testing.T) {
	db := MustOpen(Options{})
	tb, err := db.CreateTable("t", Int64Column("k"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("t", Int64Column("k")); !errors.Is(err, ErrDuplicateTable) {
		t.Fatalf("duplicate table: %v", err)
	}
	if _, _, err := tb.Query("nope", int64(1)); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("query unknown column: %v", err)
	}
	if err := tb.RedefineRangeIndex("k", 0, 1); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("redefine without index: %v", err)
	}
	if err := tb.CreatePartialRangeIndex("k", 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tb.CreatePartialRangeIndex("k", 2, 3); !errors.Is(err, ErrDuplicateIndex) {
		t.Fatalf("duplicate index: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tb.Query("k", int64(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("query after close: %v", err)
	}
	if _, err := tb.Insert(int64(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("insert after close: %v", err)
	}
	if _, err := db.CreateTable("u", Int64Column("k")); !errors.Is(err, ErrClosed) {
		t.Fatalf("create table after close: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestOpenValidation rejects garbage options.
func TestOpenValidation(t *testing.T) {
	bad := []Options{
		{IMax: -1},
		{PartitionPages: -5},
		{SpaceLimit: -100},
		{PoolPages: -1},
	}
	for _, o := range bad {
		if _, err := Open(o); err == nil {
			t.Fatalf("Open(%+v) accepted invalid options", o)
		}
	}
	db, err := Open(Options{})
	if err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
	db.Close()
}

// BenchmarkParallelQuery measures index-hit read throughput at
// increasing goroutine counts on a warm, fully index-covered workload —
// the path the lock-free read path takes off the per-table RWMutex.
// The uncontended arms show reader-reader scaling; the contended arms
// run one writer goroutine updating a fixed row set in place throughout
// the read phase (the tables never grow, so every arm measures the same
// work), the convoy case: under the rwmutex arm (engine.Config.DisableEpochReadPath)
// every read queues behind every commit's exclusive section, while the
// epoch arm's hits never touch the lock. TestEpochReaderWriterConvoy
// pins the same effect with a synchronous WAL charging the writer fsync
// latency; this benchmark is the quick in-memory view.
func BenchmarkParallelQuery(b *testing.B) {
	const (
		numTables = 4
		keyDomain = 100
		rows      = 1000
	)
	// build returns the tables and, per table, the RIDs of its first
	// keyDomain rows (one per key): the writer's row set.
	build := func(b *testing.B, disableEpoch bool) (*DB, []*Table, [][]RID) {
		db := openTuned(b, Options{Seed: 1, PoolPages: 4096}, false, func(c *engine.Config) { c.DisableEpochReadPath = disableEpoch })
		var tabs []*Table
		written := make([][]RID, numTables)
		for i := 0; i < numTables; i++ {
			tb, err := db.CreateTable(fmt.Sprintf("t%d", i), Int64Column("k"), StringColumn("pad"))
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < rows; j++ {
				rid, err := tb.Insert(int64(j%keyDomain), fmt.Sprintf("p-%04d-%032d", j, j))
				if err != nil {
					b.Fatal(err)
				}
				if j < keyDomain {
					written[i] = append(written[i], rid)
				}
			}
			// Full coverage: every query is a partial-index hit, and the pool
			// is large enough that the working set stays resident (warm).
			if err := tb.CreatePartialRangeIndex("k", 0, keyDomain); err != nil {
				b.Fatal(err)
			}
			// Warm the pool.
			for k := 0; k < keyDomain; k++ {
				if _, _, err := tb.Query("k", int64(k)); err != nil {
					b.Fatal(err)
				}
			}
			tabs = append(tabs, tb)
		}
		return db, tabs, written
	}
	arms := []struct {
		name         string
		contended    bool
		disableEpoch bool
	}{
		{"uncontended/epoch", false, false},
		{"contended/epoch", true, false},
		{"contended/rwmutex", true, true},
	}
	goroutines := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		goroutines = append(goroutines, n)
	}
	for _, arm := range arms {
		db, tabs, written := build(b, arm.disableEpoch)
		for _, g := range goroutines {
			b.Run(fmt.Sprintf("%s/goroutines=%d", arm.name, g), func(b *testing.B) {
				b.ReportAllocs()
				var (
					stop    atomic.Bool
					writes  int64
					writeWG sync.WaitGroup
				)
				if arm.contended {
					stop.Store(false)
					writeWG.Add(1)
					go func() {
						defer writeWG.Done()
						for n := 0; !stop.Load(); n++ {
							// Same key, same-length payload: the row keeps
							// its size, its key and its answer.
							i, j := n%numTables, n/numTables%keyDomain
							rid, err := tabs[i].Update(written[i][j], int64(j), fmt.Sprintf("w-%04d-%032d", j, n))
							if err != nil {
								b.Error(err)
								return
							}
							written[i][j] = rid
							writes++
						}
					}()
				}
				var wg sync.WaitGroup
				per := b.N / g
				if per == 0 {
					per = 1
				}
				b.ResetTimer()
				for w := 0; w < g; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						tb := tabs[w%numTables]
						for i := 0; i < per; i++ {
							key := int64((w*17 + i) % keyDomain)
							if _, _, err := tb.Query("k", key); err != nil {
								b.Error(err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
				b.StopTimer()
				if arm.contended {
					stop.Store(true)
					writeWG.Wait()
					b.ReportMetric(float64(writes), "writer_commits")
				}
			})
		}
		db.Close()
	}
}
