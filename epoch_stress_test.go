package repro

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestEpochReaderWriterConvoy is the convoy-elimination stress test: a
// writer commits through a deliberately slow synchronous WAL (every
// fsync charged tens of milliseconds) while NumCPU readers hammer
// index-covered point queries. Under the old protocol every one of
// those reads queued behind the writer's table lock for the duration of
// the fsync; with the lock-free read path a hit never touches the
// lock, so read latency stays bounded well below the fsync cost and the
// overwhelming majority of reads are served lock-free. Afterwards the
// engine must return to baseline: no leaked goroutines.
func TestEpochReaderWriterConvoy(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive stress test")
	}
	const (
		rows      = 600
		keyDomain = 50
		covered   = 20
		syncDelay = 30 * time.Millisecond
		duration  = 700 * time.Millisecond
	)
	// Load phase: populate without per-commit fsyncs, then reopen with
	// the slow synchronous WAL so only the stress phase pays it.
	dir := t.TempDir()
	loader := MustOpen(Options{
		PoolPages: 64,
		Seed:      7,
		DataDir:   dir,
		WAL:       WALOptions{Sync: SyncNever},
	})
	tb, err := loader.CreateTable("data", Int64Column("k"), StringColumn("pad"))
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
	if err := loader.Close(); err != nil {
		t.Fatal(err)
	}
	db := openTuned(t, Options{
		PoolPages: 64,
		Seed:      7,
		DataDir:   dir,
		WAL:       WALOptions{Sync: SyncBatch},
	}, true, func(c *engine.Config) { c.WAL.SyncDelay = syncDelay })
	defer db.Close()
	tb = db.Table("data")
	if tb == nil {
		t.Fatal("table not recovered")
	}
	// Warm the pool so steady-state reads are memory-resident hits.
	for k := 0; k < covered; k++ {
		if _, _, err := tb.Query("k", int64(k)); err != nil {
			t.Fatal(err)
		}
	}

	baselineGoroutines := runtime.NumGoroutine()
	statsBefore := db.EpochStats()

	// Leave scheduler headroom for the writer and the main goroutine:
	// with every P running a reader, the latency measurement would be
	// dominated by run-queue waits, not by the engine.
	readers := runtime.NumCPU() - 2
	if readers < 2 {
		readers = 2
	}
	var (
		stop      atomic.Bool
		wg        sync.WaitGroup
		writes    atomic.Int64
		writeErr  atomic.Value
		latencyMu sync.Mutex
		latencies []time.Duration
	)

	// The slow mutator: every insert holds the write path through a
	// 30 ms fsync. The seqlock window closes before the WAL append, so
	// none of that time is reader-visible.
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := rows
		for !stop.Load() {
			if _, err := tb.Insert(int64(covered+n%(keyDomain-covered)), fmt.Sprintf("pad-%04d-%0160d", n, n)); err != nil {
				writeErr.Store(err)
				return
			}
			n++
			writes.Add(1)
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			k := seed
			var local []time.Duration
			for !stop.Load() {
				start := time.Now()
				_, stats, err := tb.Query("k", int64(k%covered))
				elapsed := time.Since(start)
				if err != nil {
					t.Errorf("reader query failed: %v", err)
					return
				}
				if !stats.PartialHit {
					t.Errorf("covered key %d was not an index hit", k%covered)
					return
				}
				local = append(local, elapsed)
				k++
			}
			latencyMu.Lock()
			latencies = append(latencies, local...)
			latencyMu.Unlock()
		}(r)
	}

	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()
	if err := writeErr.Load(); err != nil {
		t.Fatalf("writer failed: %v", err)
	}

	if writes.Load() == 0 {
		t.Fatal("writer committed nothing; the stress never created contention")
	}
	reads := int64(len(latencies))
	if reads < int64(readers)*10 {
		t.Fatalf("only %d reads across %d readers; the stress never ran", reads, readers)
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p50 := latencies[len(latencies)/2]
	p99 := latencies[len(latencies)*99/100]
	max := latencies[len(latencies)-1]
	t.Logf("stress: %d reads, %d writes, read latency p50 %v p99 %v max %v, read-path counters %+v",
		reads, writes.Load(), p50, p99, max, db.EpochStats())

	// The convoy property: reads do not wait out writer fsyncs. With the
	// writer holding the table lock across its sync nearly all cycle, a
	// convoyed reader population would see a p50 in the 10-30 ms range
	// and a p99 pinned at the fsync cost; lock-free reads are bounded by
	// the probe itself, with only scheduler noise in the tail. The max is
	// logged but not asserted — it measures preemption under deliberate
	// CPU overcommit, not the engine.
	if p99 >= syncDelay/2 {
		t.Errorf("read p99 %v with a %v-fsync writer active: readers convoyed on the write lock", p99, syncDelay)
	}
	if p50 >= syncDelay/10 {
		t.Errorf("read p50 %v with a %v-fsync writer active: readers convoyed on the write lock", p50, syncDelay)
	}

	// The reads were actually lock-free, not locked-path reads that got
	// lucky: the fast-hit counter must account for (nearly) all of them.
	statsAfter := db.EpochStats()
	fast := statsAfter.FastHits - statsBefore.FastHits
	if min := reads * 9 / 10; int64(fast) < min {
		t.Errorf("only %d of %d reads were served lock-free, want >= %d", fast, reads, min)
	}

	// Baseline restoration: goroutines reaped.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baselineGoroutines {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d at baseline, %d after the stress", baselineGoroutines, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRepublishRaceLockFreeHits races lock-free hits against readState
// republication on a static table. Readers issue covered point and
// range hits while one goroutine loops Vacuum (a fresh heap and pool,
// and on a DataDir a closed page store) and drops, creates and
// redefines a partial index on a second column. Every republish swaps
// out a heap or index snapshot a reader may still hold: the seqlock
// must reject what such a reader saw, and the garbage collector must
// keep it readable until then. Every result must equal the fixed
// ground truth. Every fourth row is deleted before the race, so the
// first vacuum moves every RID after the first hole.
func TestRepublishRaceLockFreeHits(t *testing.T) {
	const (
		rows      = 300
		keyDomain = 30
		covered   = 20
		rounds    = 12
		readers   = 3
	)
	// want[k] lists the j values of the live rows with key k, ascending.
	want := make([][]int64, keyDomain)
	for i := 0; i < rows; i++ {
		if i%4 != 3 {
			want[i%keyDomain] = append(want[i%keyDomain], int64(i))
		}
	}
	expect := func(lo, hi int) []int64 {
		var js []int64
		for k := lo; k <= hi; k++ {
			js = append(js, want[k]...)
		}
		slices.Sort(js)
		return js
	}
	for _, dataDir := range []bool{false, true} {
		t.Run(fmt.Sprintf("datadir=%v", dataDir), func(t *testing.T) {
			o := Options{PoolPages: 32, Seed: 3}
			if dataDir {
				o.DataDir = t.TempDir()
			}
			db := MustOpen(o)
			defer db.Close()
			tb, err := db.CreateTable("data", Int64Column("k"), Int64Column("j"))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < rows; i++ {
				rid, err := tb.Insert(int64(i%keyDomain), int64(i))
				if err != nil {
					t.Fatal(err)
				}
				if i%4 == 3 {
					if err := tb.Delete(rid); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := tb.CreatePartialRangeIndex("k", 0, covered-1); err != nil {
				t.Fatal(err)
			}
			jcol, err := tb.columnIndex("j")
			if err != nil {
				t.Fatal(err)
			}
			fastBefore := db.EpochStats().FastHits

			var (
				stop  atomic.Bool
				wg    sync.WaitGroup
				reads atomic.Int64
			)
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for !stop.Load() {
						lo := rng.Intn(covered)
						hi := lo
						if rng.Intn(2) == 0 {
							hi += rng.Intn(covered - lo)
						}
						var res []Row
						var stats QueryStats
						var err error
						if lo == hi {
							res, stats, err = tb.Query("k", int64(lo))
						} else {
							res, stats, err = tb.QueryRange("k", int64(lo), int64(hi))
						}
						if err != nil {
							t.Errorf("[%d,%d]: %v", lo, hi, err)
							return
						}
						if !stats.PartialHit {
							t.Errorf("[%d,%d]: covered range was not an index hit", lo, hi)
							return
						}
						got := make([]int64, len(res))
						for i, row := range res {
							if got[i], err = row.Int64("j"); err != nil {
								t.Error(err)
								return
							}
						}
						slices.Sort(got)
						if w := expect(lo, hi); !slices.Equal(got, w) {
							t.Errorf("[%d,%d]: got %v, want %v", lo, hi, got, w)
							return
						}
						reads.Add(1)
					}
				}(int64(r + 1))
			}

			for r := 0; r < rounds && !t.Failed(); r++ {
				if _, _, err := tb.Vacuum(); err != nil {
					t.Errorf("round %d: vacuum: %v", r, err)
					break
				}
				if err := tb.CreatePartialRangeIndex("j", 0, rows/2); err != nil {
					t.Errorf("round %d: create: %v", r, err)
					break
				}
				if err := tb.RedefineRangeIndex("j", rows/4, rows-1); err != nil {
					t.Errorf("round %d: redefine: %v", r, err)
					break
				}
				if err := tb.t.DropIndex(jcol); err != nil {
					t.Errorf("round %d: drop: %v", r, err)
					break
				}
			}
			stop.Store(true)
			wg.Wait()
			if reads.Load() == 0 {
				t.Fatal("no reads completed; the race never ran")
			}
			if db.EpochStats().FastHits == fastBefore {
				t.Error("no hit was served lock-free; the race never exercised the fast path")
			}
			t.Logf("%d reads across %d republish rounds", reads.Load(), rounds)
		})
	}
}
