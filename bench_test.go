// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations over the design choices called out in
// DESIGN.md §5. Figure benchmarks run the full experiment per iteration
// and report, beyond wall time, the shape-defining quantities as custom
// metrics so `go test -bench .` doubles as a reproduction report.
package repro

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/storage"
)

// benchRows keeps figure benchmarks laptop-fast while leaving enough
// pages (~700) for skip behaviour; pass the paper's 500000 through
// cmd/aibench for full scale.
const benchRows = 20000

// BenchmarkFig1ControlLoopDelay regenerates Figure 1: the adaptive
// partial indexing baseline's control loop delay.
func BenchmarkFig1ControlLoopDelay(b *testing.B) {
	var collapse, recovered float64
	for i := 0; i < b.N; i++ {
		r := bench.RunFig1(bench.DefaultFig1Options())
		collapse = r.HitRate.MeanRange(300, 340)
		recovered = r.HitRate.MeanRange(450, 500)
	}
	b.ReportMetric(collapse, "hitrate_during_shift")
	b.ReportMetric(recovered, "hitrate_recovered")
}

// BenchmarkFig3FullyIndexedPages regenerates Figure 3: fully indexed
// pages vs. physical/logical order correlation.
func BenchmarkFig3FullyIndexedPages(b *testing.B) {
	o := bench.Fig3Options{Tuples: 20000, Steps: 120, SwapsPerStep: 80, Seed: 1}
	var at08 float64
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFig3(o)
		if err != nil {
			b.Fatal(err)
		}
		// The 10-tuples-per-page curve at correlation 0.8 (paper: <5%).
		frame := r.Frame()
		at08 = frame.Series[2].Y[4] // grid point 4 = correlation 0.8
	}
	b.ReportMetric(at08, "share_at_corr_0.8")
}

// BenchmarkFig6SingleBuffer regenerates Figure 6 (experiment 1).
func BenchmarkFig6SingleBuffer(b *testing.B) {
	var lateCost float64
	var tablePages int
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFig6(bench.Options{Rows: benchRows, Queries: 100})
		if err != nil {
			b.Fatal(err)
		}
		lateCost = r.PagesRead.MeanRange(50, 100)
		tablePages = r.TablePages
	}
	b.ReportMetric(float64(tablePages), "scan_pages")
	b.ReportMetric(lateCost, "late_pages/query")
}

// BenchmarkFig7Sweep regenerates Figure 7 (experiment 2).
func BenchmarkFig7Sweep(b *testing.B) {
	configs := []bench.Fig7Config{
		{IMax: 1000, L: 0},
		{IMax: 5000, L: 0},
		{IMax: 5000, L: 100000},
	}
	var unlimited, capped float64
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFig7(bench.Options{Rows: benchRows, Queries: 100}, configs)
		if err != nil {
			b.Fatal(err)
		}
		unlimited = r.Curves[1].PagesRead.MeanRange(50, 100)
		capped = r.Curves[2].PagesRead.MeanRange(50, 100)
	}
	b.ReportMetric(unlimited, "late_pages_unlimited")
	b.ReportMetric(capped, "late_pages_capped")
}

// BenchmarkFig8Competition regenerates Figure 8 (experiment 3).
func BenchmarkFig8Competition(b *testing.B) {
	var aFirst, cSecond float64
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFig8(bench.Options{Rows: benchRows, Queries: 200})
		if err != nil {
			b.Fatal(err)
		}
		n := r.Entries[0].Len()
		aFirst = r.Entries[0].MeanRange(n/4, n/2)
		cSecond = r.Entries[2].MeanRange(3*n/4, n)
	}
	b.ReportMetric(aFirst, "entries_A_first_period")
	b.ReportMetric(cSecond, "entries_C_second_period")
}

// BenchmarkFig9HitRates regenerates Figure 9 (experiment 4).
func BenchmarkFig9HitRates(b *testing.B) {
	var aFirst, aSecond float64
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFig9(bench.Options{Rows: benchRows, Queries: 200})
		if err != nil {
			b.Fatal(err)
		}
		n := r.Entries[0].Len()
		aFirst = r.Entries[0].MeanRange(n/4, n/2)
		aSecond = r.Entries[0].MeanRange(3*n/4, n)
	}
	b.ReportMetric(aFirst, "entries_A_at_80pct_hits")
	b.ReportMetric(aSecond, "entries_A_at_20pct_hits")
}

// BenchmarkTableIMaintenance measures the paper's Table I maintenance
// path: updates crossing every membership combination.
func BenchmarkTableIMaintenance(b *testing.B) {
	s := core.NewSpace(core.Config{P: 64})
	buf, err := s.CreateBuffer("t.a", make([]int, 256))
	if err != nil {
		b.Fatal(err)
	}
	for p := 0; p < 128; p++ { // half the pages buffered
		if err := buf.ApplyPage(storage.PageID(p), nil); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oldV := storage.Int64Value(rng.Int63n(1000))
		newV := storage.Int64Value(rng.Int63n(1000))
		oldRID := storage.RID{Page: storage.PageID(rng.Intn(256)), Slot: uint16(i)}
		newRID := storage.RID{Page: storage.PageID(rng.Intn(256)), Slot: uint16(i)}
		buf.MaintainUpdate(oldV, newV, oldRID, newRID, i%4 == 0, i%3 == 0)
	}
}

// BenchmarkTableIILRUKOps measures the paper's Table II history
// operations across a populated Index Buffer Space.
func BenchmarkTableIILRUKOps(b *testing.B) {
	s := core.NewSpace(core.Config{K: 2})
	var bufs []*core.IndexBuffer
	for _, n := range []string{"a", "b", "c"} {
		buf, err := s.CreateBuffer("t."+n, make([]int, 16))
		if err != nil {
			b.Fatal(err)
		}
		bufs = append(bufs, buf)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.OnQuery(bufs[i%3], i%4 == 0)
	}
}

// benchEngine builds a 20k-row single-key-column table with a 10%
// partial index under the given core config, for the ablation
// benchmarks.
func benchEngine(b *testing.B, cfg core.Config) (*engine.Engine, *engine.Table) {
	b.Helper()
	eng := engine.New(engine.Config{Space: cfg})
	schema := storage.MustSchema(
		storage.Column{Name: "k", Kind: storage.KindInt64},
		storage.Column{Name: "payload", Kind: storage.KindString},
	)
	tb, err := eng.CreateTable("data", schema)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	pad := strings.Repeat("b", 220)
	for i := 0; i < benchRows; i++ {
		tu := storage.NewTuple(storage.Int64Value(int64(1+rng.Intn(2000))), storage.StringValue(pad))
		if _, err := tb.Insert(tu); err != nil {
			b.Fatal(err)
		}
	}
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 200)); err != nil {
		b.Fatal(err)
	}
	return eng, tb
}

// BenchmarkAblationStructure compares the three buffer structures the
// paper names (§III) on the same workload.
func BenchmarkAblationStructure(b *testing.B) {
	for _, c := range []struct {
		name string
		st   Structure
	}{{"btree", BTree}, {"csbtree", CSBTree}, {"hash", HashTable}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := MustOpen(Options{Structure: c.st, IMax: 200, PartitionPages: 300, Seed: 9})
				tb, err := db.CreateTable("data", Int64Column("k"), StringColumn("payload"))
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(31))
				pad := strings.Repeat("b", 220)
				for r := 0; r < benchRows; r++ {
					if _, err := tb.Insert(int64(1+rng.Intn(2000)), pad); err != nil {
						b.Fatal(err)
					}
				}
				if err := tb.CreatePartialRangeIndex("k", 1, 200); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for q := 0; q < 60; q++ {
					if _, _, err := tb.Query("k", int64(201+rng.Intn(1800))); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkAblationSelectionOrder compares the paper's ascending-counter
// page selection against descending and random under a tight space
// budget, where the choice determines how many pages the budget buys.
func BenchmarkAblationSelectionOrder(b *testing.B) {
	for _, sel := range []core.SelectionOrder{core.AscendingCounter, core.DescendingCounter, core.RandomOrder} {
		b.Run(sel.String(), func(b *testing.B) {
			cfg := core.Config{IMax: 100, P: 100, SpaceLimit: 6000, Selection: sel}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng, tb := benchEngine(b, cfg)
				_ = eng
				rng := rand.New(rand.NewSource(42))
				b.StartTimer()
				skipped := 0
				const queries = 60
				for q := 0; q < queries; q++ {
					_, stats, err := tb.QueryEqual(0, storage.Int64Value(int64(201+rng.Intn(1800))))
					if err != nil {
						b.Fatal(err)
					}
					skipped += stats.PagesSkipped
				}
				b.ReportMetric(float64(skipped)/queries, "skips/query")
			}
		})
	}
}

// BenchmarkAblationPartitionSize varies P: small partitions displace
// precisely but fragment; huge partitions make displacement all-or-
// nothing.
func BenchmarkAblationPartitionSize(b *testing.B) {
	for _, p := range []int{10, 100, 1000} {
		b.Run(strings.Replace(strings.TrimSpace(string(rune('P')))+"="+itoa(p), " ", "", -1), func(b *testing.B) {
			cfg := core.Config{IMax: 100, P: p, SpaceLimit: 12000}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				_, tb := benchEngine(b, cfg)
				rng := rand.New(rand.NewSource(42))
				b.StartTimer()
				total := 0
				const queries = 60
				for q := 0; q < queries; q++ {
					_, stats, err := tb.QueryEqual(0, storage.Int64Value(int64(201+rng.Intn(1800))))
					if err != nil {
						b.Fatal(err)
					}
					total += stats.PagesRead
				}
				b.ReportMetric(float64(total)/queries, "pages/query")
			}
		})
	}
}

// BenchmarkAblationHistoryDepth varies the LRU-K depth K.
func BenchmarkAblationHistoryDepth(b *testing.B) {
	for _, k := range []int{1, 2, 8} {
		b.Run("K="+itoa(k), func(b *testing.B) {
			cfg := core.Config{IMax: 100, P: 100, K: k, SpaceLimit: 12000}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				_, tb := benchEngine(b, cfg)
				rng := rand.New(rand.NewSource(42))
				b.StartTimer()
				for q := 0; q < 60; q++ {
					if _, _, err := tb.QueryEqual(0, storage.Int64Value(int64(201+rng.Intn(1800)))); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var digits []byte
	for v > 0 {
		digits = append([]byte{byte('0' + v%10)}, digits...)
		v /= 10
	}
	return string(digits)
}

// BenchmarkBridge runs the extension experiment: the Index Buffer
// covering the gap between a workload shift and the partial index's
// adaptation, against the adaptation-only and never-adapting baselines.
func BenchmarkBridge(b *testing.B) {
	var base, adapt, adaptBuf float64
	for i := 0; i < b.N; i++ {
		r, err := bench.RunBridge(bench.BridgeOptions{Rows: 8000, Queries: 120, ShiftAt: 20})
		if err != nil {
			b.Fatal(err)
		}
		base, adapt, adaptBuf = r.Cumulative()
	}
	b.ReportMetric(base, "pages_baseline")
	b.ReportMetric(adapt, "pages_adapt_only")
	b.ReportMetric(adaptBuf, "pages_adapt_plus_buffer")
}

// BenchmarkAblationPoolSize varies the database buffer pool and reports
// device-level reads: with a pool big enough to cache the table, scans
// stop hitting the device and the Index Buffer's benefit shows up purely
// in CPU; with the paper's table >> pool setup, skipped pages are
// skipped device reads.
func BenchmarkAblationPoolSize(b *testing.B) {
	for _, pool := range []int{8, 64, 1024} {
		b.Run("pool="+itoa(pool), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng := engine.New(engine.Config{PoolPages: pool, Space: core.Config{IMax: 200, P: 300}})
				schema := storage.MustSchema(
					storage.Column{Name: "k", Kind: storage.KindInt64},
					storage.Column{Name: "payload", Kind: storage.KindString},
				)
				tb, err := eng.CreateTable("data", schema)
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(31))
				pad := strings.Repeat("b", 220)
				for r := 0; r < benchRows; r++ {
					tu := storage.NewTuple(storage.Int64Value(int64(1+rng.Intn(2000))), storage.StringValue(pad))
					if _, err := tb.Insert(tu); err != nil {
						b.Fatal(err)
					}
				}
				if err := tb.CreatePartialIndex(0, index.IntRange(1, 200)); err != nil {
					b.Fatal(err)
				}
				before := tb.DiskStats()
				b.StartTimer()
				for q := 0; q < 40; q++ {
					if _, _, err := tb.QueryEqual(0, storage.Int64Value(int64(201+rng.Intn(1800)))); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				reads := tb.DiskStats().Sub(before).Reads
				b.ReportMetric(float64(reads)/40, "device_reads/query")
				b.StartTimer()
			}
		})
	}
}

// BenchmarkDMLOverhead measures the maintenance cost the Index Buffer
// machinery adds to inserts/updates/deletes (the paper's Table I in
// anger): the same DML stream against 0 and 3 indexed columns.
func BenchmarkDMLOverhead(b *testing.B) {
	for _, indexed := range []int{0, 1, 3} {
		b.Run("indexes="+itoa(indexed), func(b *testing.B) {
			eng := engine.New(engine.Config{Space: core.Config{IMax: 1000, P: 200}})
			schema := storage.MustSchema(
				storage.Column{Name: "a", Kind: storage.KindInt64},
				storage.Column{Name: "b", Kind: storage.KindInt64},
				storage.Column{Name: "c", Kind: storage.KindInt64},
				storage.Column{Name: "payload", Kind: storage.KindString},
			)
			tb, err := eng.CreateTable("data", schema)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(13))
			pad := strings.Repeat("d", 200)
			row := func() storage.Tuple {
				return storage.NewTuple(
					storage.Int64Value(1+rng.Int63n(1000)),
					storage.Int64Value(1+rng.Int63n(1000)),
					storage.Int64Value(1+rng.Int63n(1000)),
					storage.StringValue(pad),
				)
			}
			var rids []storage.RID
			for i := 0; i < 5000; i++ {
				rid, err := tb.Insert(row())
				if err != nil {
					b.Fatal(err)
				}
				rids = append(rids, rid)
			}
			for c := 0; c < indexed; c++ {
				if err := tb.CreatePartialIndex(c, index.IntRange(1, 100)); err != nil {
					b.Fatal(err)
				}
			}
			// Build buffers so maintenance has live partitions to keep
			// consistent.
			for c := 0; c < indexed; c++ {
				if _, _, err := tb.QueryEqual(c, storage.Int64Value(500)); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				switch i % 3 {
				case 0:
					rid, err := tb.Insert(row())
					if err != nil {
						b.Fatal(err)
					}
					rids = append(rids, rid)
				case 1:
					j := i % len(rids)
					nr, err := tb.Update(rids[j], row())
					if err != nil {
						b.Fatal(err)
					}
					rids[j] = nr
				default:
					j := i % len(rids)
					if err := tb.Delete(rids[j]); err != nil {
						b.Fatal(err)
					}
					rids[j] = rids[len(rids)-1]
					rids = rids[:len(rids)-1]
				}
			}
		})
	}
}

// BenchmarkCorrelation runs the engine-level Figure 3 extension: the
// partial index's natural skip power and the buffer's completion cost
// across physical layouts.
func BenchmarkCorrelation(b *testing.B) {
	var clusteredShare, shuffledShare float64
	for i := 0; i < b.N; i++ {
		r, err := bench.RunCorrelation(bench.CorrelationOptions{Rows: 10000, Correlations: []float64{1.0, 0.0}})
		if err != nil {
			b.Fatal(err)
		}
		clusteredShare = r.Points[0].NaturalSkipShare
		shuffledShare = r.Points[1].NaturalSkipShare
	}
	b.ReportMetric(clusteredShare, "natural_skips_clustered")
	b.ReportMetric(shuffledShare, "natural_skips_shuffled")
}

// BenchmarkAblationVictimPolicy compares the paper's benefit-weighted
// victim selection against uniform random under a three-buffer workload
// with a skewed mix: the policy decides which buffer's partitions are
// sacrificed, visible as total pages read.
func BenchmarkAblationVictimPolicy(b *testing.B) {
	for _, vp := range []core.VictimPolicy{core.BenefitWeighted, core.UniformVictims} {
		b.Run(vp.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng := engine.New(engine.Config{Space: core.Config{
					IMax: 50, P: 100, SpaceLimit: 20000, Victims: vp,
					Rand: rand.New(rand.NewSource(17)),
				}})
				schema := storage.MustSchema(
					storage.Column{Name: "a", Kind: storage.KindInt64},
					storage.Column{Name: "b", Kind: storage.KindInt64},
					storage.Column{Name: "c", Kind: storage.KindInt64},
					storage.Column{Name: "payload", Kind: storage.KindString},
				)
				tb, err := eng.CreateTable("data", schema)
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(31))
				pad := strings.Repeat("v", 220)
				for r := 0; r < benchRows; r++ {
					tu := storage.NewTuple(
						storage.Int64Value(int64(1+rng.Intn(2000))),
						storage.Int64Value(int64(1+rng.Intn(2000))),
						storage.Int64Value(int64(1+rng.Intn(2000))),
						storage.StringValue(pad),
					)
					if _, err := tb.Insert(tu); err != nil {
						b.Fatal(err)
					}
				}
				for c := 0; c < 3; c++ {
					if err := tb.CreatePartialIndex(c, index.IntRange(1, 200)); err != nil {
						b.Fatal(err)
					}
				}
				qrng := rand.New(rand.NewSource(42))
				b.StartTimer()
				total := 0
				const queries = 90
				for q := 0; q < queries; q++ {
					// Skewed mix: column A gets most of the misses.
					col := 0
					switch {
					case q%6 == 5:
						col = 2
					case q%3 == 2:
						col = 1
					}
					_, stats, err := tb.QueryEqual(col, storage.Int64Value(int64(201+qrng.Intn(1800))))
					if err != nil {
						b.Fatal(err)
					}
					total += stats.PagesRead
				}
				b.ReportMetric(float64(total)/queries, "pages/query")
			}
		})
	}
}

// BenchmarkSharedScan measures contended-miss throughput: every query
// misses the partial index and needs an indexing scan, the workload that
// serialized completely before scan sharing. goroutines=1 is the
// serialized baseline; at higher counts concurrent misses coalesce into
// shared Algorithm-1 passes, reported as scans_saved_%. The tight
// SpaceLimit keeps the buffer from covering the table (misses stay
// expensive) and the small pool plus simulated read latency keeps scans
// device-bound, as in the paper's table >> memory setup.
func BenchmarkSharedScan(b *testing.B) {
	const (
		rows      = 3000
		keyDomain = 1000
		covered   = 50
	)
	for _, g := range []int{1, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			db := MustOpen(Options{
				Seed:           9,
				SpaceLimit:     64,
				IMax:           64,
				PartitionPages: 8,
				PoolPages:      32,
				ReadLatency:    20 * time.Microsecond,
			})
			defer db.Close()
			tb, err := db.CreateTable("data", Int64Column("k"), StringColumn("pad"))
			if err != nil {
				b.Fatal(err)
			}
			pad := strings.Repeat("s", 220)
			for i := 0; i < rows; i++ {
				if _, err := tb.Insert(int64(i%keyDomain), pad); err != nil {
					b.Fatal(err)
				}
			}
			if err := tb.CreatePartialRangeIndex("k", 0, covered-1); err != nil {
				b.Fatal(err)
			}

			before := db.SharedScanStats()
			per := b.N / g
			if per == 0 {
				per = 1
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						key := int64(covered + (w*per+i)%(keyDomain-covered))
						if _, _, err := tb.Query("k", key); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			s := db.SharedScanStats()
			if misses := s.Misses - before.Misses; misses > 0 {
				scans := s.Scans - before.Scans
				b.ReportMetric(float64(misses-scans)*100/float64(misses), "scans_saved_%")
			}
		})
	}
}

// BenchmarkParallelScan measures parallel table-scan execution on the
// Fig. 6 miss workload: every query misses the partial index and pays an
// indexing scan, which the parallel path splits across a worker pool.
// serial (parallelism=1) is the baseline; parallel uses 4 workers. The
// uncontended pair isolates single-scan speedup, the contended pair runs
// 4 client goroutines so parallel workers compose with scan-sharing
// admission. Simulated read latency makes scans device-bound — worker
// sleeps overlap even on one core, so the speedup shows on any runner.
func BenchmarkParallelScan(b *testing.B) {
	for _, c := range []struct {
		name        string
		parallelism int
		goroutines  int
	}{
		{"serial/uncontended", 1, 1},
		{"parallel/uncontended", 4, 1},
		{"serial/contended", 1, 4},
		{"parallel/contended", 4, 4},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := bench.RunParallelScan(bench.ParallelScanOptions{
					Options: bench.Options{
						Rows:            3000,
						Queries:         12,
						Seed:            5,
						PoolPages:       64,
						ReadLatency:     100 * time.Microsecond,
						ScanParallelism: c.parallelism,
					},
					Goroutines: c.goroutines,
				})
				if err != nil {
					b.Fatal(err)
				}
				if r.ParallelScans > 0 {
					b.ReportMetric(float64(r.Workers)/float64(r.ParallelScans), "workers/scan")
				}
			}
		})
	}
}

// BenchmarkChurn runs the mixed query/DML extension experiment,
// reporting the second-half query cost — the buffer's benefit surviving
// Table I maintenance churn.
func BenchmarkChurn(b *testing.B) {
	var late float64
	for i := 0; i < b.N; i++ {
		r, err := bench.RunChurn(bench.ChurnOptions{Rows: 10000, Operations: 300})
		if err != nil {
			b.Fatal(err)
		}
		n := r.QueryPages.Len()
		late = r.QueryPages.MeanRange(n/2, n)
	}
	b.ReportMetric(late, "late_pages/query")
}

// BenchmarkTraceOverhead measures the observability layer's per-query
// cost on the hot hit path. With span recording and timeline sampling
// off (the default) every instrumentation point is a single atomic load
// and the access path allocates nothing extra, so the "off" sub-benchmark
// should be within noise of the enabled ones — the overhead contract in
// DESIGN.md, "Observability" and "Adaptation timeline".
func BenchmarkTraceOverhead(b *testing.B) {
	cases := []struct {
		name                    string
		spans, timeline, flight bool
	}{
		{"off", false, false, false},
		{"spans-on", true, false, false},
		{"timeline-on", false, true, false},
		{"spans-and-timeline-on", true, true, false},
		{"flight-on", false, false, true},
		{"all-on", true, true, true},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			db := MustOpen(Options{})
			defer db.Close()
			tb, err := db.CreateTable("data", Int64Column("k"), StringColumn("pad"))
			if err != nil {
				b.Fatal(err)
			}
			pad := strings.Repeat("s", 220)
			for i := 0; i < 2000; i++ {
				if _, err := tb.Insert(int64(i%100), pad); err != nil {
					b.Fatal(err)
				}
			}
			// Full coverage: every query is a partial-index hit, the path
			// where instrumentation overhead would be most visible.
			if err := tb.CreatePartialRangeIndex("k", 0, 99); err != nil {
				b.Fatal(err)
			}
			db.EnableTraceEvents(tc.spans)
			db.EnableTimeline(tc.timeline)
			if tc.flight {
				// The Table.Query path has no statement boundary, so the
				// flight arms measure the Enabled+FromContext gate every
				// instrumentation point pays — the embedded-API cost.
				db.EnableFlightRecorder(time.Hour)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := tb.Query("k", int64(i%100)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGroupCommit measures the WAL sync-policy arms under
// concurrent writers (one table per writer, simulated fsync latency):
// the batch arm's higher ops/sec and batch_factor > 1 are the
// group-commit win; the suite's acceptance gate holds the ratio to
// ≥ 2x (see internal/bench.DurabilityResult.Check).
func BenchmarkGroupCommit(b *testing.B) {
	for _, arm := range []string{"fsync-per-commit", "group-commit"} {
		b.Run(arm, func(b *testing.B) {
			var ops, factor float64
			for i := 0; i < b.N; i++ {
				r, err := bench.RunDurability(bench.Options{Queries: 40})
				if err != nil {
					b.Fatal(err)
				}
				for _, a := range r.Arms {
					if a.Arm == arm {
						ops, factor = a.OpsPerSec, a.BatchFactor
					}
				}
			}
			b.ReportMetric(ops, "ops/sec")
			b.ReportMetric(factor, "batch_factor")
		})
	}
}
