package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/storage"
)

// The table-scan pass runs the same two phases at every worker count, so
// the tests here hold every count to the same contracts, at parallelism
// 1 (phase 1 inline on the caller) and n > 1 (a worker pool): results,
// stats and counters equal the reference Algorithm 1 of
// reference_test.go and do not depend on the worker count, and a fault
// or whole-batch cancellation in phase 1 leaves the Index Buffer exactly
// as it was.

// raceFaultHeap runs fault once per page, at the first row a scan reads
// after a set number of rows, with atomic state so concurrent workers
// may hit it. The fault lands mid-page: the executor is handed the
// page's rows before that row, then the fault runs, and when it returns
// nil the executor is handed the rest of the page. A nil fault fails the
// scan with errInjected.
type raceFaultHeap struct {
	*heap.Table
	remaining atomic.Int64
	armed     atomic.Bool
	fault     func() error
}

func (f *raceFaultHeap) ScanPage(p storage.PageID, col int, b *heap.PageBatch, fn func(*heap.PageBatch) error) error {
	return f.Table.ScanPage(p, col, b, func(b *heap.PageBatch) error {
		for i := 0; i < b.Len() && f.armed.Load(); i++ {
			if f.remaining.Add(-1) >= 0 {
				continue
			}
			if err := fn(batchRows(b, 0, i)); err != nil {
				return err
			}
			err := errInjected
			if f.fault != nil {
				err = f.fault()
			}
			if err != nil {
				return err
			}
			return fn(batchRows(b, i, b.Len()))
		}
		return fn(b)
	})
}

// batchRows is rows [lo, hi) of b, as a batch of its own.
func batchRows(b *heap.PageBatch, lo, hi int) *heap.PageBatch {
	r := &heap.PageBatch{Page: b.Page, Slots: b.Slots[lo:hi], Raw: b.Raw[lo:hi]}
	if len(b.Ints) > 0 {
		r.Ints = b.Ints[lo:hi]
	} else {
		r.Keys = b.Keys[lo:hi]
	}
	return r
}

// checkMidPageFault injects a fault mid-page (the 26th tuple, on the
// third page) into a scan at the given parallelism and checks that the
// aborted scan applied nothing — no partial page, no counter movement,
// no Space usage — and that the disarmed query then answers correctly.
func checkMidPageFault(t *testing.T, par int) {
	t.Helper()
	fh := &raceFaultHeap{Table: buildTable(t, 300)}
	a := scanFixture(t, fh)
	a.Parallelism = par
	fh.remaining.Store(25)
	fh.armed.Store(true)

	_, stats, err := Range(context.Background(), a, iv(8), iv(8))
	if !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if stats.Duration <= 0 {
		t.Error("Duration not recorded on the error path")
	}
	checkUntouched(t, a)

	fh.armed.Store(false)
	got, stats, err := Range(context.Background(), a, iv(8), iv(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 || stats.ScanWorkers != par {
		t.Errorf("recovery: %d matches, %d workers; want 30, %d", len(got), stats.ScanWorkers, par)
	}
	checkCounterInvariant(t, fh.Table, a)
}

// TestMidPageFailureRollsBackPage runs the mid-page fault at parallelism
// 1, where the caller reads every page itself.
func TestMidPageFailureRollsBackPage(t *testing.T) { checkMidPageFault(t, 1) }

// TestParallelFaultLeavesBufferUntouched runs the mid-page fault at
// parallelism 4, where a worker pool reads the chunks.
func TestParallelFaultLeavesBufferUntouched(t *testing.T) { checkMidPageFault(t, 4) }

// normStats strips the two fields that legitimately differ across
// parallelism settings: wall time and the fan-out itself.
func normStats(s QueryStats) QueryStats {
	s.Duration = 0
	s.ScanWorkers = 0
	return s
}

// TestParallelMatchesSerialOracle runs the standard shared batch on two
// identical fixtures, one at parallelism 1 (the serial oracle) and one
// at 4, and diffs every outcome, every C[p], the entry totals and the
// Space budget. The second round repeats the batch, so the
// all-pages-skipped path is diffed too.
func TestParallelMatchesSerialOracle(t *testing.T) {
	sa := scanFixture(t, buildTable(t, 300))
	sa.Parallelism = 1
	pa := scanFixture(t, buildTable(t, 300))
	pa.Parallelism = 4
	batch := []SharedQuery{
		{Lo: iv(8), Hi: iv(8)},
		{Lo: iv(9), Hi: iv(9)},
		{Lo: iv(2), Hi: iv(2)}, // covered: index hit
		{Lo: iv(5), Hi: iv(9)}, // range straddling coverage
	}
	for round, label := range []string{"cold", "buffered"} {
		so := ExecuteShared(sa, batch)
		po := ExecuteShared(pa, batch)
		if round == 0 && po[0].Stats.ScanWorkers != 4 {
			t.Errorf("parallel leader reports %d workers, want 4", po[0].Stats.ScanWorkers)
		}
		for i := range so {
			s, p := so[i], po[i]
			if s.Err != nil || p.Err != nil {
				t.Fatalf("%s query %d: serial err %v, parallel err %v", label, i, s.Err, p.Err)
			}
			if !reflect.DeepEqual(normStats(s.Stats), normStats(p.Stats)) {
				t.Errorf("%s query %d stats:\nserial   %+v\nparallel %+v", label, i, normStats(s.Stats), normStats(p.Stats))
			}
			if len(s.Matches) != len(p.Matches) {
				t.Fatalf("%s query %d: %d serial matches, %d parallel", label, i, len(s.Matches), len(p.Matches))
			}
			for j := range s.Matches {
				if s.Matches[j].RID != p.Matches[j].RID {
					t.Fatalf("%s query %d match %d: serial %v, parallel %v", label, i, j, s.Matches[j].RID, p.Matches[j].RID)
				}
			}
		}
		for pg := 0; pg < sa.Table.NumPages(); pg++ {
			if s, g := sa.Buffer.Counter(storage.PageID(pg)), pa.Buffer.Counter(storage.PageID(pg)); s != g {
				t.Errorf("%s: C[%d] serial %d, parallel %d", label, pg, s, g)
			}
		}
		if s, g := sa.Buffer.EntryCount(), pa.Buffer.EntryCount(); s != g {
			t.Errorf("%s: entries serial %d, parallel %d", label, s, g)
		}
		if s, g := sa.Space.Used(), pa.Space.Used(); s != g {
			t.Errorf("%s: space used serial %d, parallel %d", label, s, g)
		}
	}
}

// TestParallelCancelOne mirrors TestExecuteSharedCancelOne at
// parallelism 4: the canceled query gets ctx.Err and no matches, the
// live one completes, and the scan still builds the buffer.
func TestParallelCancelOne(t *testing.T) {
	a := scanFixture(t, buildTable(t, 300))
	a.Parallelism = 4
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	outs := ExecuteShared(a, []SharedQuery{
		{Lo: iv(8), Hi: iv(8), Ctx: canceled},
		{Lo: iv(9), Hi: iv(9)},
	})
	if !errors.Is(outs[0].Err, context.Canceled) || outs[0].Matches != nil {
		t.Errorf("canceled query: err=%v matches=%d", outs[0].Err, len(outs[0].Matches))
	}
	if outs[1].Err != nil || len(outs[1].Matches) != 30 {
		t.Errorf("live query: err=%v matches=%d", outs[1].Err, len(outs[1].Matches))
	}
	if a.Buffer.EntryCount() == 0 {
		t.Error("scan aborted: buffer empty after one query canceled")
	}
}

// TestParallelCancelAll cancels every attached query mid-scan, on the
// third page: phase 1 stops at the next page boundary and, like the
// fault path, applies nothing.
func TestParallelCancelAll(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("p%d", par), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			fh := &raceFaultHeap{Table: buildTable(t, 300), fault: func() error { cancel(); return nil }}
			a := scanFixture(t, fh)
			a.Parallelism = par
			fh.remaining.Store(25)
			fh.armed.Store(true)
			outs := ExecuteShared(a, []SharedQuery{
				{Lo: iv(8), Hi: iv(8), Ctx: ctx},
				{Lo: iv(9), Hi: iv(9), Ctx: ctx},
			})
			for i, o := range outs {
				if !errors.Is(o.Err, context.Canceled) || o.Matches != nil {
					t.Errorf("query %d: err=%v matches=%d", i, o.Err, len(o.Matches))
				}
			}
			checkUntouched(t, a)
		})
	}
}

// TestParallelOracleRandomized diffs ExecuteShared against the reference
// Algorithm 1 over a seeded stream of batches — equality and range
// predicates, in and out of index coverage, empty ranges — at
// parallelism 1, 2 and 4: every query's matches and stats, then every
// C[p] and the buffer's size. With IMax 3 on a 37-page table, I is a
// strict subset of the candidates until the buffer covers the table.
// The stream then runs on in a fully converged phase, where every page
// is skipped and the pass has nothing to read. Throughout, ranges that
// straddle the coverage predicate find covered matches on skipped pages,
// which only the pass's recovery step can return; the test checks both
// shapes actually occurred.
func TestParallelOracleRandomized(t *testing.T) {
	keyRNG := rand.New(rand.NewSource(7))
	keys := make([]int64, 400)
	for i := range keys {
		keys[i] = keyRNG.Int63n(10)
	}
	covered := func(k int64) bool { return k >= 0 && k <= 4 }
	for _, par := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			tb, _ := buildTableKeys(t, keys)
			a := spaceFixture(t, tb, core.Config{IMax: 3, P: 4})
			a.Parallelism = par
			ref := newRefAlg1(t, tb, 3, covered)
			rng := rand.New(rand.NewSource(42))
			convergedMisses, recovered := 0, 0
			for round := 0; round < 40; round++ {
				batch := make([]SharedQuery, 1+rng.Intn(4))
				for i := range batch {
					lo := int64(rng.Intn(12) - 1) // keys are 0..9; stray outside on purpose
					batch[i] = SharedQuery{Lo: iv(lo), Hi: iv(lo + int64(rng.Intn(6)) - 1)}
					if rng.Intn(2) == 0 {
						batch[i] = SharedQuery{Lo: iv(lo), Hi: iv(lo)}
					}
				}
				skippedAtStart := make([]bool, len(ref.uncovered))
				converged := true
				for p := range skippedAtStart {
					skippedAtStart[p] = ref.counter(p) == 0
					converged = converged && skippedAtStart[p]
				}
				outs := ExecuteShared(a, batch)
				for _, o := range outs {
					if o.Stats.PartialHit || o.Err != nil {
						continue
					}
					for _, m := range o.Matches {
						if covered(m.Tuple.Value(0).Int64()) && skippedAtStart[m.RID.Page] {
							recovered++
						}
					}
					if converged && o.Stats.ScanWorkers > 0 {
						convergedMisses++
					}
				}
				wantRIDs, wantStats := ref.batch(batch, par)
				for i, o := range outs {
					var got []storage.RID
					for _, m := range o.Matches {
						got = append(got, m.RID)
					}
					sortRIDs(got)
					o.Stats.Duration = 0
					if o.Err != nil || !slices.Equal(got, wantRIDs[i]) || !reflect.DeepEqual(o.Stats, wantStats[i]) {
						t.Fatalf("round %d query %d %+v: err %v\ngot  %v\n     %+v\nwant %v\n     %+v",
							round, i, batch[i], o.Err, got, o.Stats, wantRIDs[i], wantStats[i])
					}
				}
				entries := 0
				for p := range ref.uncovered {
					if got, want := a.Buffer.Counter(storage.PageID(p)), ref.counter(p); got != want {
						t.Fatalf("round %d: C[%d] = %d, reference %d", round, p, got, want)
					}
					if ref.buffered[p] {
						entries += ref.uncovered[p]
					}
				}
				if n, used := a.Buffer.EntryCount(), a.Space.Used(); n != entries || used != entries {
					t.Fatalf("round %d: %d entries, Space.Used %d; reference %d", round, n, used, entries)
				}
			}
			t.Logf("%d misses on a converged buffer, %d covered matches recovered from skipped pages", convergedMisses, recovered)
			if convergedMisses < 10 || recovered == 0 {
				t.Errorf("stream too tame: %d misses on a converged buffer (want >= 10), %d covered matches recovered from skipped pages (want > 0)",
					convergedMisses, recovered)
			}
		})
	}
}

// TestIntBoundsMatchBetween holds the compiled INTEGER predicate to
// Value.Between for bounds of every kind, integers at the edges of
// int64 included: a bound that is not an INTEGER orders below
// (KindInvalid) or above (VARCHAR) every integer.
func TestIntBoundsMatchBetween(t *testing.T) {
	bounds := []storage.Value{{}, iv(math.MinInt64), iv(-5), iv(0), iv(7), iv(math.MaxInt64), storage.StringValue(""), storage.StringValue("a")}
	keys := []int64{math.MinInt64, -6, -5, 0, 3, 7, 8, math.MaxInt64}
	for _, lo := range bounds {
		for _, hi := range bounds {
			r := intBounds(lo, hi)
			for _, k := range keys {
				if got, want := r.has(k), iv(k).Between(lo, hi); got != want {
					t.Errorf("[%v, %v] compiled to %+v: has(%d) = %v, Between %v", lo, hi, r, k, got, want)
				}
			}
		}
	}
}
