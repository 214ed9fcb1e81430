package exec

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/heap"
	"repro/internal/storage"
)

// The parallel scan's contract is bit-identical results: for any batch,
// an Access with Parallelism > 1 must produce the same outcomes and
// leave the same Index Buffer state as the serial scan. The tests here
// hold the serial path as the oracle and diff everything observable.

// normStats strips the two fields that legitimately differ across
// parallelism settings: wall time and the fan-out itself.
func normStats(s QueryStats) QueryStats {
	s.Duration = 0
	s.ScanWorkers = 0
	return s
}

// oracleFixtures builds two identical table+buffer fixtures, one for the
// serial oracle and one for the parallel run under test.
func oracleFixtures(t *testing.T, rows, parallelism int) (serial, par Access) {
	t.Helper()
	serial = scanFixture(t, buildTable(t, rows))
	serial.Parallelism = 1
	par = scanFixture(t, buildTable(t, rows))
	par.Parallelism = parallelism
	return serial, par
}

// diffOutcomes asserts the parallel batch outcome equals the serial one.
func diffOutcomes(t *testing.T, label string, serial, par []SharedOutcome) {
	t.Helper()
	for i := range serial {
		s, p := serial[i], par[i]
		if (s.Err == nil) != (p.Err == nil) {
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
}

// diffBuffers asserts the two fixtures' Index Buffer states are
// identical: every page counter, the entry totals, and the Space budget.
func diffBuffers(t *testing.T, label string, serial, par Access, numPages int) {
	t.Helper()
	for p := 0; p < numPages; p++ {
		pg := storage.PageID(p)
		if s, g := serial.Buffer.Counter(pg), par.Buffer.Counter(pg); s != g {
			t.Errorf("%s: C[%d] serial %d, parallel %d", label, p, s, g)
		}
		if c := par.Buffer.Counter(pg); c < 0 {
			t.Errorf("%s: C[%d] = %d negative", label, p, c)
		}
	}
	if s, g := serial.Buffer.EntryCount(), par.Buffer.EntryCount(); s != g {
		t.Errorf("%s: entries serial %d, parallel %d", label, s, g)
	}
	if s, g := serial.Space.Used(), par.Space.Used(); s != g {
		t.Errorf("%s: space used serial %d, parallel %d", label, s, g)
	}
}

// TestParallelMatchesSerialOracle runs the standard shared batch at
// parallelism 4 against the serial oracle, then repeats it so the
// second round exercises the all-pages-skipped path in parallel too.
func TestParallelMatchesSerialOracle(t *testing.T) {
	sa, pa := oracleFixtures(t, 300, 4)
	batch := []SharedQuery{
		{Lo: iv(8), Hi: iv(8), Equality: true},
		{Lo: iv(9), Hi: iv(9), Equality: true},
		{Lo: iv(2), Hi: iv(2), Equality: true}, // covered: index hit
		{Lo: iv(5), Hi: iv(9)},                 // range straddling coverage
	}
	for round, label := range []string{"cold", "buffered"} {
		so := ExecuteShared(sa, batch)
		po := ExecuteShared(pa, batch)
		if round == 0 && po[0].Stats.ScanWorkers != 4 {
			t.Errorf("parallel leader reports %d workers, want 4", po[0].Stats.ScanWorkers)
		}
		diffOutcomes(t, label, so, po)
		diffBuffers(t, label, sa, pa, sa.Table.NumPages())
	}
}

// TestParallelOracleRandomized drives both fixtures through the same
// seeded random batch stream — mixed equality and range predicates, in
// and out of index coverage — and diffs outcomes and buffer state after
// every batch. Seeded, so failures replay exactly.
func TestParallelOracleRandomized(t *testing.T) {
	for _, parallelism := range []int{2, 4} {
		sa, pa := oracleFixtures(t, 400, parallelism)
		numPages := sa.Table.NumPages()
		rng := rand.New(rand.NewSource(42))
		for round := 0; round < 12; round++ {
			batch := make([]SharedQuery, 1+rng.Intn(4))
			for i := range batch {
				lo := int64(rng.Intn(12) - 1) // keys are 0..9; stray outside on purpose
				if rng.Intn(2) == 0 {
					batch[i] = SharedQuery{Lo: iv(lo), Hi: iv(lo), Equality: true}
				} else {
					batch[i] = SharedQuery{Lo: iv(lo), Hi: iv(lo + int64(rng.Intn(5)))}
				}
			}
			so := ExecuteShared(sa, batch)
			po := ExecuteShared(pa, batch)
			label := string(rune('a' + round))
			diffOutcomes(t, label, so, po)
			diffBuffers(t, label, sa, pa, numPages)
		}
	}
}

// raceFaultHeap injects a fault after a set number of scanned tuples,
// like faultHeap, but with atomic state so concurrent workers may hit it.
type raceFaultHeap struct {
	*heap.Table
	remaining atomic.Int64
	armed     atomic.Bool
}

func (f *raceFaultHeap) ScanPage(p storage.PageID, col int, fn func(storage.RID, storage.Value, []byte) error) error {
	return f.Table.ScanPage(p, col, func(rid storage.RID, key storage.Value, raw []byte) error {
		if f.armed.Load() && f.remaining.Add(-1) < 0 {
			return errInjected
		}
		return fn(rid, key, raw)
	})
}

// TestParallelFaultLeavesBufferUntouched checks the parallel path's
// all-or-nothing failure contract: a fault during phase 1 aborts before
// the merge, so the Index Buffer holds nothing — no partial page, no
// counter movement, no Space usage.
func TestParallelFaultLeavesBufferUntouched(t *testing.T) {
	fh := &raceFaultHeap{Table: buildTable(t, 300)}
	a := scanFixture(t, fh)
	a.Parallelism = 4
	fh.remaining.Store(25)
	fh.armed.Store(true)

	_, _, err := Equal(context.Background(), a, iv(8))
	if !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if n := a.Buffer.EntryCount(); n != 0 {
		t.Errorf("buffer holds %d entries after aborted parallel scan", n)
	}
	if used := a.Space.Used(); used != 0 {
		t.Errorf("Space.Used() = %d after aborted parallel scan", used)
	}
	for p := 0; p < fh.NumPages(); p++ {
		pg := storage.PageID(p)
		if got, want := a.Buffer.Counter(pg), a.Buffer.Uncovered(pg); got != want {
			t.Errorf("C[%d] = %d after abort, want untouched %d", p, got, want)
		}
	}

	// Disarmed, the same query completes and matches the fixture oracle.
	fh.armed.Store(false)
	got, stats, err := Equal(context.Background(), a, iv(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 || stats.ScanWorkers != 4 {
		t.Errorf("recovery: %d matches, %d workers", len(got), stats.ScanWorkers)
	}
	checkCounterInvariant(t, fh.Table, a)
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
		{Lo: iv(8), Hi: iv(8), Equality: true, Ctx: canceled},
		{Lo: iv(9), Hi: iv(9), Equality: true},
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

// TestParallelCancelAll: when every attached query's context is expired
// the pool aborts in phase 1 and, like the fault path, applies nothing.
func TestParallelCancelAll(t *testing.T) {
	a := scanFixture(t, buildTable(t, 300))
	a.Parallelism = 4
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	outs := ExecuteShared(a, []SharedQuery{
		{Lo: iv(8), Hi: iv(8), Equality: true, Ctx: canceled},
		{Lo: iv(9), Hi: iv(9), Equality: true, Ctx: canceled},
	})
	for i, o := range outs {
		if !errors.Is(o.Err, context.Canceled) || o.Matches != nil {
			t.Errorf("query %d: err=%v matches=%d", i, o.Err, len(o.Matches))
		}
	}
	if n := a.Buffer.EntryCount(); n != 0 {
		t.Errorf("buffer holds %d entries after fully-canceled scan", n)
	}
	if used := a.Space.Used(); used != 0 {
		t.Errorf("Space.Used() = %d after fully-canceled scan", used)
	}
}
