package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/index"
	"repro/internal/storage"
)

var errInjected = errors.New("injected fault")

// scanFixture puts the standard partial index (coverage [0,4]) and an
// ample Index Buffer over the given heap access.
func scanFixture(t *testing.T, tb Heap) Access {
	t.Helper()
	return spaceFixture(t, tb, core.Config{IMax: 10000, P: 100})
}

// spaceFixture is scanFixture with the Space configured by cfg.
func spaceFixture(t *testing.T, tb Heap, cfg core.Config) Access {
	t.Helper()
	ix := index.NewPartial("k", 0, index.IntRange(0, 4))
	uncovered := make([]int, tb.NumPages())
	for p := 0; p < tb.NumPages(); p++ {
		err := tb.ScanPage(storage.PageID(p), 0, func(rid storage.RID, key storage.Value, _ []byte) error {
			if !ix.Add(key, rid) {
				uncovered[rid.Page]++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	space := core.NewSpace(cfg)
	buf, err := space.CreateBuffer("t.k", uncovered)
	if err != nil {
		t.Fatal(err)
	}
	return Access{Table: tb, Column: 0, Index: ix, Buffer: buf, Space: space}
}

// checkCounterInvariant asserts the paper's skip invariant: a page may
// report C[p] == 0 only when every uncovered live tuple of the page is
// reachable through the buffer.
func checkCounterInvariant(t *testing.T, tb *heap.Table, a Access) {
	t.Helper()
	for p := 0; p < tb.NumPages(); p++ {
		pg := storage.PageID(p)
		if a.Buffer.Counter(pg) != 0 {
			continue
		}
		err := tb.ScanPage(pg, 0, func(rid storage.RID, v storage.Value, _ []byte) error {
			if a.Index.Covers(v) {
				return nil
			}
			for _, got := range a.Buffer.Lookup(v) {
				if got == rid {
					return nil
				}
			}
			t.Errorf("page %d: C[p]==0 but uncovered tuple %v at %v missing from buffer", p, v, rid)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestExecuteSharedBatch(t *testing.T) {
	tb := buildTable(t, 300)
	a := scanFixture(t, tb)

	outs := ExecuteShared(a, []SharedQuery{
		{Lo: iv(8), Hi: iv(8), Equality: true}, // miss — batch leader
		{Lo: iv(9), Hi: iv(9), Equality: true}, // miss
		{Lo: iv(2), Hi: iv(2), Equality: true}, // covered: served from the index
		{Lo: iv(5), Hi: iv(9)},                 // range miss straddling coverage
	})
	want := []int{30, 30, 30, 150}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("query %d: %v", i, o.Err)
		}
		if len(o.Matches) != want[i] || o.Stats.Matches != want[i] {
			t.Errorf("query %d: %d matches (stats %d), want %d", i, len(o.Matches), o.Stats.Matches, want[i])
		}
		if o.Stats.Duration <= 0 {
			t.Errorf("query %d: Duration not recorded", i)
		}
	}
	if !outs[2].Stats.PartialHit || outs[2].Stats.PagesRead >= tb.NumPages() {
		t.Errorf("covered query stats = %+v", outs[2].Stats)
	}

	// Maintenance ran once, attributed to the first scanning query: 150
	// uncovered tuples entered the buffer in one pass.
	if outs[0].Stats.PagesSelected != tb.NumPages() || outs[0].Stats.EntriesAdded != 150 {
		t.Errorf("leader stats: selected=%d entries=%d", outs[0].Stats.PagesSelected, outs[0].Stats.EntriesAdded)
	}
	for _, i := range []int{1, 2, 3} {
		if outs[i].Stats.PagesSelected != 0 || outs[i].Stats.EntriesAdded != 0 {
			t.Errorf("query %d carries maintenance stats %+v", i, outs[i].Stats)
		}
	}
	// Per-query logical I/O stays deduplicated: no query reads a page
	// twice even though the range query touches buffer materialization,
	// the table scan, and skipped-page recovery.
	for i, o := range outs {
		if o.Stats.PagesRead > tb.NumPages() {
			t.Errorf("query %d read %d pages of %d", i, o.Stats.PagesRead, tb.NumPages())
		}
	}

	// One pass buffered every page: the next miss skips the whole table.
	got, s2, err := Equal(context.Background(), a, iv(9))
	if err != nil {
		t.Fatal(err)
	}
	if s2.PagesSkipped != tb.NumPages() || s2.BufferMatches != 30 || len(got) != 30 {
		t.Errorf("second pass: skipped=%d bufferMatches=%d matches=%d", s2.PagesSkipped, s2.BufferMatches, len(got))
	}
}

func TestExecuteSharedCancelOne(t *testing.T) {
	tb := buildTable(t, 300)
	a := scanFixture(t, tb)

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
	// The scan survived the cancellation and still built the buffer.
	if a.Buffer.EntryCount() == 0 {
		t.Error("scan aborted: buffer empty after one query canceled")
	}
}

// truncHeap hands the executor every tuple whose key is key one byte
// short. The kernel has already checked the real bytes' framing, so the
// fault fires only when the executor materialises a match.
type truncHeap struct {
	*heap.Table
	key storage.Value
}

func (h *truncHeap) ScanPage(p storage.PageID, col int, fn func(storage.RID, storage.Value, []byte) error) error {
	return h.Table.ScanPage(p, col, func(rid storage.RID, key storage.Value, raw []byte) error {
		if key.Equal(h.key) {
			raw = raw[:len(raw)-1]
		}
		return fn(rid, key, raw)
	})
}

// corruptNonMatch shrinks the VARCHAR length prefix of a key-3 tuple on
// page 2 — a tuple the partial index covers and a query for 8 never
// materialises — so only the kernel's framing check can notice it.
func corruptNonMatch(t *testing.T, tb *heap.Table, pool *buffer.Pool) {
	t.Helper()
	victim := storage.InvalidRID
	_ = tb.Scan(func(rid storage.RID, tu storage.Tuple) error {
		if !victim.IsValid() && rid.Page == 2 && tu.Value(0).Int64() == 3 {
			victim = rid
		}
		return nil
	})
	if !victim.IsValid() {
		t.Fatal("no key-3 tuple on page 2")
	}
	f, err := pool.Fetch(victim.Page)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Unpin(f)
	sp, err := heap.AsPage(f.Data())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := sp.Tuple(int(victim.Slot))
	if err != nil {
		t.Fatal(err)
	}
	raw[8]-- // low byte of the pad column's length prefix: one trailing byte
	f.MarkDirty()
}

// checkUntouched asserts an aborted scan on a fixture whose buffer
// started empty left it exactly as it was: no entry, no Space usage,
// and every C[p] at its page's uncovered count.
func checkUntouched(t *testing.T, a Access) {
	t.Helper()
	if n, used := a.Buffer.EntryCount(), a.Space.Used(); n != 0 || used != 0 {
		t.Errorf("after the aborted scan the buffer holds %d entries, Space.Used() = %d; want 0, 0", n, used)
	}
	for p := 0; p < a.Table.NumPages(); p++ {
		pg := storage.PageID(p)
		if got, want := a.Buffer.Counter(pg), a.Buffer.Uncovered(pg); got != want {
			t.Errorf("C[%d] = %d after the aborted scan, want uncovered %d", p, got, want)
		}
	}
}

// TestScanFaultsRollBack covers the two faults the key-first kernel
// relocates, at one and at four workers: a corrupt tuple no query wants
// must still fail the scan (the kernel kept the framing check), and a
// failure materialising a match must abort like any mid-page fault —
// with the Index Buffer untouched.
func TestScanFaultsRollBack(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("corrupt-nonmatch/p%d", par), func(t *testing.T) {
			tb, pool := buildTablePool(t, 300)
			a := scanFixture(t, tb)
			a.Parallelism = par
			corruptNonMatch(t, tb, pool)
			_, _, err := Equal(context.Background(), a, iv(8))
			if err == nil || !strings.Contains(err.Error(), "trailing bytes") {
				t.Fatalf("err = %v, want the corrupt tuple's framing error", err)
			}
			checkUntouched(t, a)
		})
		t.Run(fmt.Sprintf("materialize/p%d", par), func(t *testing.T) {
			real := buildTable(t, 300)
			a := scanFixture(t, &truncHeap{Table: real, key: iv(8)})
			a.Parallelism = par
			_, _, err := Equal(context.Background(), a, iv(8))
			if err == nil || !strings.Contains(err.Error(), "short buffer") {
				t.Fatalf("err = %v, want the match's decode error", err)
			}
			checkUntouched(t, a)

			a.Table = real // fault cleared
			got, _, err := Equal(context.Background(), a, iv(8))
			if err != nil || len(got) != 30 {
				t.Fatalf("after the fault: %d matches, err %v; want 30", len(got), err)
			}
			checkCounterInvariant(t, real, a)
		})
	}
}
