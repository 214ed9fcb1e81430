package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/storage"
)

// matrixFixture builds a buffer over four pages: pages 0 and 1 are
// buffered (in B), pages 2 and 3 are not. Each page starts with one
// uncovered tuple (value 100+page) already accounted; buffered pages have
// the corresponding buffer entry, per the invariant. extra are further
// entries of page 0, applied with it.
func matrixFixture(t *testing.T, extra ...PageEntry) (*Space, *IndexBuffer) {
	t.Helper()
	s, b := newBuf(t, Config{P: 2}, []int{1, 1, 1, 1})
	for p := 0; p < 2; p++ {
		es := pageEntries(p, int64(100+p))
		if p == 0 {
			es = append(es, extra...)
		}
		if err := b.ApplyPage(storage.PageID(p), es); err != nil {
			t.Fatal(err)
		}
	}
	return s, b
}

// TestMaintenanceMatrixTableI exhaustively checks the 16 cells of the
// paper's Table I: (told ∈ IX) × (tnew ∈ IX) × (pold ∈ B) × (pnew ∈ B).
func TestMaintenanceMatrixTableI(t *testing.T) {
	pageFor := func(inB bool, old bool) storage.PageID {
		// Buffered: old on page 0, new on page 1. Unbuffered: 2 / 3.
		if inB {
			if old {
				return 0
			}
			return 1
		}
		if old {
			return 2
		}
		return 3
	}

	for _, oldInIX := range []bool{true, false} {
		for _, newInIX := range []bool{true, false} {
			for _, pOldInB := range []bool{true, false} {
				for _, pNewInB := range []bool{true, false} {
					name := fmt.Sprintf("told∈IX=%v tnew∈IX=%v pold∈B=%v pnew∈B=%v",
						oldInIX, newInIX, pOldInB, pNewInB)
					t.Run(name, func(t *testing.T) {
						pOld, pNew := pageFor(pOldInB, true), pageFor(pNewInB, false)
						oldRID := rid(int(pOld), 5)
						newRID := rid(int(pNew), 6)
						oldVal, newVal := iv(777), iv(888)

						// Precondition: if the old tuple is uncovered, it
						// must be accounted — in the buffer when its page
						// (then page 0) is buffered, and in the raw count.
						var extra []PageEntry
						if !oldInIX && pOldInB {
							extra = []PageEntry{{Key: oldVal, RID: oldRID}}
						}
						_, b := matrixFixture(t, extra...)
						if !oldInIX {
							b.uncovered[pOld]++
						}
						entriesBefore := b.EntryCount()
						uncovNewBefore := b.Uncovered(pNew)
						uncovOldBefore := b.Uncovered(pOld)

						b.MaintainUpdate(oldVal, newVal, oldRID, newRID, oldInIX, newInIX)

						// Expected buffer membership afterwards.
						wantOldEntry := false // (oldVal, oldRID) must be gone in all cells
						wantNewEntry := !newInIX && pNewInB
						if got := containsEntry(b, oldVal, oldRID); got != wantOldEntry {
							t.Errorf("old entry present=%v, want %v", got, wantOldEntry)
						}
						if got := containsEntry(b, newVal, newRID); got != wantNewEntry {
							t.Errorf("new entry present=%v, want %v", got, wantNewEntry)
						}

						// Counter (uncovered) deltas.
						wantOldDelta, wantNewDelta := 0, 0
						if !oldInIX {
							wantOldDelta-- // the uncovered old tuple left pOld
						}
						if !newInIX {
							wantNewDelta++ // an uncovered tuple arrived at pNew
						}
						if pOld == pNew {
							d := wantOldDelta + wantNewDelta
							if got := b.Uncovered(pOld) - uncovOldBefore; got != d {
								t.Errorf("uncovered[%d] delta = %d, want %d", pOld, got, d)
							}
						} else {
							if got := b.Uncovered(pOld) - uncovOldBefore; got != wantOldDelta {
								t.Errorf("uncovered[pold] delta = %d, want %d", got, wantOldDelta)
							}
							if got := b.Uncovered(pNew) - uncovNewBefore; got != wantNewDelta {
								t.Errorf("uncovered[pnew] delta = %d, want %d", got, wantNewDelta)
							}
						}

						// Entry-count delta follows membership changes.
						wantEntryDelta := 0
						if !oldInIX && pOldInB {
							wantEntryDelta--
						}
						if wantNewEntry {
							wantEntryDelta++
						}
						if got := b.EntryCount() - entriesBefore; got != wantEntryDelta {
							t.Errorf("entry delta = %d, want %d", got, wantEntryDelta)
						}

						// Buffered pages always read counter 0; unbuffered
						// pages read their uncovered count.
						for p := 0; p < 4; p++ {
							pg := storage.PageID(p)
							want := b.Uncovered(pg)
							if b.PageBuffered(pg) {
								want = 0
							}
							if got := b.Counter(pg); got != want {
								t.Errorf("Counter(%d) = %d, want %d", p, got, want)
							}
						}
					})
				}
			}
		}
	}
}

// modelTuple is a live (value, rid) pair in the randomized model.
type modelTuple struct {
	v storage.Value
	r storage.RID
}

func containsEntry(b *IndexBuffer, v storage.Value, r storage.RID) bool {
	for _, got := range b.Lookup(v) {
		if got == r {
			return true
		}
	}
	return false
}

func TestMaintainInsert(t *testing.T) {
	t.Run("covered is ignored", func(t *testing.T) {
		s, b := matrixFixture(t)
		used := s.Used()
		b.MaintainInsert(iv(5), rid(2, 9), true)
		if s.Used() != used || b.Uncovered(2) != 1 {
			t.Error("covered insert touched buffer state")
		}
	})
	t.Run("uncovered on buffered page joins buffer", func(t *testing.T) {
		s, b := matrixFixture(t)
		used := s.Used()
		b.MaintainInsert(iv(5), rid(0, 9), false)
		if !containsEntry(b, iv(5), rid(0, 9)) {
			t.Error("entry not added")
		}
		if s.Used() != used+1 {
			t.Error("space not charged")
		}
		if b.Counter(0) != 0 {
			t.Error("buffered page counter should stay 0")
		}
		if b.Uncovered(0) != 2 {
			t.Errorf("uncovered = %d, want 2", b.Uncovered(0))
		}
	})
	t.Run("uncovered on plain page bumps counter", func(t *testing.T) {
		_, b := matrixFixture(t)
		b.MaintainInsert(iv(5), rid(2, 9), false)
		if b.Counter(2) != 2 {
			t.Errorf("counter = %d, want 2", b.Counter(2))
		}
	})
	t.Run("insert on brand-new page grows counters", func(t *testing.T) {
		_, b := matrixFixture(t)
		b.MaintainInsert(iv(5), rid(9, 0), false)
		if b.NumPages() != 10 || b.Counter(9) != 1 {
			t.Errorf("pages=%d C[9]=%d", b.NumPages(), b.Counter(9))
		}
	})
}

func TestMaintainDelete(t *testing.T) {
	t.Run("covered is ignored", func(t *testing.T) {
		_, b := matrixFixture(t)
		b.MaintainDelete(iv(100), rid(0, 0), true)
		if !containsEntry(b, iv(100), rid(0, 0)) {
			t.Error("covered delete removed a buffer entry")
		}
	})
	t.Run("uncovered on buffered page leaves buffer", func(t *testing.T) {
		s, b := matrixFixture(t)
		used := s.Used()
		b.MaintainDelete(iv(100), rid(0, 0), false)
		if containsEntry(b, iv(100), rid(0, 0)) {
			t.Error("entry not removed")
		}
		if s.Used() != used-1 {
			t.Error("space not released")
		}
		if b.Uncovered(0) != 0 {
			t.Errorf("uncovered = %d, want 0", b.Uncovered(0))
		}
	})
	t.Run("uncovered on plain page drops counter", func(t *testing.T) {
		_, b := matrixFixture(t)
		b.MaintainDelete(iv(102), rid(2, 0), false)
		if b.Counter(2) != 0 {
			t.Errorf("counter = %d, want 0", b.Counter(2))
		}
		// Counter never goes negative, even on spurious deletes.
		b.MaintainDelete(iv(1), rid(2, 1), false)
		if b.Counter(2) != 0 {
			t.Errorf("counter went negative: %d", b.Counter(2))
		}
	})
}

func TestMaintainUpdateNoop(t *testing.T) {
	s, b := matrixFixture(t)
	used := s.Used()
	// Same value, same rid, same coverage: nothing changes.
	b.MaintainUpdate(iv(100), iv(100), rid(0, 0), rid(0, 0), false, false)
	if s.Used() != used || !containsEntry(b, iv(100), rid(0, 0)) {
		t.Error("no-op update changed state")
	}
}

// TestMaintenanceInvariantRandomized runs random DML against a model and
// verifies the core skip-safety invariant: for every page, the counter is
// zero iff buffered, and the buffer holds exactly the uncovered tuples of
// buffered pages.
func TestMaintenanceInvariantRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const pages = 8
	covered := func(v storage.Value) bool { return v.Int64() < 50 } // IX covers < 50

	s, b := newBuf(t, Config{P: 3}, make([]int, pages))
	_ = s

	// Model: per page, the set of live (value, rid). Slots allocated
	// sequentially per page.
	model := map[storage.PageID][]modelTuple{}
	nextSlot := map[storage.PageID]int{}

	// Buffer pages 0..3.
	for p := 0; p < 4; p++ {
		_ = b.ApplyPage(storage.PageID(p), nil)
	}

	randVal := func() storage.Value { return iv(rng.Int63n(100)) }
	insert := func(pg storage.PageID) {
		v := randVal()
		r := storage.RID{Page: pg, Slot: uint16(nextSlot[pg])}
		nextSlot[pg]++
		model[pg] = append(model[pg], modelTuple{v, r})
		b.MaintainInsert(v, r, covered(v))
	}
	remove := func(pg storage.PageID) {
		rows := model[pg]
		if len(rows) == 0 {
			return
		}
		i := rng.Intn(len(rows))
		b.MaintainDelete(rows[i].v, rows[i].r, covered(rows[i].v))
		model[pg] = append(rows[:i], rows[i+1:]...)
	}
	update := func(pgOld, pgNew storage.PageID) {
		rows := model[pgOld]
		if len(rows) == 0 {
			return
		}
		i := rng.Intn(len(rows))
		old := rows[i]
		nv := randVal()
		nr := storage.RID{Page: pgNew, Slot: uint16(nextSlot[pgNew])}
		nextSlot[pgNew]++
		b.MaintainUpdate(old.v, nv, old.r, nr, covered(old.v), covered(nv))
		model[pgOld] = append(rows[:i], rows[i+1:]...)
		model[pgNew] = append(model[pgNew], modelTuple{nv, nr})
	}

	for step := 0; step < 4000; step++ {
		pg := storage.PageID(rng.Intn(pages))
		switch rng.Intn(3) {
		case 0:
			insert(pg)
		case 1:
			remove(pg)
		default:
			update(pg, storage.PageID(rng.Intn(pages)))
		}

		if step%250 != 0 {
			continue
		}
		verifyInvariant(t, b, model, covered, step)
	}
	verifyInvariant(t, b, model, covered, -1)
}

func verifyInvariant(t *testing.T, b *IndexBuffer, model map[storage.PageID][]modelTuple, covered func(storage.Value) bool, step int) {
	t.Helper()
	for pg, rows := range model {
		uncov := 0
		for _, row := range rows {
			if !covered(row.v) {
				uncov++
				inBuf := containsEntry(b, row.v, row.r)
				if b.PageBuffered(pg) && !inBuf {
					t.Fatalf("step %d: uncovered tuple %v@%v of buffered page missing from buffer", step, row.v, row.r)
				}
				if !b.PageBuffered(pg) && inBuf {
					t.Fatalf("step %d: tuple %v@%v of unbuffered page present in buffer", step, row.v, row.r)
				}
			}
		}
		if got := b.Uncovered(pg); got != uncov {
			t.Fatalf("step %d: page %d uncovered = %d, model = %d", step, pg, got, uncov)
		}
		wantC := uncov
		if b.PageBuffered(pg) {
			wantC = 0
		}
		if got := b.Counter(pg); got != wantC {
			t.Fatalf("step %d: page %d counter = %d, want %d", step, pg, got, wantC)
		}
	}
}
