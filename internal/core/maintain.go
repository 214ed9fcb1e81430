package core

import "repro/internal/storage"

// This file implements the paper's Table I: Index Buffer maintenance
// under inserts, updates and deletes. The four distinguishing conditions
// are whether the old/new tuple value is covered by the partial index
// (t ∈ IX) and whether the old/new page is buffered (p ∈ B).
//
// The partial index's own maintenance (the IX row of Table I) lives in
// internal/index; these methods keep the buffer and the counters
// consistent.
//
// Invariant maintained: for every page p,
//
//	p buffered  ⇒ every uncovered live tuple of p has an entry in p's
//	              partition, and Counter(p) == 0
//	p unbuffered ⇒ Counter(p) == number of uncovered live tuples of p
//
// so a table scan may skip exactly the pages with Counter(p) == 0 without
// missing a match, provided it also consults the buffer.

// MaintainInsert accounts for a newly inserted tuple with the given
// indexed-column value. inIX reports whether the partial index covers the
// value (the index itself was already updated by the caller).
func (b *IndexBuffer) MaintainInsert(v storage.Value, rid storage.RID, inIX bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maintainInsertLocked(v, rid, inIX)
}

func (b *IndexBuffer) maintainInsertLocked(v storage.Value, rid storage.RID, inIX bool) {
	b.growPagesLocked(int(rid.Page) + 1)
	if inIX {
		return // covered tuples never concern the buffer
	}
	b.uncovered[rid.Page]++
	if part := b.partOf(rid.Page); part != nil {
		// The page stays fully indexed by absorbing the new tuple.
		if part.insert(v, rid) {
			b.charge(1)
		}
	}
}

// MaintainDelete accounts for a deleted tuple. wasInIX reports whether
// the partial index covered the value.
func (b *IndexBuffer) MaintainDelete(v storage.Value, rid storage.RID, wasInIX bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maintainDeleteLocked(v, rid, wasInIX)
}

func (b *IndexBuffer) maintainDeleteLocked(v storage.Value, rid storage.RID, wasInIX bool) {
	if wasInIX {
		return
	}
	if int(rid.Page) < len(b.uncovered) && b.uncovered[rid.Page] > 0 {
		b.uncovered[rid.Page]--
	}
	if part := b.partOf(rid.Page); part != nil {
		if part.remove(v, rid) {
			b.charge(-1)
		}
	}
}

// MaintainUpdate accounts for an update that changed the tuple's indexed
// value from old to new and/or moved it from oldRID to newRID (a heap
// relocation). oldInIX/newInIX report partial-index coverage of the two
// values. This is the full 4×4 matrix of Table I; the degenerate cases
// where value and RID are unchanged fall through with no effect.
func (b *IndexBuffer) MaintainUpdate(old, new storage.Value, oldRID, newRID storage.RID, oldInIX, newInIX bool) {
	if oldInIX && newInIX {
		// Handled entirely by IX.Update; the buffer never saw the tuple.
		return
	}
	if old.Equal(new) && oldRID == newRID && oldInIX == newInIX {
		return
	}
	// Decompose into the delete of (old, oldRID) and the insert of
	// (new, newRID), under one lock acquisition so concurrent probes never
	// observe the half-applied state; the composition reproduces every
	// Table I cell:
	//
	//	told∈IX, tnew∉IX:  pnew∈B → B.Add(tnew);  pnew∉B → C[pnew]++
	//	told∉IX, tnew∈IX:  pold∈B → B.Remove(told); pold∉B → C[pold]--
	//	told∉IX, tnew∉IX:  both effects, covering the four p∈B cells
	//	                   (B.Update == B.Remove + B.Add when both in B).
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maintainDeleteLocked(old, oldRID, oldInIX)
	b.maintainInsertLocked(new, newRID, newInIX)
}
