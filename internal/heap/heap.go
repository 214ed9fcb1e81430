package heap

import (
	"fmt"
	"sync"

	"repro/internal/buffer"
	"repro/internal/storage"
)

// Table is a heap table: an unordered collection of tuples in slotted
// pages, accessed through the buffer pool. Page ids are dense ordinals
// starting at 0, which is what the Index Buffer's counter array C[p] is
// keyed by.
//
// Table is safe for concurrent use; DML takes an exclusive lock, scans a
// shared lock.
type Table struct {
	mu     sync.RWMutex
	schema *storage.Schema
	pool   *buffer.Pool

	numPages int
	// freeHint caches per-page free bytes so inserts avoid probing every
	// page. Values are refreshed on each touch; a stale overestimate only
	// costs one extra probe.
	freeHint []int
}

// NewTable creates an empty heap table over the pool.
func NewTable(schema *storage.Schema, pool *buffer.Pool) *Table {
	return &Table{schema: schema, pool: pool}
}

// OpenTable attaches to an existing heap of numPages pages (a persisted
// table being reloaded). It reads every page once to validate it and
// rebuild the free-space hints.
func OpenTable(schema *storage.Schema, pool *buffer.Pool, numPages int) (*Table, error) {
	t := &Table{schema: schema, pool: pool, numPages: numPages, freeHint: make([]int, numPages)}
	for p := 0; p < numPages; p++ {
		f, err := pool.Fetch(storage.PageID(p))
		if err != nil {
			return nil, err
		}
		sp, err := AsPage(f.Data())
		if err == nil {
			err = sp.Validate()
		}
		if err != nil {
			pool.Unpin(f)
			return nil, fmt.Errorf("heap: reopening page %d: %w", p, err)
		}
		t.freeHint[p] = sp.FreeSpace()
		pool.Unpin(f)
	}
	return t, nil
}

// Schema returns the table's schema.
func (t *Table) Schema() *storage.Schema { return t.schema }

// NumPages returns the number of heap pages.
func (t *Table) NumPages() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.numPages
}

// Insert appends the tuple and returns its RID. The placement policy is
// last-page-first, then any page with room (via the free-space hints),
// then a fresh page — an append-mostly heap like the paper's bulk-loaded
// table.
func (t *Table) Insert(tu storage.Tuple) (storage.RID, error) {
	payload, err := storage.EncodeTuple(t.schema, tu, nil)
	if err != nil {
		return storage.InvalidRID, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.insertLocked(payload)
}

func (t *Table) insertLocked(payload []byte) (storage.RID, error) {
	try := func(page storage.PageID) (storage.RID, bool, error) {
		f, err := t.pool.Fetch(page)
		if err != nil {
			return storage.InvalidRID, false, err
		}
		defer t.pool.Unpin(f)
		sp, err := AsPage(f.Data())
		if err != nil {
			return storage.InvalidRID, false, err
		}
		slot, ok := sp.Insert(payload)
		t.freeHint[page] = sp.FreeSpace()
		if !ok {
			return storage.InvalidRID, false, nil
		}
		f.MarkDirty()
		return storage.RID{Page: page, Slot: uint16(slot)}, true, nil
	}

	// Last page first.
	if t.numPages > 0 {
		last := storage.PageID(t.numPages - 1)
		if t.freeHint[last] >= len(payload) {
			rid, ok, err := try(last)
			if err != nil || ok {
				return rid, err
			}
		}
		// Any page with enough hinted room.
		for p := 0; p < t.numPages-1; p++ {
			if t.freeHint[p] >= len(payload) {
				rid, ok, err := try(storage.PageID(p))
				if err != nil || ok {
					return rid, err
				}
			}
		}
	}

	// Fresh page.
	f, err := t.pool.Allocate()
	if err != nil {
		return storage.InvalidRID, err
	}
	defer t.pool.Unpin(f)
	page := f.ID()
	if int(page) != t.numPages {
		return storage.InvalidRID, fmt.Errorf("heap: non-dense page allocation: got %d, want %d", page, t.numPages)
	}
	t.numPages++
	t.freeHint = append(t.freeHint, 0)
	sp, err := AsPage(f.Data())
	if err != nil {
		return storage.InvalidRID, err
	}
	slot, ok := sp.Insert(payload)
	t.freeHint[page] = sp.FreeSpace()
	if !ok {
		return storage.InvalidRID, fmt.Errorf("heap: tuple of %d bytes does not fit an empty page", len(payload))
	}
	f.MarkDirty()
	return storage.RID{Page: page, Slot: uint16(slot)}, nil
}

// Get fetches the tuple at rid.
func (t *Table) Get(rid storage.RID) (storage.Tuple, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if err := t.checkRIDLocked(rid); err != nil {
		return storage.Tuple{}, err
	}
	f, err := t.pool.Fetch(rid.Page)
	if err != nil {
		return storage.Tuple{}, err
	}
	defer t.pool.Unpin(f)
	sp, err := AsPage(f.Data())
	if err != nil {
		return storage.Tuple{}, err
	}
	if err := sp.Validate(); err != nil {
		return storage.Tuple{}, fmt.Errorf("heap: page %d: %w", rid.Page, err)
	}
	raw, err := sp.Tuple(int(rid.Slot))
	if err != nil {
		return storage.Tuple{}, err
	}
	return storage.DecodeTuple(t.schema, raw)
}

// Delete removes the tuple at rid.
func (t *Table) Delete(rid storage.RID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkRIDLocked(rid); err != nil {
		return err
	}
	f, err := t.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	defer t.pool.Unpin(f)
	sp, err := AsPage(f.Data())
	if err != nil {
		return err
	}
	if err := sp.Delete(int(rid.Slot)); err != nil {
		return err
	}
	t.freeHint[rid.Page] = sp.FreeSpace()
	f.MarkDirty()
	return nil
}

// Update replaces the tuple at rid, returning the (possibly new) RID. The
// tuple stays in place when it fits; otherwise it relocates to another
// page and the returned RID differs — callers maintaining indexes must
// handle the move.
func (t *Table) Update(rid storage.RID, tu storage.Tuple) (storage.RID, error) {
	payload, err := storage.EncodeTuple(t.schema, tu, nil)
	if err != nil {
		return storage.InvalidRID, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkRIDLocked(rid); err != nil {
		return storage.InvalidRID, err
	}
	f, err := t.pool.Fetch(rid.Page)
	if err != nil {
		return storage.InvalidRID, err
	}
	sp, err := AsPage(f.Data())
	if err != nil {
		t.pool.Unpin(f)
		return storage.InvalidRID, err
	}
	// Keep a copy of the current payload: the in-place attempt below may
	// free the slot (and compact the old bytes away) before reporting
	// that a relocation is needed, and a relocation that then fails must
	// restore the tuple rather than leave it half-deleted.
	oldRaw, err := sp.Tuple(int(rid.Slot))
	if err != nil {
		t.pool.Unpin(f)
		return storage.InvalidRID, err
	}
	oldPayload := append([]byte(nil), oldRaw...)
	ok, err := sp.Update(int(rid.Slot), payload)
	t.freeHint[rid.Page] = sp.FreeSpace()
	if err != nil {
		t.pool.Unpin(f)
		return storage.InvalidRID, err
	}
	if ok {
		f.MarkDirty()
		t.pool.Unpin(f)
		return rid, nil
	}
	// Relocate: the slot was freed by the failed in-place attempt or must
	// be freed now; ensure it is dead, then insert elsewhere. The old
	// page stays pinned across the insert: its deletion is dirty and not
	// yet logged, and the insert's probe walk is allowed to evict — an
	// eviction here would write the half-mutated page to the store before
	// the caller's WAL record exists, which a crash then exposes.
	if sp.Live(int(rid.Slot)) {
		if derr := sp.Delete(int(rid.Slot)); derr != nil {
			t.pool.Unpin(f)
			return storage.InvalidRID, derr
		}
	}
	f.MarkDirty()
	newRID, err := t.insertLocked(payload)
	if err != nil {
		// Undo: put the original tuple back into its slot so a failed
		// update leaves no half-state — neither in memory (the RID must
		// stay live with its old content) nor, via a later eviction of
		// this dirty page, on disk.
		if !sp.insertAt(int(rid.Slot), oldPayload) {
			t.pool.Unpin(f)
			return storage.InvalidRID, fmt.Errorf("heap: failed relocation of %v lost the tuple: %w", rid, err)
		}
		t.freeHint[rid.Page] = sp.FreeSpace()
	}
	t.pool.Unpin(f)
	return newRID, err
}

// PageLiveCount returns the number of live tuples in page p. It fetches
// the page through the pool, so it participates in I/O accounting.
func (t *Table) PageLiveCount(p storage.PageID) (int, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if int(p) >= t.numPages {
		return 0, fmt.Errorf("heap: page %d out of range (table has %d pages)", p, t.numPages)
	}
	f, err := t.pool.Fetch(p)
	if err != nil {
		return 0, err
	}
	defer t.pool.Unpin(f)
	sp, err := AsPage(f.Data())
	if err != nil {
		return 0, err
	}
	return sp.LiveCount(), nil
}

// ScanPage is the key-first page kernel of every table scan: it invokes
// fn for every live tuple in page p, in slot order, with the tuple's RID,
// its value of column col, and its encoded bytes. Every tuple's framing
// is checked (storage.DecodeColumn), so a corrupt tuple fails the scan
// whether or not the caller ever materialises it, but only col is
// decoded; a caller wanting the whole tuple decodes raw with
// storage.DecodeTuple. raw aliases the pinned page and is valid only
// during the call. Returning a non-nil error from fn stops the scan and
// propagates.
func (t *Table) ScanPage(p storage.PageID, col int, fn func(rid storage.RID, key storage.Value, raw []byte) error) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.scanPageLocked(p, func(rid storage.RID, raw []byte) error {
		key, err := storage.DecodeColumn(t.schema, raw, col)
		if err != nil {
			return err
		}
		return fn(rid, key, raw)
	})
}

// scanPageLocked is the page loop under ScanPage and Scan: it pins and
// validates page p and hands fn every live slot's bytes, which alias the
// pinned page.
func (t *Table) scanPageLocked(p storage.PageID, fn func(rid storage.RID, raw []byte) error) error {
	if int(p) >= t.numPages {
		return fmt.Errorf("heap: page %d out of range (table has %d pages)", p, t.numPages)
	}
	f, err := t.pool.Fetch(p)
	if err != nil {
		return err
	}
	defer t.pool.Unpin(f)
	sp, err := AsPage(f.Data())
	if err != nil {
		return err
	}
	if err := sp.Validate(); err != nil {
		return fmt.Errorf("heap: page %d: %w", p, err)
	}
	for s := 0; s < sp.NumSlots(); s++ {
		if !sp.Live(s) {
			continue
		}
		raw, err := sp.Tuple(s)
		if err != nil {
			return err
		}
		if err := fn(storage.RID{Page: p, Slot: uint16(s)}, raw); err != nil {
			return err
		}
	}
	return nil
}

// Scan invokes fn for every live tuple in the table, fully decoded, in
// page then slot order — a full table scan.
func (t *Table) Scan(fn func(storage.RID, storage.Tuple) error) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	decode := func(rid storage.RID, raw []byte) error {
		tu, err := storage.DecodeTuple(t.schema, raw)
		if err != nil {
			return err
		}
		return fn(rid, tu)
	}
	for p := 0; p < t.numPages; p++ {
		if err := t.scanPageLocked(storage.PageID(p), decode); err != nil {
			return err
		}
	}
	return nil
}

// Count returns the number of live tuples, scanning all pages.
func (t *Table) Count() (int, error) {
	n := 0
	err := t.Scan(func(storage.RID, storage.Tuple) error {
		n++
		return nil
	})
	return n, err
}

func (t *Table) checkRIDLocked(rid storage.RID) error {
	if !rid.IsValid() || int(rid.Page) >= t.numPages {
		return fmt.Errorf("heap: rid %v out of range (table has %d pages)", rid, t.numPages)
	}
	return nil
}
