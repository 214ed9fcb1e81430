package heap

import (
	"fmt"
	"slices"
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
	// tracked is set on a table whose mutations a log records (see
	// TrackSpans). pending then holds, for each page written since a
	// record last took its spans, those spans. An entry whose spans a
	// record took is empty and free for the next page written: the set
	// stays as large as the most pages ever unlogged at once, one or two
	// in steady state. Entries never move, so a page view keeps writing
	// into its entry while an insert adds another.
	tracked bool
	pending []*pageSpans
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

// pageSpans is one page's spans that no log record has taken yet.
type pageSpans struct {
	page  storage.PageID
	spans spanList
}

// TrackSpans makes every later mutation record, per page, the byte
// spans it writes, until SpansLogged drops them. A table whose changes
// are logged calls it before its first mutation; a table that is not
// logged records nothing.
func (t *Table) TrackSpans() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tracked = true
}

// Spans appends to dst the spans page p was written in since
// SpansLogged last dropped them, in offset order. They include the
// writes of a mutation that then failed (a failed relocation's undo
// compacts the page): a record of the page must carry them all, or
// redo would patch its later offsets onto the wrong layout.
func (t *Table) Spans(p storage.PageID, dst []Span) []Span {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if ps := t.pendingLocked(p); ps != nil {
		dst = append(dst, ps.spans...)
	}
	return dst
}

// SpansLogged drops page p's spans: a log record now carries them.
func (t *Table) SpansLogged(p storage.PageID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ps := t.pendingLocked(p); ps != nil {
		ps.spans = ps.spans[:0]
	}
}

// pendingLocked returns page p's entry in the pending set, or nil when
// the page has no unlogged spans.
func (t *Table) pendingLocked(p storage.PageID) *pageSpans {
	for _, ps := range t.pending {
		if len(ps.spans) > 0 && ps.page == p {
			return ps
		}
	}
	return nil
}

// spansFor returns the list page p's next write adds to: its entry in
// the pending set, or a free entry, or a new one. Called on a page
// view's first write, under t.mu held exclusively; the write fills the
// entry at once, so an empty entry is never one a view holds.
func (t *Table) spansFor(p storage.PageID) *spanList {
	if ps := t.pendingLocked(p); ps != nil {
		return &ps.spans
	}
	for _, ps := range t.pending {
		if len(ps.spans) == 0 {
			ps.page = p
			return &ps.spans
		}
	}
	ps := &pageSpans{page: p}
	t.pending = append(t.pending, ps)
	return &ps.spans
}

// track makes sp, a view of pinned frame f about to be mutated, add
// its writes to the page's pending entry when the table tracks spans.
func (t *Table) track(sp *SlottedPage, f *buffer.Frame) {
	if t.tracked {
		sp.owner, sp.id = t, f.ID()
	}
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
// table. A tuple too large for an empty page is refused before any page
// is touched.
func (t *Table) Insert(tu storage.Tuple) (storage.RID, error) {
	payload, err := encodeFitting(t.schema, tu)
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
		t.track(sp, f)
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
	t.track(sp, f)
	slot, ok := sp.Insert(payload)
	t.freeHint[page] = sp.FreeSpace()
	if !ok {
		return storage.InvalidRID, errTooLarge(len(payload))
	}
	f.MarkDirty()
	return storage.RID{Page: page, Slot: uint16(slot)}, nil
}

// encodeFitting encodes tu for the table, refusing a tuple no page can
// hold.
func encodeFitting(schema *storage.Schema, tu storage.Tuple) ([]byte, error) {
	payload, err := storage.EncodeTuple(schema, tu, nil)
	if err != nil {
		return nil, err
	}
	if len(payload) > maxPayload {
		return nil, errTooLarge(len(payload))
	}
	return payload, nil
}

func errTooLarge(n int) error {
	return fmt.Errorf("heap: tuple of %d bytes does not fit an empty page", n)
}

// Get fetches the tuple at rid: a ReadRows of one RID.
func (t *Table) Get(rid storage.RID) (storage.Tuple, error) {
	var tu storage.Tuple
	err := t.ReadRows([]storage.RID{rid}, func(_ int, got storage.Tuple) { tu = got })
	return tu, err
}

// maxRunPins caps the pages one ReadRows run holds pinned at once. On
// two connections' covered hits, runs of 8 and 16 pages measured a worse
// p99 than runs of 4; a run holds Pool.mu through one frame-map lookup
// per page, which another reader waits out.
const maxRunPins = 4

// ReadRows is the table's one row read. It reads the tuples at rids
// under one shared lock and hands each to fn with its index in rids, in
// order, after the last row is read. On an error, which is the one a
// Get of the failing RID reports, fn has seen exactly the rows before
// it.
//
// rids should be in RID order (a posting list sorted by page): the rows
// of one page are then read under one pin and one validateOnce, and the
// pages of a run of resident pages are pinned in one pool latch section
// and unpinned in order in another. A run holds at most 1/64 of the pool
// (between 1 and maxRunPins pages), and its pins are released before a
// page that is not resident is fetched, so a reader never holds more
// than one pin while it loads. The pool's effects are those of one
// Fetch and Unpin per distinct page in RID order: its Hits count pages,
// not rows. On an error, the pages of the failing run after the failing
// page were pinned and unpinned too.
//
// All the tuples share one RowSlab: one []Value and one string. fn runs
// after the lock and every pin are released.
func (t *Table) ReadRows(rids []storage.RID, fn func(k int, tu storage.Tuple)) error {
	slab := storage.NewRowSlab(t.schema, len(rids))
	err := t.readRows(rids, &slab)
	slab.Finish()
	for k := 0; k < slab.Rows(); k++ {
		fn(k, slab.Tuple(k))
	}
	return err
}

// readRows decodes the rows at rids into slab under the shared lock, one
// run of pinned pages at a time, until the first error.
func (t *Table) readRows(rids []storage.RID, slab *storage.RowSlab) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var ids [maxRunPins]storage.PageID
	var frames [maxRunPins]*buffer.Frame
	runPins := min(maxRunPins, max(1, t.pool.Capacity()/64))
	for k := 0; k < len(rids); {
		// The next run: the distinct pages of the rows from k on, up to
		// runPins of them, ending before an out-of-range RID.
		n := 0
		for _, rid := range rids[k:] {
			if int(rid.Page) >= t.numPages { // InvalidRID included
				break
			}
			if n == 0 || rid.Page != ids[n-1] {
				if n == runPins {
					break
				}
				ids[n] = rid.Page
				n++
			}
		}
		if n == 0 {
			return t.checkRIDLocked(rids[k])
		}
		pinned := t.pool.PinResident(ids[:n], frames[:n])
		if pinned == 0 {
			// The first page is not resident: load it with no other pin
			// held.
			f, err := t.pool.Fetch(ids[0])
			if err != nil {
				return err
			}
			frames[0], pinned = f, 1
		}
		var err error
		for _, f := range frames[:pinned] {
			if k, err = decodePageRows(f, rids, k, slab); err != nil {
				break
			}
		}
		t.pool.UnpinRun(frames[:pinned])
		if err != nil {
			return err
		}
	}
	return nil
}

// decodePageRows decodes rids[k], rids[k+1], ... for as long as they lie
// on pinned frame f's page, and returns the index of the first row it
// did not decode.
func decodePageRows(f *buffer.Frame, rids []storage.RID, k int, slab *storage.RowSlab) (int, error) {
	sp, err := AsPage(f.Data())
	if err != nil {
		return k, err
	}
	if err := validateOnce(f, sp); err != nil {
		return k, err
	}
	for ; k < len(rids) && rids[k].Page == f.ID(); k++ {
		raw, err := sp.Tuple(int(rids[k].Slot))
		if err != nil {
			return k, err
		}
		if err := slab.Decode(raw); err != nil {
			return k, err
		}
	}
	return k, nil
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
	t.track(sp, f)
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
// handle the move. A tuple too large for an empty page is refused before
// the page is touched.
func (t *Table) Update(rid storage.RID, tu storage.Tuple) (storage.RID, error) {
	payload, err := encodeFitting(t.schema, tu)
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
	t.track(sp, f)
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

// PageBatch is one page of a scan as the page kernel hands it over: a
// row per live slot, in slot order, with the slot number, the value of
// the key column and the encoded tuple. The key is in Ints when the
// column is INTEGER and in Keys otherwise; the other slice is empty. Raw
// aliases the pinned page and is valid only during the kernel's
// callback; a caller wanting a whole tuple decodes Raw[i] with
// storage.DecodeTuple there. A caller owns its batch and passes it to
// every ScanPage call, so a scan reuses one set of slices.
type PageBatch struct {
	Page  storage.PageID
	Slots []uint16
	Ints  []int64
	Keys  []storage.Value
	Raw   [][]byte
}

// Len returns the number of rows in the batch.
func (b *PageBatch) Len() int { return len(b.Slots) }

// RID returns row i's record identifier.
func (b *PageBatch) RID(i int) storage.RID { return storage.RID{Page: b.Page, Slot: b.Slots[i]} }

// Key returns row i's key as a Value, whichever slice holds it.
func (b *PageBatch) Key(i int) storage.Value {
	if len(b.Ints) > 0 {
		return storage.Int64Value(b.Ints[i])
	}
	return b.Keys[i]
}

// ScanPage is the page kernel of every table scan. It pins and validates
// page p once, fills b with every live slot's row, keyed by column col,
// and calls fn once with b while the page is still pinned. Every
// tuple's framing is checked (storage.DecodeColumn's walk), so a corrupt
// tuple fails the scan, before fn runs, whether or not the caller ever
// materialises it; only col is decoded. fn's error is returned.
func (t *Table) ScanPage(p storage.PageID, col int, b *PageBatch, fn func(*PageBatch) error) error {
	if col < 0 || col >= t.schema.NumColumns() {
		return fmt.Errorf("heap: column %d out of range (schema has %d columns)", col, t.schema.NumColumns())
	}
	intKey := t.schema.Column(col).Kind == storage.KindInt64
	t.mu.RLock()
	defer t.mu.RUnlock()
	f, sp, err := t.pinLocked(p)
	if err != nil {
		return err
	}
	defer t.pool.Unpin(f)
	n := sp.NumSlots()
	b.Page = p
	b.Slots, b.Raw = slices.Grow(b.Slots[:0], n), slices.Grow(b.Raw[:0], n)
	b.Ints, b.Keys = b.Ints[:0], b.Keys[:0]
	if intKey {
		b.Ints = slices.Grow(b.Ints, n)
	}
	for s := 0; s < n; s++ {
		raw, live, err := sp.liveTuple(s)
		if err != nil {
			return err
		}
		if !live {
			continue
		}
		if intKey {
			k, err := storage.DecodeInt64Column(t.schema, raw, col)
			if err != nil {
				return err
			}
			b.Ints = append(b.Ints, k)
		} else {
			k, err := storage.DecodeColumn(t.schema, raw, col)
			if err != nil {
				return err
			}
			b.Keys = append(b.Keys, k)
		}
		b.Slots = append(b.Slots, uint16(s))
		b.Raw = append(b.Raw, raw)
	}
	return fn(b)
}

// pinLocked pins page p, validated, for a reader holding t.mu, and
// returns a view of it by value, which a page loop keeps on its stack.
// The caller unpins the frame.
func (t *Table) pinLocked(p storage.PageID) (*buffer.Frame, SlottedPage, error) {
	if int(p) >= t.numPages {
		return nil, SlottedPage{}, fmt.Errorf("heap: page %d out of range (table has %d pages)", p, t.numPages)
	}
	f, err := t.pool.Fetch(p)
	if err != nil {
		return nil, SlottedPage{}, err
	}
	sp, err := AsPage(f.Data())
	if err == nil {
		err = validateOnce(f, sp)
	}
	if err != nil {
		t.pool.Unpin(f)
		return nil, SlottedPage{}, err
	}
	return f, *sp, nil
}

// validateOnce runs sp.Validate on pinned frame f's image unless that
// image already passed since the pool loaded or allocated it or it was
// last marked dirty. A read fails exactly as if it validated every time:
// an image changes only by a load, an Allocate (each builds a new
// Frame) or a heap mutation, and every mutation runs under Table.mu held
// exclusively and marks the frame dirty before the lock is released. A
// failed SlottedPage.Insert leaves the page as it was: it compacts only
// when compaction makes the room.
func validateOnce(f *buffer.Frame, sp *SlottedPage) error {
	if f.Checked() {
		return nil
	}
	if err := sp.Validate(); err != nil {
		return fmt.Errorf("heap: page %d: %w", f.ID(), err)
	}
	f.SetChecked()
	return nil
}

// Scan invokes fn for every live tuple in the table, fully decoded, in
// page then slot order — a full table scan.
func (t *Table) Scan(fn func(storage.RID, storage.Tuple) error) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for p := 0; p < t.numPages; p++ {
		if err := t.scanDecodedLocked(storage.PageID(p), fn); err != nil {
			return err
		}
	}
	return nil
}

// scanDecodedLocked is Scan's page loop: it hands fn every live tuple
// of page p, fully decoded.
func (t *Table) scanDecodedLocked(p storage.PageID, fn func(storage.RID, storage.Tuple) error) error {
	f, sp, err := t.pinLocked(p)
	if err != nil {
		return err
	}
	defer t.pool.Unpin(f)
	for s, n := 0, sp.NumSlots(); s < n; s++ {
		raw, live, err := sp.liveTuple(s)
		if err != nil {
			return err
		}
		if !live {
			continue
		}
		tu, err := storage.DecodeTuple(t.schema, raw)
		if err != nil {
			return err
		}
		if err := fn(storage.RID{Page: p, Slot: uint16(s)}, tu); err != nil {
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
