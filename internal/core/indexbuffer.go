package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// IndexBuffer is the scratch-pad index complementing one partial index
// (paper §III). It holds, for a set of fully indexed table pages, every
// tuple of those pages that the partial index does not cover. Pages whose
// uncovered tuples are all buffered have counter C[p] == 0 and can be
// skipped by table scans on this column.
//
// The buffer consists of partitions (its displacement units), the page
// counters, and an LRU-K usage history. It is created and sized through
// a Space.
//
// Concurrency: every exported method takes the buffer's own RWMutex, so
// probes (Lookup, Counter) from index-hit queries and displacement drops
// initiated by scans on *other* tables interleave safely. An indexing
// scan applies each selected page with one ApplyPage call; successive
// calls are not serialized here — the engine guarantees at most one
// indexing scan per buffer at a time by holding the owning table's write
// lock, and pins the buffer against displacement for the scan's duration
// (Space.PinForScan). A scan that fails before its merge applies nothing,
// so a page is either fully buffered or untouched. Lock order:
// Space.mu → IndexBuffer.mu → History.mu; the buffer never acquires
// Space.mu (the shared entry budget is atomic).
type IndexBuffer struct {
	name  string
	space *Space
	cfg   *Config
	// tenant is the budget domain the buffer's entries charge, alongside
	// the global Space budget; nil is the default (global-only) domain.
	// Immutable after CreateBufferFor.
	tenant *Tenant

	mu sync.RWMutex

	// uncovered[p] is the number of live tuples in page p not covered by
	// the partial index, maintained under all DML (paper: the counter
	// array "initialized during the creation of the partial index").
	// The effective counter is C[p] = 0 when p is buffered, else
	// uncovered[p]; see Counter.
	uncovered []int

	parts []*Partition
	open  *Partition // partition currently filling (X_p < P), if any
	// byPage[p] is the partition covering page p, nil when p is not
	// buffered. Heap page ids are dense ordinals, so a slice indexed by
	// page id replaces a map; it grows on demand and pages past its end
	// are unbuffered. Read it through partOf.
	byPage []*Partition
	nextID int

	// scanPins counts indexing scans currently using this buffer; a
	// pinned buffer is never chosen as a displacement victim. Guarded by
	// space.mu, not b.mu (victim selection runs under space.mu).
	scanPins int

	// snap is the published counter snapshot: an immutable copy of the
	// effective counter array C[p], swapped wholesale at every
	// consistent boundary (page completion, DML maintenance,
	// displacement, reset — never mid-page). Lock-free consumers (the
	// indexing scan's skip decisions) read it inside an epoch
	// Pin/Unpin bracket; the displaced snapshot is retired through the
	// Space's epoch domain and reclaimed only once every such reader
	// has unpinned. See publishCountersLocked.
	snap atomic.Pointer[CounterSnap]

	hist *History
}

// CounterSnap is one immutable published copy of a buffer's effective
// counters. Pages beyond the array read as 0, matching Counter's
// convention for unknown pages.
type CounterSnap struct {
	counters []int32
}

// At returns the snapshot's C[p].
func (s *CounterSnap) At(p storage.PageID) int {
	if s == nil || int(p) >= len(s.counters) {
		return 0
	}
	return int(s.counters[p])
}

// NumPages returns the snapshot's counter-array size.
func (s *CounterSnap) NumPages() int {
	if s == nil {
		return 0
	}
	return len(s.counters)
}

// CounterSnapshot returns the buffer's current published counter
// snapshot without taking any lock. Callers that outlive a single
// load — an indexing scan consulting the snapshot page by page — must
// hold an epoch pin on the Space's domain for as long as they read it;
// reclamation nils the displaced array once every pinned reader left.
func (b *IndexBuffer) CounterSnapshot() *CounterSnap { return b.snap.Load() }

// publishCountersLocked copies the effective counter array into a fresh
// snapshot and swaps it in, retiring the displaced one through the
// epoch domain. Called under b.mu at every consistent boundary; the
// copy is O(pages), the same cost class as the maintenance walks that
// precede it, and a walk over two dense slices.
func (b *IndexBuffer) publishCountersLocked() {
	c := make([]int32, len(b.uncovered))
	for p, n := range b.uncovered {
		if p >= len(b.byPage) || b.byPage[p] == nil {
			c[p] = int32(n)
		}
	}
	old := b.snap.Swap(&CounterSnap{counters: c})
	if old != nil && b.space != nil && b.space.epochs != nil {
		b.space.epochs.Retire(func() { old.counters = nil })
	}
}

// Name returns the buffer's identifier (typically "table.column").
func (b *IndexBuffer) Name() string { return b.name }

// Tenant returns the buffer's budget domain, or nil for the default.
func (b *IndexBuffer) Tenant() *Tenant { return b.tenant }

// TenantName returns the owning tenant's name ("" for the default).
func (b *IndexBuffer) TenantName() string {
	if b.tenant == nil {
		return ""
	}
	return b.tenant.name
}

// charge moves delta entries on both ledgers the buffer draws from: the
// global Space budget and, when the buffer belongs to a tenant, the
// tenant's quota. Called under b.mu like addUsed.
func (b *IndexBuffer) charge(delta int) {
	b.space.addUsed(delta)
	if b.tenant != nil {
		b.tenant.used.Add(int64(delta))
		if delta < 0 {
			// Freed headroom may now fit a page; let the next miss try a
			// real indexing scan again instead of degrading.
			b.tenant.exhausted.Store(false)
		}
	}
}

// History exposes the LRU-K history (internally synchronized; the Space
// advances it on every query).
func (b *IndexBuffer) History() *History { return b.hist }

// NumPages returns the size of the counter array — the number of table
// pages the buffer knows about.
func (b *IndexBuffer) NumPages() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.uncovered)
}

// GrowPages extends the counter array for newly allocated table pages.
// New pages start with zero uncovered tuples; inserts bump them.
func (b *IndexBuffer) GrowPages(numPages int) {
	b.mu.Lock()
	b.growPagesLocked(numPages)
	b.publishCountersLocked()
	b.mu.Unlock()
}

func (b *IndexBuffer) growPagesLocked(numPages int) {
	for len(b.uncovered) < numPages {
		b.uncovered = append(b.uncovered, 0)
	}
}

// Counter returns C[p]: 0 when the page is fully indexed (buffered), else
// the number of uncovered live tuples in the page.
func (b *IndexBuffer) Counter(p storage.PageID) int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.counterLocked(p)
}

func (b *IndexBuffer) counterLocked(p storage.PageID) int {
	if int(p) >= len(b.uncovered) || b.partOf(p) != nil {
		return 0
	}
	return b.uncovered[p]
}

// partOf returns the partition covering page p, nil when p is not
// buffered. Callers hold b.mu.
func (b *IndexBuffer) partOf(p storage.PageID) *Partition {
	if int(p) >= len(b.byPage) {
		return nil
	}
	return b.byPage[p]
}

// Uncovered returns the raw uncovered-tuple count of page p, independent
// of buffering — what C[p] reverts to when p's partition is dropped.
func (b *IndexBuffer) Uncovered(p storage.PageID) int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if int(p) >= len(b.uncovered) {
		return 0
	}
	return b.uncovered[p]
}

// PageBuffered reports whether page p is covered by a partition.
func (b *IndexBuffer) PageBuffered(p storage.PageID) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.partOf(p) != nil
}

// EntryCount returns the number of entries across all partitions.
func (b *IndexBuffer) EntryCount() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	n := 0
	for _, p := range b.parts {
		n += p.EntryCount()
	}
	return n
}

// EntryBytes returns the exact encoded payload bytes held across all
// partitions — the buffer's occupancy in bytes rather than entries.
func (b *IndexBuffer) EntryBytes() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	n := 0
	for _, p := range b.parts {
		n += p.EntryBytes()
	}
	return n
}

// CounterStats summarizes the effective counter array C[p]: how many
// pages are skippable (C[p] == 0) and the distribution of the non-zero
// counters — the remaining un-buffered work. Remaining is Σ C[p].
type CounterStats struct {
	Pages     int // counter array size (pages the buffer knows about)
	Skippable int // pages with C[p] == 0
	Remaining int // Σ C[p]: uncovered live tuples not yet buffered
	// Min/P50/P95/Max describe the non-zero counters; all zero when
	// every page is skippable.
	Min, P50, P95, Max int
}

// Coverage returns Skippable/Pages, the fraction of table pages a scan
// on this column may skip (0 when the buffer knows no pages).
func (c CounterStats) Coverage() float64 {
	if c.Pages == 0 {
		return 0
	}
	return float64(c.Skippable) / float64(c.Pages)
}

// CounterSummary walks the counter array once and returns its
// distribution summary. O(pages) plus a sort of the non-zero counters;
// intended for sampling paths that are off unless observability asked
// for them, not for per-tuple hot paths.
func (b *IndexBuffer) CounterSummary() CounterStats {
	b.mu.RLock()
	defer b.mu.RUnlock()
	st := CounterStats{Pages: len(b.uncovered)}
	nonzero := make([]int, 0, len(b.uncovered))
	for p := range b.uncovered {
		c := b.counterLocked(storage.PageID(p))
		if c == 0 {
			st.Skippable++
			continue
		}
		st.Remaining += c
		nonzero = append(nonzero, c)
	}
	if len(nonzero) == 0 {
		return st
	}
	sort.Ints(nonzero)
	st.Min = nonzero[0]
	st.Max = nonzero[len(nonzero)-1]
	st.P50 = nonzero[quantileIndex(len(nonzero), 0.50)]
	st.P95 = nonzero[quantileIndex(len(nonzero), 0.95)]
	return st
}

// quantileIndex maps quantile q to an index in a sorted slice of n
// elements (nearest-rank: the smallest element with at least q·n of the
// sample at or below it).
func quantileIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// Skippable returns (pages with C[p] == 0, total pages) without the
// distribution walk's sort — cheap enough for every /metrics scrape.
func (b *IndexBuffer) Skippable() (zero, total int) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	total = len(b.uncovered)
	for p := range b.uncovered {
		if b.counterLocked(storage.PageID(p)) == 0 {
			zero++
		}
	}
	return zero, total
}

// PartitionCount returns the number of live partitions.
func (b *IndexBuffer) PartitionCount() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.parts)
}

// Partitions returns a snapshot of the live partitions.
func (b *IndexBuffer) Partitions() []*Partition {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return append([]*Partition(nil), b.parts...)
}

// BufferedPages returns the number of fully indexed pages — Σ X_p.
func (b *IndexBuffer) BufferedPages() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	n := 0
	for _, p := range b.parts {
		n += p.PageCount()
	}
	return n
}

// Benefit returns b_B = Σ_p b_p, the buffer's total benefit under its
// current mean access interval.
func (b *IndexBuffer) Benefit() float64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.benefitLocked()
}

func (b *IndexBuffer) benefitLocked() float64 {
	t := b.hist.Mean()
	sum := 0.0
	for _, p := range b.parts {
		sum += p.benefit(t)
	}
	return sum
}

// Lookup returns the RIDs of buffered tuples with the given key,
// collected across all partitions — the "Index Buffer scan" of
// Algorithm 1 (lines 8–10).
func (b *IndexBuffer) Lookup(key storage.Value) []storage.RID {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var out []storage.RID
	for _, p := range b.parts {
		out = append(out, p.structure.Lookup(key)...)
	}
	return out
}

// rangeScanner is the optional Structure extension for ordered range
// iteration (the tree structures); structures without it (hash) fall
// back to the unordered enumerator.
type rangeScanner interface {
	AscendRange(lo, hi storage.Value, fn func(key storage.Value, post []storage.RID) bool)
}

// enumerator is the unordered fallback for range lookups.
type enumerator interface {
	ForEach(fn func(key storage.Value, post []storage.RID) bool)
}

// LookupRange returns the RIDs of buffered tuples with keys in [lo, hi],
// collected across all partitions. Tree-backed partitions use ordered
// range scans; hash-backed partitions filter a full enumeration — the
// structural trade-off the paper alludes to when it permits a hash table
// as the buffer structure.
func (b *IndexBuffer) LookupRange(lo, hi storage.Value) []storage.RID {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var out []storage.RID
	for _, p := range b.parts {
		switch st := p.structure.(type) {
		case rangeScanner:
			st.AscendRange(lo, hi, func(_ storage.Value, post []storage.RID) bool {
				out = append(out, post...)
				return true
			})
		case enumerator:
			st.ForEach(func(k storage.Value, post []storage.RID) bool {
				if k.Compare(lo) >= 0 && k.Compare(hi) <= 0 {
					out = append(out, post...)
				}
				return true
			})
		default:
			panic(fmt.Sprintf("core: structure %T supports neither range scan nor enumeration", p.structure))
		}
	}
	return out
}

// beginPageLocked assigns page p to the filling partition, opening a new
// one when the current is complete (X_p == P). Callers hold b.mu.
func (b *IndexBuffer) beginPageLocked(p storage.PageID) error {
	if b.partOf(p) != nil {
		return fmt.Errorf("core: page %d already buffered in %s", p, b.name)
	}
	if b.open == nil || b.open.complete(b.cfg.P) {
		b.open = newPartition(b.nextID, b.cfg.NewStructure)
		b.nextID++
		b.parts = append(b.parts, b.open)
	}
	b.open.pages[p] = struct{}{}
	for int(p) >= len(b.byPage) {
		b.byPage = append(b.byPage, nil)
	}
	b.byPage[p] = b.open
	return nil
}

// ApplyPage indexes page p of the selected set I: under one lock
// acquisition the page is assigned to the filling partition, every
// entry of its complete entry set is inserted (charging the Space
// budget), and the counter snapshot with C[p] == 0 is published. The
// indexing scan collects each selected page's uncovered tuples off-lock
// and its ordered merge step applies them here, so readers (Lookup,
// Counter, the snapshot) never observe a page that is buffered but only
// partially inserted. Fails, changing nothing, when p is already
// buffered.
func (b *IndexBuffer) ApplyPage(p storage.PageID, entries []PageEntry) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.beginPageLocked(p); err != nil {
		return err
	}
	part := b.byPage[p]
	added := 0
	for _, e := range entries {
		if part.insert(e.Key, e.RID) {
			added++
		}
	}
	if added > 0 {
		b.charge(added)
	}
	b.publishCountersLocked()
	return nil
}

// PageEntry is one Index Buffer entry of a page being indexed: an
// uncovered tuple's key and RID.
type PageEntry struct {
	Key storage.Value
	RID storage.RID
}

// dropPartition removes part from the buffer: its pages lose their
// fully-indexed status (C[p] reverts to the uncovered count) and its
// entries leave the Space budget. Callers must hold b.mu.
func (b *IndexBuffer) dropPartitionLocked(part *Partition) {
	for i, p := range b.parts {
		if p == part {
			b.parts = append(b.parts[:i], b.parts[i+1:]...)
			break
		}
	}
	if b.open == part {
		b.open = nil
	}
	for pg := range part.pages {
		b.byPage[pg] = nil
	}
	b.charge(-part.EntryCount())
}

// dropPartition is the locking wrapper around dropPartitionLocked.
func (b *IndexBuffer) dropPartition(part *Partition) {
	b.mu.Lock()
	b.dropPartitionLocked(part)
	b.publishCountersLocked()
	b.mu.Unlock()
}

// Reset drops every partition — used when the partial index is redefined
// (the counters must be rebuilt against the new coverage, so the engine
// re-creates the buffer afterwards).
func (b *IndexBuffer) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.parts) > 0 {
		b.dropPartitionLocked(b.parts[0])
	}
	b.publishCountersLocked()
}
