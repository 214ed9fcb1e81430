package core

import (
	"repro/internal/btree"
	"repro/internal/storage"
)

// Partition is one displacement unit of an Index Buffer (paper §IV,
// Fig. 5). Each partition has its own B+-tree and covers a disjoint set
// of table pages; every buffered entry whose tuple lives in one of those
// pages is in this partition. Discarding always removes whole
// partitions, so a drop cleanly un-indexes a page set without leaving
// useless sibling entries behind.
type Partition struct {
	id        int
	structure *btree.Tree
	pages     map[storage.PageID]struct{}

	// bytes is the exact encoded payload size of the partition's
	// entries — Σ (key.EncodedSize() + ridBytes) over live entries —
	// maintained by insert/remove so occupancy-in-bytes is O(1) to
	// read. Tree node overhead is not counted; this is the paper's
	// budget unit (entries) expressed in bytes.
	bytes int
}

// ridBytes is the encoded size of one storage.RID: a uint32 page id
// plus a uint16 slot.
const ridBytes = 6

// entryBytes is the encoded payload size of one (key, rid) entry.
func entryBytes(key storage.Value) int { return key.EncodedSize() + ridBytes }

func newPartition(id int) *Partition {
	return &Partition{id: id, structure: btree.NewDefault(), pages: make(map[storage.PageID]struct{})}
}

// ID returns the partition's identifier, unique within its buffer.
func (p *Partition) ID() int { return p.id }

// PageCount returns X_p — the number of table pages the partition covers.
func (p *Partition) PageCount() int { return len(p.pages) }

// EntryCount returns n_p — the number of (key, rid) entries, the
// partition's size in Index Buffer Space budget units.
func (p *Partition) EntryCount() int { return p.structure.EntryCount() }

// EntryBytes returns the exact encoded payload bytes of the
// partition's entries.
func (p *Partition) EntryBytes() int { return p.bytes }

// insert adds one entry through the tree, keeping the byte count in
// step. Reports whether the entry was actually added (the tree dedupes).
func (p *Partition) insert(key storage.Value, rid storage.RID) bool {
	if p.structure.Insert(key, rid) {
		p.bytes += entryBytes(key)
		return true
	}
	return false
}

// remove deletes one entry through the tree, keeping the byte count in
// step. Reports whether the entry was present.
func (p *Partition) remove(key storage.Value, rid storage.RID) bool {
	if p.structure.Delete(key, rid) {
		p.bytes -= entryBytes(key)
		return true
	}
	return false
}

// Covers reports whether the partition covers table page pg.
func (p *Partition) Covers(pg storage.PageID) bool {
	_, ok := p.pages[pg]
	return ok
}

// complete reports whether the partition has reached its page capacity P.
func (p *Partition) complete(P int) bool { return len(p.pages) >= P }

// benefit returns b_p = X_p · T⁻¹ for the given mean access interval of
// the owning buffer.
func (p *Partition) benefit(meanInterval float64) float64 {
	return float64(len(p.pages)) / meanInterval
}
