package index

import (
	"fmt"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/storage"
)

// Stats counts maintenance and probe activity on a partial index. The
// paper's premise is that partial-index adaptation "is not for free"
// (§I); these counters are what the benchmarks charge for it.
type Stats struct {
	Adds    uint64 // entries added
	Removes uint64 // entries removed
	Updates uint64 // entries updated in place
	Probes  uint64 // lookups served
}

// partialState is one immutable (coverage, tree) pair. Mutators clone
// the published tree, change the clone and publish it in a new state
// with a single atomic store; the clone shares all unchanged nodes with
// its predecessor and copies the path it changes, so a published state
// never mutates and a reader that loaded it may keep probing it for as
// long as it likes.
type partialState struct {
	cov  Coverage
	tree *btree.Tree
}

// Partial is a partial secondary index over one column of a table. The
// index contains exactly the (value, rid) pairs of live tuples whose
// value satisfies the coverage predicate.
//
// Concurrency: the index state (coverage predicate + B+-tree snapshot)
// lives behind one atomic pointer. Probes (Lookup, LookupRange,
// ScanRange, Contains, Covers, Ascend, Snapshot) load it and need no
// lock at all — they may run concurrently with each other and with a
// mutator, observing either the old or the new state in full, never a
// mix. Mutations (Add, Remove, Update, Rebuild) are load-derive-store
// and require exclusive access among themselves; the engine provides it
// via the table lock.
type Partial struct {
	name   string
	column int
	state  atomic.Pointer[partialState]

	adds    atomic.Uint64
	removes atomic.Uint64
	updates atomic.Uint64
	probes  atomic.Uint64
}

// NewPartial creates an empty partial index named name over column
// ordinal column with the given coverage predicate.
func NewPartial(name string, column int, cov Coverage) *Partial {
	if cov == nil {
		cov = NoneCoverage{}
	}
	p := &Partial{name: name, column: column}
	p.state.Store(&partialState{cov: cov, tree: btree.NewDefault()})
	return p
}

// Name returns the index name.
func (p *Partial) Name() string { return p.name }

// Column returns the indexed column's ordinal.
func (p *Partial) Column() int { return p.column }

// Coverage returns the current defining predicate.
func (p *Partial) Coverage() Coverage { return p.state.Load().cov }

// Covers reports whether v is within the index's defining predicate —
// i.e. whether a query for v is a partial index hit.
func (p *Partial) Covers(v storage.Value) bool { return p.state.Load().cov.Covers(v) }

// EntryCount returns the number of (value, rid) entries.
func (p *Partial) EntryCount() int { return p.state.Load().tree.EntryCount() }

// Stats returns a snapshot of the maintenance counters.
func (p *Partial) Stats() Stats {
	return Stats{
		Adds:    p.adds.Load(),
		Removes: p.removes.Load(),
		Updates: p.updates.Load(),
		Probes:  p.probes.Load(),
	}
}

// Snapshot is a stable view of the index at one instant: a coverage
// predicate and a tree snapshot that no later mutation will touch.
// A partial-index hit — on the engine's lock-free read path and under
// the table lock alike — resolves its whole probe against one Snapshot
// and defers the only side effect (the probe counter) to NoteProbe, so
// a validation failure can retry or fall back without having counted
// anything.
type Snapshot struct {
	st *partialState
	p  *Partial
}

// Snapshot returns the current index state without taking any lock.
func (p *Partial) Snapshot() Snapshot { return Snapshot{st: p.state.Load(), p: p} }

// CoversRange reports whether [lo, hi] is entirely covered.
func (s Snapshot) CoversRange(lo, hi storage.Value) bool {
	return CoversWholeRange(s.st.cov, lo, hi)
}

// LookupRange returns the RIDs with values in [lo, hi]. The caller must
// have checked CoversRange; no probe is counted — call NoteProbe once
// the result is actually used.
func (s Snapshot) LookupRange(lo, hi storage.Value) []storage.RID {
	var out []storage.RID
	s.st.tree.AscendRange(lo, hi, func(_ storage.Value, post []storage.RID) bool {
		out = append(out, post...)
		return true
	})
	return out
}

// NoteProbe counts one served probe against the owning index.
func (s Snapshot) NoteProbe() { s.p.probes.Add(1) }

// Lookup returns the RIDs of tuples with the given value. Callers must
// only ask for covered values; probing for an uncovered value is a logic
// error in the access-path selection and panics.
func (p *Partial) Lookup(v storage.Value) []storage.RID {
	st := p.state.Load()
	if !st.cov.Covers(v) {
		panic(fmt.Sprintf("index %s: lookup of uncovered value %v", p.name, v))
	}
	p.probes.Add(1)
	return st.tree.Lookup(v)
}

// CoversRange reports whether the whole interval [lo, hi] is inside the
// index's defining predicate — whether a range query over it is a
// partial index hit.
func (p *Partial) CoversRange(lo, hi storage.Value) bool {
	return CoversWholeRange(p.state.Load().cov, lo, hi)
}

// LookupRange returns the RIDs of tuples with values in [lo, hi]. The
// whole range must be covered; probing an uncovered range panics, as in
// Lookup.
func (p *Partial) LookupRange(lo, hi storage.Value) []storage.RID {
	st := p.state.Load()
	if !CoversWholeRange(st.cov, lo, hi) {
		panic(fmt.Sprintf("index %s: range lookup of uncovered range [%v, %v]", p.name, lo, hi))
	}
	p.probes.Add(1)
	var out []storage.RID
	st.tree.AscendRange(lo, hi, func(_ storage.Value, post []storage.RID) bool {
		out = append(out, post...)
		return true
	})
	return out
}

// ScanRange returns the postings of all index entries with values in
// [lo, hi], with no coverage requirement — the index simply reports what
// it contains. Range scans over partially covered intervals use this to
// recover covered matches sitting on pages the Index Buffer lets them
// skip.
func (p *Partial) ScanRange(lo, hi storage.Value) []storage.RID {
	p.probes.Add(1)
	var out []storage.RID
	p.state.Load().tree.AscendRange(lo, hi, func(_ storage.Value, post []storage.RID) bool {
		out = append(out, post...)
		return true
	})
	return out
}

// Contains reports whether (v, rid) is present. Unlike Lookup it may be
// asked about uncovered values (it then reports false), because the
// Index Buffer's maintenance logic tests membership for arbitrary
// tuples.
func (p *Partial) Contains(v storage.Value, rid storage.RID) bool {
	st := p.state.Load()
	if !st.cov.Covers(v) {
		return false
	}
	return st.tree.Contains(v, rid)
}

// Add inserts (v, rid) if v is covered; it reports whether an entry was
// added. Mutators require exclusive access (the table lock).
func (p *Partial) Add(v storage.Value, rid storage.RID) bool {
	st := p.state.Load()
	if !st.cov.Covers(v) {
		return false
	}
	tree := st.tree.Clone()
	if !tree.Insert(v, rid) {
		return false
	}
	p.state.Store(&partialState{cov: st.cov, tree: tree})
	p.adds.Add(1)
	return true
}

// Remove deletes (v, rid); it reports whether an entry was removed.
func (p *Partial) Remove(v storage.Value, rid storage.RID) bool {
	st := p.state.Load()
	tree := st.tree.Clone()
	if !tree.Delete(v, rid) {
		return false
	}
	p.state.Store(&partialState{cov: st.cov, tree: tree})
	p.removes.Add(1)
	return true
}

// Update adjusts the index for a tuple whose indexed value changed from
// old to new and whose RID changed from oldRID to newRID (they may be
// equal). It implements the IX column of the paper's Table I:
//
//	old covered, new covered  -> IX.Update
//	old covered, new not      -> IX.Remove(old)
//	old not, new covered      -> IX.Add(new)
//	old not, new not          -> nothing
func (p *Partial) Update(old, new storage.Value, oldRID, newRID storage.RID) {
	st := p.state.Load()
	oldIn, newIn := st.cov.Covers(old), st.cov.Covers(new)
	switch {
	case oldIn && newIn:
		if old.Equal(new) && oldRID == newRID {
			return
		}
		tree := st.tree.Clone()
		if removed, added := tree.Delete(old, oldRID), tree.Insert(new, newRID); removed || added {
			p.state.Store(&partialState{cov: st.cov, tree: tree})
		}
		p.updates.Add(1)
	case oldIn && !newIn:
		if tree := st.tree.Clone(); tree.Delete(old, oldRID) {
			p.state.Store(&partialState{cov: st.cov, tree: tree})
			p.removes.Add(1)
		}
	case !oldIn && newIn:
		if tree := st.tree.Clone(); tree.Insert(new, newRID) {
			p.state.Store(&partialState{cov: st.cov, tree: tree})
			p.adds.Add(1)
		}
	}
}

// Ascend iterates the index contents in value order.
func (p *Partial) Ascend(fn func(v storage.Value, post []storage.RID) bool) {
	p.state.Load().tree.Ascend(fn)
}

// TupleSource yields the tuples of a table page by page; the heap table
// satisfies it. It is the minimal surface Rebuild needs, kept as an
// interface so index does not depend on heap.
type TupleSource interface {
	Scan(fn func(storage.RID, storage.Tuple) error) error
}

// Rebuild redefines the index's coverage and repopulates it with a full
// scan of the table — the (expensive) adaptation step of the disk-based
// partial index that the Index Buffer papers over. It returns the number
// of entries in the rebuilt index. The new coverage and the new tree
// become visible to lock-free probes in one atomic publication.
func (p *Partial) Rebuild(cov Coverage, table TupleSource) (int, error) {
	publish, err := p.Stage(cov, table)
	if err != nil {
		return 0, err
	}
	return publish(), nil
}

// Stage is Rebuild's scan: it builds the index for cov over table and
// returns the function that publishes it. Until publish runs, probes
// see the old index, so a caller can stage several rebuilds and publish
// them only once all have succeeded.
func (p *Partial) Stage(cov Coverage, table TupleSource) (publish func() int, err error) {
	if cov == nil {
		cov = NoneCoverage{}
	}
	var entries []btree.Entry
	err = table.Scan(func(rid storage.RID, tu storage.Tuple) error {
		v := tu.Value(p.column)
		if cov.Covers(v) {
			entries = append(entries, btree.Entry{Key: v, RID: rid})
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("index %s: rebuild: %w", p.name, err)
	}
	fresh := btree.Bulk(btree.DefaultOrder, entries)
	return func() int {
		p.adds.Add(uint64(fresh.EntryCount()))
		p.state.Store(&partialState{cov: cov, tree: fresh})
		return fresh.EntryCount()
	}, nil
}
