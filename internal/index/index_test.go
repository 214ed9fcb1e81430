package index

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/storage"
)

func iv(v int64) storage.Value { return storage.Int64Value(v) }
func rid(p, s int) storage.RID { return storage.RID{Page: storage.PageID(p), Slot: uint16(s)} }

func TestRangeCoverage(t *testing.T) {
	t.Parallel()
	c := IntRange(1, 5000)
	cases := []struct {
		v    int64
		want bool
	}{
		{0, false}, {1, true}, {2500, true}, {5000, true}, {5001, false},
	}
	for _, cs := range cases {
		if got := c.Covers(iv(cs.v)); got != cs.want {
			t.Errorf("Covers(%d) = %v, want %v", cs.v, got, cs.want)
		}
	}
	if c.String() != "BETWEEN 1 AND 5000" {
		t.Errorf("String() = %q", c.String())
	}
}

func TestSetCoverage(t *testing.T) {
	t.Parallel()
	c := NewSetCoverage(iv(3), iv(7), storage.StringValue("ORD"))
	if !c.Covers(iv(3)) || !c.Covers(storage.StringValue("ORD")) {
		t.Error("member not covered")
	}
	if c.Covers(iv(4)) || c.Covers(storage.StringValue("FRA")) {
		t.Error("non-member covered")
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestNoneAllCoverage(t *testing.T) {
	t.Parallel()
	if (NoneCoverage{}).Covers(iv(1)) {
		t.Error("NoneCoverage covered something")
	}
	if (NoneCoverage{}).String() != "NONE" {
		t.Error("String() wrong")
	}
}

func TestPartialAddRespectsCoverage(t *testing.T) {
	t.Parallel()
	p := NewPartial("ix_a", 0, IntRange(1, 100))
	if !p.Add(iv(50), rid(0, 0)) {
		t.Error("covered add should succeed")
	}
	if p.Add(iv(200), rid(0, 1)) {
		t.Error("uncovered add should be refused")
	}
	if p.Add(iv(50), rid(0, 0)) {
		t.Error("duplicate add should be refused")
	}
	if p.EntryCount() != 1 {
		t.Errorf("entries = %d", p.EntryCount())
	}
	if got := p.Stats().Adds; got != 1 {
		t.Errorf("adds = %d", got)
	}
}

func TestPartialLookup(t *testing.T) {
	t.Parallel()
	p := NewPartial("ix_a", 0, IntRange(1, 100))
	p.Add(iv(10), rid(1, 0))
	p.Add(iv(10), rid(2, 0))
	post := p.Lookup(iv(10))
	if len(post) != 2 {
		t.Errorf("posting = %v", post)
	}
	if p.Stats().Probes != 1 {
		t.Errorf("probes = %d", p.Stats().Probes)
	}
	defer func() {
		if recover() == nil {
			t.Error("lookup of uncovered value should panic")
		}
	}()
	p.Lookup(iv(9999))
}

func TestPartialContains(t *testing.T) {
	t.Parallel()
	p := NewPartial("ix_a", 0, IntRange(1, 100))
	p.Add(iv(10), rid(1, 0))
	if !p.Contains(iv(10), rid(1, 0)) {
		t.Error("present pair not found")
	}
	if p.Contains(iv(10), rid(9, 9)) {
		t.Error("absent rid found")
	}
	// Uncovered values are queryable via Contains (needed by Table I
	// maintenance) and always absent.
	if p.Contains(iv(9999), rid(1, 0)) {
		t.Error("uncovered value reported present")
	}
}

func TestPartialRemove(t *testing.T) {
	t.Parallel()
	p := NewPartial("ix_a", 0, IntRange(1, 100))
	p.Add(iv(10), rid(1, 0))
	if !p.Remove(iv(10), rid(1, 0)) {
		t.Error("remove should succeed")
	}
	if p.Remove(iv(10), rid(1, 0)) {
		t.Error("re-remove should fail")
	}
	if p.EntryCount() != 0 || p.Stats().Removes != 1 {
		t.Errorf("entries=%d removes=%d", p.EntryCount(), p.Stats().Removes)
	}
}

func TestPartialUpdateMatrix(t *testing.T) {
	t.Parallel()
	// The four IX cases of the paper's Table I.
	cov := IntRange(1, 100)
	r1, r2 := rid(1, 0), rid(2, 0)

	t.Run("in->in", func(t *testing.T) {
		p := NewPartial("ix", 0, cov)
		p.Add(iv(10), r1)
		p.Update(iv(10), iv(20), r1, r2)
		if p.Contains(iv(10), r1) || !p.Contains(iv(20), r2) {
			t.Error("update did not move entry")
		}
	})
	t.Run("in->out", func(t *testing.T) {
		p := NewPartial("ix", 0, cov)
		p.Add(iv(10), r1)
		p.Update(iv(10), iv(500), r1, r2)
		if p.Contains(iv(10), r1) || p.EntryCount() != 0 {
			t.Error("update did not remove entry")
		}
	})
	t.Run("out->in", func(t *testing.T) {
		p := NewPartial("ix", 0, cov)
		p.Update(iv(500), iv(20), r1, r2)
		if !p.Contains(iv(20), r2) {
			t.Error("update did not add entry")
		}
	})
	t.Run("out->out", func(t *testing.T) {
		p := NewPartial("ix", 0, cov)
		p.Update(iv(500), iv(600), r1, r2)
		if p.EntryCount() != 0 {
			t.Error("out->out update touched index")
		}
	})
	t.Run("same value same rid is noop", func(t *testing.T) {
		p := NewPartial("ix", 0, cov)
		p.Add(iv(10), r1)
		before := p.Stats()
		p.Update(iv(10), iv(10), r1, r1)
		if p.Stats() != before {
			t.Error("no-op update changed stats")
		}
		if !p.Contains(iv(10), r1) {
			t.Error("no-op update lost entry")
		}
	})
}

// fakeSource is an in-memory TupleSource.
type fakeSource struct {
	rows []struct {
		rid storage.RID
		tu  storage.Tuple
	}
}

func (f *fakeSource) add(r storage.RID, tu storage.Tuple) {
	f.rows = append(f.rows, struct {
		rid storage.RID
		tu  storage.Tuple
	}{r, tu})
}

func (f *fakeSource) Scan(fn func(storage.RID, storage.Tuple) error) error {
	for _, row := range f.rows {
		if err := fn(row.rid, row.tu); err != nil {
			return err
		}
	}
	return nil
}

func TestPartialRebuild(t *testing.T) {
	t.Parallel()
	src := &fakeSource{}
	for i := 0; i < 100; i++ {
		src.add(rid(i/10, i%10), storage.NewTuple(iv(int64(i))))
	}
	p := NewPartial("ix", 0, IntRange(0, 49))
	for i := 0; i < 50; i++ {
		p.Add(iv(int64(i)), rid(i/10, i%10))
	}
	n, err := p.Rebuild(IntRange(50, 99), src)
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 || p.EntryCount() != 50 {
		t.Errorf("rebuilt entries = %d / %d", n, p.EntryCount())
	}
	if p.Covers(iv(10)) {
		t.Error("old coverage survived rebuild")
	}
	if !p.Contains(iv(75), rid(7, 5)) {
		t.Error("rebuilt index missing entry")
	}
	if p.Contains(iv(10), rid(1, 0)) {
		t.Error("rebuilt index kept stale entry")
	}
}

func TestPartialAscend(t *testing.T) {
	t.Parallel()
	p := NewPartial("ix", 0, IntRange(1, 100))
	for _, k := range []int64{30, 10, 20} {
		p.Add(iv(k), rid(int(k), 0))
	}
	var got []int64
	p.Ascend(func(v storage.Value, _ []storage.RID) bool {
		got = append(got, v.Int64())
		return true
	})
	want := []int64{10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v", got)
		}
	}
}

func TestNewPartialNilCoverage(t *testing.T) {
	t.Parallel()
	p := NewPartial("ix", 0, nil)
	if p.Covers(iv(1)) {
		t.Error("nil coverage should behave as NONE")
	}
}

func TestCoversWholeRange(t *testing.T) {
	t.Parallel()
	r := IntRange(10, 100)
	if !CoversWholeRange(r, iv(10), iv(100)) || !CoversWholeRange(r, iv(50), iv(60)) {
		t.Error("nested range should be covered")
	}
	if CoversWholeRange(r, iv(5), iv(60)) || CoversWholeRange(r, iv(50), iv(101)) {
		t.Error("straddling range should not be covered")
	}
	// SetCoverage has no RangeCoverer: only degenerate ranges hit.
	s := NewSetCoverage(iv(7))
	if !CoversWholeRange(s, iv(7), iv(7)) {
		t.Error("degenerate covered range should hit")
	}
	if CoversWholeRange(s, iv(7), iv(8)) {
		t.Error("non-degenerate range on set coverage should miss")
	}
	if CoversWholeRange(NoneCoverage{}, iv(1), iv(1)) {
		t.Error("NONE should cover nothing")
	}
}

func TestPartialLookupRange(t *testing.T) {
	t.Parallel()
	p := NewPartial("ix", 0, IntRange(0, 99))
	for k := int64(0); k < 100; k += 2 {
		p.Add(iv(k), rid(int(k), 0))
	}
	got := p.LookupRange(iv(10), iv(20))
	if len(got) != 6 { // 10 12 14 16 18 20
		t.Errorf("range postings = %d, want 6", len(got))
	}
	defer func() {
		if recover() == nil {
			t.Error("uncovered range lookup should panic")
		}
	}()
	p.LookupRange(iv(90), iv(150))
}

func TestPartialScanRange(t *testing.T) {
	t.Parallel()
	p := NewPartial("ix", 0, IntRange(0, 49))
	for k := int64(0); k < 100; k++ {
		p.Add(iv(k), rid(int(k), 0)) // only 0..49 accepted
	}
	// ScanRange over an uncovered-straddling interval returns only what
	// the index holds, without panicking.
	got := p.ScanRange(iv(40), iv(60))
	if len(got) != 10 { // 40..49
		t.Errorf("scan postings = %d, want 10", len(got))
	}
}

func TestUnionCoverage(t *testing.T) {
	t.Parallel()
	u := UnionCoverage{IntRange(1, 10), IntRange(50, 60)}
	for _, c := range []struct {
		v    int64
		want bool
	}{{0, false}, {1, true}, {10, true}, {11, false}, {49, false}, {55, true}, {61, false}} {
		if got := u.Covers(iv(c.v)); got != c.want {
			t.Errorf("Covers(%d) = %v, want %v", c.v, got, c.want)
		}
	}
	if !u.CoversRange(iv(2), iv(9)) {
		t.Error("nested range should be covered")
	}
	if u.CoversRange(iv(5), iv(55)) {
		t.Error("range spanning the gap must not be covered")
	}
	if u.String() != "UNION of 2 ranges" {
		t.Errorf("String() = %q", u.String())
	}
}

func TestSetCoverageForEach(t *testing.T) {
	t.Parallel()
	c := NewSetCoverage(iv(1), iv(2), iv(3))
	seen := map[int64]bool{}
	c.ForEach(func(v storage.Value) { seen[v.Int64()] = true })
	if len(seen) != 3 || !seen[1] || !seen[2] || !seen[3] {
		t.Errorf("ForEach visited %v", seen)
	}
}

func TestPartialAccessors(t *testing.T) {
	t.Parallel()
	p := NewPartial("flights.airport", 2, IntRange(1, 5))
	if p.Name() != "flights.airport" || p.Column() != 2 {
		t.Errorf("accessors: %q, %d", p.Name(), p.Column())
	}
	if p.Coverage().String() != "BETWEEN 1 AND 5" {
		t.Errorf("coverage = %v", p.Coverage())
	}
}

// TestPartialSnapshotClonesStayFixed has one goroutine add, remove and
// update entries — each mutation clones the published tree and
// publishes the changed clone — while readers probe a Snapshot twice
// and require the same answer both times: no later mutation may show
// through a published clone. Run it with -race.
func TestPartialSnapshotClonesStayFixed(t *testing.T) {
	p := NewPartial("ix", 0, IntRange(0, 40))
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				s := p.Snapshot()
				first := s.LookupRange(iv(0), iv(40))
				runtime.Gosched()
				if again := s.LookupRange(iv(0), iv(40)); !slices.Equal(first, again) {
					t.Errorf("snapshot changed: %d rids, then %d", len(first), len(again))
					return
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		v, r := iv(int64(rng.Intn(50))), rid(rng.Intn(8), rng.Intn(8))
		switch rng.Intn(3) {
		case 0:
			p.Add(v, r)
		case 1:
			p.Remove(v, r)
		default:
			p.Update(v, iv(int64(rng.Intn(50))), r, rid(rng.Intn(8), rng.Intn(8)))
		}
	}
	stop.Store(true)
	wg.Wait()
}
