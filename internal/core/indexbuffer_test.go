package core

import (
	"testing"

	"repro/internal/storage"
)

func iv(v int64) storage.Value { return storage.Int64Value(v) }
func rid(p, s int) storage.RID { return storage.RID{Page: storage.PageID(p), Slot: uint16(s)} }

func newBuf(t *testing.T, cfg Config, uncovered []int) (*Space, *IndexBuffer) {
	t.Helper()
	s := NewSpace(cfg)
	b, err := s.CreateBuffer("t.a", uncovered)
	if err != nil {
		t.Fatal(err)
	}
	return s, b
}

func TestCreateBufferDuplicate(t *testing.T) {
	s := NewSpace(Config{})
	if _, err := s.CreateBuffer("x", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateBuffer("x", nil); err == nil {
		t.Error("duplicate buffer name should fail")
	}
}

func TestCountersInitialAndGrow(t *testing.T) {
	_, b := newBuf(t, Config{}, []int{3, 0, 5})
	if b.NumPages() != 3 {
		t.Fatalf("NumPages = %d", b.NumPages())
	}
	if b.Counter(0) != 3 || b.Counter(1) != 0 || b.Counter(2) != 5 {
		t.Errorf("counters = %d %d %d", b.Counter(0), b.Counter(1), b.Counter(2))
	}
	// Out-of-range pages read as 0 rather than panicking.
	if b.Counter(99) != 0 {
		t.Errorf("out-of-range counter = %d", b.Counter(99))
	}
	b.GrowPages(5)
	if b.NumPages() != 5 || b.Counter(4) != 0 {
		t.Errorf("after grow: pages=%d C[4]=%d", b.NumPages(), b.Counter(4))
	}
	// Grow never shrinks.
	b.GrowPages(2)
	if b.NumPages() != 5 {
		t.Errorf("grow shrank to %d", b.NumPages())
	}
}

// pageEntries is page p's entry set: one entry per key, at slots 0, 1, ...
func pageEntries(p int, keys ...int64) []PageEntry {
	es := make([]PageEntry, len(keys))
	for s, k := range keys {
		es[s] = PageEntry{Key: iv(k), RID: rid(p, s)}
	}
	return es
}

// synthEntries is page p's entry set of n synthetic entries at slots
// 0..n-1, entry k keyed key(k).
func synthEntries(p storage.PageID, n int, key func(k int) int64) []PageEntry {
	es := make([]PageEntry, n)
	for k := range es {
		es[k] = PageEntry{Key: iv(key(k)), RID: storage.RID{Page: p, Slot: uint16(k)}}
	}
	return es
}

func TestApplyPage(t *testing.T) {
	s, b := newBuf(t, Config{P: 2}, []int{2, 1, 1, 1})
	if err := b.ApplyPage(0, pageEntries(0, 10, 20)); err != nil {
		t.Fatal(err)
	}
	if err := b.ApplyPage(0, pageEntries(0, 30)); err == nil {
		t.Error("ApplyPage on a page already buffered should fail")
	}
	if !b.PageBuffered(0) || b.PageBuffered(1) {
		t.Error("PageBuffered wrong")
	}
	if b.Counter(0) != 0 || b.CounterSnapshot().At(0) != 0 {
		t.Errorf("buffered page counter = %d (published %d), want 0", b.Counter(0), b.CounterSnapshot().At(0))
	}
	if b.Uncovered(0) != 2 {
		t.Errorf("raw uncovered = %d, want 2 (unchanged)", b.Uncovered(0))
	}
	if b.EntryCount() != 2 || s.Used() != 2 {
		t.Errorf("entries=%d used=%d", b.EntryCount(), s.Used())
	}
	if got := b.Lookup(iv(10)); len(got) != 1 || got[0] != rid(0, 0) {
		t.Errorf("lookup = %v", got)
	}
	if b.Lookup(iv(30)) != nil || b.Lookup(iv(99)) != nil {
		t.Error("rejected or missing key should be nil")
	}
}

func TestPartitionFillingRespectsP(t *testing.T) {
	_, b := newBuf(t, Config{P: 2}, []int{1, 1, 1, 1, 1})
	for p := 0; p < 5; p++ {
		if err := b.ApplyPage(storage.PageID(p), nil); err != nil {
			t.Fatal(err)
		}
	}
	// 5 pages at P=2: partitions of 2, 2, 1.
	if b.PartitionCount() != 3 {
		t.Fatalf("partitions = %d, want 3", b.PartitionCount())
	}
	sizes := []int{}
	for _, p := range b.Partitions() {
		sizes = append(sizes, p.PageCount())
	}
	if sizes[0] != 2 || sizes[1] != 2 || sizes[2] != 1 {
		t.Errorf("partition page counts = %v", sizes)
	}
	if b.BufferedPages() != 5 {
		t.Errorf("buffered pages = %d", b.BufferedPages())
	}
	// Disjointness: each page in exactly one partition.
	seen := map[storage.PageID]int{}
	for _, part := range b.Partitions() {
		for pg := range part.pages {
			seen[pg]++
		}
	}
	for pg, n := range seen {
		if n != 1 {
			t.Errorf("page %d in %d partitions", pg, n)
		}
	}
}

func TestLookupSpansPartitions(t *testing.T) {
	_, b := newBuf(t, Config{P: 1}, []int{1, 1})
	_ = b.ApplyPage(0, pageEntries(0, 7))
	_ = b.ApplyPage(1, pageEntries(1, 7))
	got := b.Lookup(iv(7))
	if len(got) != 2 {
		t.Fatalf("lookup across partitions = %v", got)
	}
}

func TestDropPartitionRestoresCounters(t *testing.T) {
	s, b := newBuf(t, Config{P: 2}, []int{3, 2, 4})
	_ = b.ApplyPage(0, pageEntries(0, 1, 2, 3))
	_ = b.ApplyPage(1, pageEntries(1, 4, 5))
	if s.Used() != 5 {
		t.Fatalf("used = %d", s.Used())
	}
	part := b.Partitions()[0]
	b.dropPartition(part)
	if b.PartitionCount() != 0 {
		t.Errorf("partitions = %d", b.PartitionCount())
	}
	if s.Used() != 0 {
		t.Errorf("used after drop = %d", s.Used())
	}
	// Counters revert to the uncovered counts.
	if b.Counter(0) != 3 || b.Counter(1) != 2 {
		t.Errorf("counters after drop = %d, %d", b.Counter(0), b.Counter(1))
	}
	if b.PageBuffered(0) || b.PageBuffered(1) {
		t.Error("pages still marked buffered after drop")
	}
	// The open partition pointer was cleared; a new page applies.
	if err := b.ApplyPage(2, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReset(t *testing.T) {
	s, b := newBuf(t, Config{P: 1}, []int{1, 1, 1})
	for p := 0; p < 3; p++ {
		_ = b.ApplyPage(storage.PageID(p), pageEntries(p, int64(p)))
	}
	b.Reset()
	if b.PartitionCount() != 0 || b.EntryCount() != 0 || s.Used() != 0 {
		t.Errorf("reset left parts=%d entries=%d used=%d", b.PartitionCount(), b.EntryCount(), s.Used())
	}
	for p := 0; p < 3; p++ {
		if b.Counter(storage.PageID(p)) != 1 {
			t.Errorf("counter %d = %d", p, b.Counter(storage.PageID(p)))
		}
	}
}

func TestBenefitUsesHistory(t *testing.T) {
	_, b := newBuf(t, Config{P: 2, K: 2}, []int{1, 1, 1, 1})
	for p := 0; p < 4; p++ {
		_ = b.ApplyPage(storage.PageID(p), nil)
	}
	// 2 partitions × 2 pages, fresh history (T=1): benefit = 4.
	if got := b.Benefit(); got != 4 {
		t.Errorf("benefit = %v, want 4", got)
	}
	// Age the buffer: running interval 6, T = (6+0)/2 = 3 -> benefit 4/3.
	for i := 0; i < 6; i++ {
		b.History().Tick()
	}
	want := 4.0 / 3.0
	if got := b.Benefit(); got < want-1e-9 || got > want+1e-9 {
		t.Errorf("benefit = %v, want %v", got, want)
	}
}

func TestDropBuffer(t *testing.T) {
	s := NewSpace(Config{P: 1})
	b, _ := s.CreateBuffer("t.a", []int{1})
	_ = b.ApplyPage(0, pageEntries(0, 1))
	s.DropBuffer("t.a")
	if s.Buffer("t.a") != nil || s.Used() != 0 || len(s.Buffers()) != 0 {
		t.Error("DropBuffer did not clean up")
	}
	s.DropBuffer("missing") // no-op
}

// TestEntryBytesAccounting pins the exact-byte occupancy bookkeeping:
// every insert and remove moves EntryBytes by the key's encoded size
// plus the fixed RID width, and displacement releases a partition's
// bytes wholesale.
func TestEntryBytesAccounting(t *testing.T) {
	_, b := newBuf(t, Config{P: 2}, []int{2, 1})
	if b.EntryBytes() != 0 {
		t.Fatalf("fresh buffer holds %d bytes", b.EntryBytes())
	}
	if err := b.ApplyPage(0, pageEntries(0, 10, 20)); err != nil {
		t.Fatal(err)
	}
	per := iv(10).EncodedSize() + 6 // key bytes + RID (uint32 page + uint16 slot)
	if got := b.EntryBytes(); got != 2*per {
		t.Errorf("EntryBytes = %d, want %d", got, 2*per)
	}
	// Maintenance delete of a buffered entry returns its bytes.
	b.MaintainDelete(iv(10), rid(0, 0), false)
	if got := b.EntryBytes(); got != per {
		t.Errorf("EntryBytes after delete = %d, want %d", got, per)
	}
	b.Reset()
	if b.EntryBytes() != 0 {
		t.Errorf("EntryBytes after Reset = %d", b.EntryBytes())
	}
}

// TestCounterSummaryAndSkippable covers the sampling accessors the
// timeline recorder is built on.
func TestCounterSummaryAndSkippable(t *testing.T) {
	_, b := newBuf(t, Config{}, []int{0, 4, 1, 0, 9})
	st := b.CounterSummary()
	if st.Pages != 5 || st.Skippable != 2 || st.Remaining != 14 {
		t.Errorf("summary = %+v", st)
	}
	if st.Min != 1 || st.P50 != 4 || st.Max != 9 {
		t.Errorf("distribution = %+v", st)
	}
	if got := st.Coverage(); got != 0.4 {
		t.Errorf("coverage = %g", got)
	}
	zero, total := b.Skippable()
	if zero != 2 || total != 5 {
		t.Errorf("Skippable = %d/%d", zero, total)
	}

	// All-skippable: distribution collapses to zeros, coverage to 1.
	_, full := newBuf(t, Config{}, []int{0, 0})
	st = full.CounterSummary()
	if st.Skippable != 2 || st.Min != 0 || st.Max != 0 || st.Coverage() != 1 {
		t.Errorf("all-skippable summary = %+v", st)
	}

	// Empty counter array: coverage is 0, not NaN.
	if (CounterStats{}).Coverage() != 0 {
		t.Error("zero-page coverage not 0")
	}
}
