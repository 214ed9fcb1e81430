package core

import (
	"math/rand"
	"testing"

	"repro/internal/storage"
)

// indexPages simulates an indexing scan: assigns each selected page to a
// partition and inserts C[p] synthetic entries for it.
func indexPages(t *testing.T, b *IndexBuffer, pages []storage.PageID) {
	t.Helper()
	for _, pg := range pages {
		es := synthEntries(pg, b.Counter(pg), func(s int) int64 { return int64(pg)*100 + int64(s) })
		if err := b.ApplyPage(pg, es); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSelectPagesUnlimitedSpace(t *testing.T) {
	s := NewSpace(Config{IMax: 3, P: 10})
	b, _ := s.CreateBuffer("t.a", []int{5, 1, 0, 3, 2})
	got := s.SelectPagesForBuffer(b, 5)
	// Ascending counter: pages 1 (C=1), 4 (C=2), 3 (C=3); page 2 has C=0
	// (already fully indexed) and page 0 is cut by IMax=3.
	want := []storage.PageID{1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("selected %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("selected %v, want %v", got, want)
		}
	}
}

func TestSelectPagesSkipsBufferedAndZero(t *testing.T) {
	s := NewSpace(Config{IMax: 100, P: 10})
	b, _ := s.CreateBuffer("t.a", []int{2, 2, 2})
	indexPages(t, b, []storage.PageID{1})
	got := s.SelectPagesForBuffer(b, 3)
	for _, pg := range got {
		if pg == 1 {
			t.Error("selected an already-buffered page")
		}
	}
	if len(got) != 2 {
		t.Errorf("selected %v, want pages 0 and 2", got)
	}
}

func TestSelectPagesRespectsSpaceLimitWithoutVictims(t *testing.T) {
	// One buffer only: it is never its own victim, so selection is capped
	// by free space.
	s := NewSpace(Config{IMax: 100, P: 10, SpaceLimit: 5})
	b, _ := s.CreateBuffer("t.a", []int{3, 3, 3})
	got := s.SelectPagesForBuffer(b, 3)
	// 5 entries budget, 3 per page: only one page fits.
	if len(got) != 1 {
		t.Fatalf("selected %d pages, want 1", len(got))
	}
	indexPages(t, b, got)
	if s.Used() != 3 || s.Free() != 2 {
		t.Errorf("used=%d free=%d", s.Used(), s.Free())
	}
	// Next scan: 2 free, no page fits, no victims available.
	got = s.SelectPagesForBuffer(b, 3)
	if len(got) != 0 {
		t.Errorf("selected %v with insufficient space and no victims", got)
	}
}

func TestDisplacementPrefersLowBenefitBuffer(t *testing.T) {
	s := NewSpace(Config{IMax: 100, P: 2, K: 2, SpaceLimit: 8, Rand: rand.New(rand.NewSource(42))})
	cold, _ := s.CreateBuffer("t.cold", []int{2, 2})
	hot, _ := s.CreateBuffer("t.hot", []int{2, 2})
	target, _ := s.CreateBuffer("t.new", []int{2, 2})

	// Fill the space: cold takes 4 entries, hot takes 4.
	indexPages(t, cold, s.SelectPagesForBuffer(cold, 2))
	indexPages(t, hot, s.SelectPagesForBuffer(hot, 2))
	if s.Free() != 0 {
		t.Fatalf("free = %d, want 0", s.Free())
	}

	// Make cold look unused (long intervals) and hot look busy.
	for i := 0; i < 50; i++ {
		s.OnQuery(hot, false) // hot used every query; cold just ticks
	}
	// Now the workload shifts to the target column: two misses in a row
	// drive the target's mean interval to the floor, as in the paper's
	// experiment 3.
	s.OnQuery(target, false)
	s.OnQuery(target, false)

	// The target buffer now wants space; the victim should come from cold
	// (benefit-weighted random strongly favors 1/b of the aged buffer).
	got := s.SelectPagesForBuffer(target, 2)
	if len(got) == 0 {
		t.Fatal("no pages selected despite displaceable victims")
	}
	if cold.EntryCount() >= 4 {
		t.Errorf("cold kept %d entries; expected displacement from cold", cold.EntryCount())
	}
	if hot.EntryCount() != 4 {
		t.Errorf("hot lost entries (%d left); victim choice ignored benefit", hot.EntryCount())
	}
	if s.Stats().PartitionsDropped == 0 {
		t.Error("no partitions dropped recorded")
	}
}

func TestDisplacementNeverEvictsTargetBuffer(t *testing.T) {
	s := NewSpace(Config{IMax: 100, P: 1, SpaceLimit: 4})
	b, _ := s.CreateBuffer("t.a", []int{2, 2, 2})
	indexPages(t, b, s.SelectPagesForBuffer(b, 3)) // fills 4 of 4
	before := b.EntryCount()
	got := s.SelectPagesForBuffer(b, 3)
	if len(got) != 0 {
		t.Errorf("selected %v; target must not displace itself", got)
	}
	if b.EntryCount() != before {
		t.Error("target buffer lost entries")
	}
}

func TestDisplacementBenefitGate(t *testing.T) {
	// A fresh (high-benefit-per-entry) victim should NOT be dropped for
	// low-benefit new information: make the target's history long (cold)
	// so b_I is small, while the victim's buffer is hot.
	s := NewSpace(Config{IMax: 100, P: 2, K: 2, SpaceLimit: 4, Rand: rand.New(rand.NewSource(7))})
	hot, _ := s.CreateBuffer("t.hot", []int{2, 2})
	target, _ := s.CreateBuffer("t.tgt", []int{2, 2})
	indexPages(t, hot, s.SelectPagesForBuffer(hot, 2))
	// hot used constantly; target cold.
	for i := 0; i < 100; i++ {
		s.OnQuery(hot, false)
	}
	got := s.SelectPagesForBuffer(target, 2)
	// Victim benefit: 2 pages / T=1 -> 2. New info: 2 pages / T=50 ->
	// 0.04. The gate b_I > Σb_D must reject the displacement.
	if len(got) != 0 {
		t.Errorf("selected %v; benefit gate should reject displacement", got)
	}
	if hot.EntryCount() != 4 {
		t.Errorf("hot displaced to %d entries", hot.EntryCount())
	}
}

func TestVictimStageTwoOrdering(t *testing.T) {
	// Within a buffer: the incomplete partition goes first, then complete
	// partitions by descending size.
	s := NewSpace(Config{IMax: 100, P: 2, SpaceLimit: 1000})
	b, _ := s.CreateBuffer("t.a", []int{1, 2, 3, 4, 9})
	indexPages(t, b, []storage.PageID{0, 1}) // partition 0: complete, 3 entries
	indexPages(t, b, []storage.PageID{2, 3}) // partition 1: complete, 7 entries
	indexPages(t, b, []storage.PageID{4})    // partition 2: incomplete (1 of 2 pages)

	excluded := map[*Partition]bool{}
	v1 := b.pickVictimPartitionLocked(excluded, b.cfg)
	if v1.PageCount() != 1 {
		t.Fatalf("first victim should be the incomplete partition, got %d pages / %d entries", v1.PageCount(), v1.EntryCount())
	}
	excluded[v1] = true
	v2 := b.pickVictimPartitionLocked(excluded, b.cfg)
	if v2.EntryCount() != 7 {
		t.Fatalf("second victim should be the biggest complete partition, got %d entries", v2.EntryCount())
	}
	excluded[v2] = true
	v3 := b.pickVictimPartitionLocked(excluded, b.cfg)
	if v3.EntryCount() != 3 {
		t.Fatalf("third victim: got %d entries", v3.EntryCount())
	}
	excluded[v3] = true
	if b.pickVictimPartitionLocked(excluded, b.cfg) != nil {
		t.Error("exhausted buffer still yields victims")
	}
}

// recordingObserver collects SpaceEvent calls for assertions.
type recordingObserver struct {
	events []struct {
		kind, buffer string
		n            int
	}
}

func (r *recordingObserver) SpaceEvent(kind, buffer string, page, n int) {
	r.events = append(r.events, struct {
		kind, buffer string
		n            int
	}{kind, buffer, n})
}

// TestObserverSeesSelectionAndDisplacement reuses the displacement
// scenario of TestDisplacementPrefersLowBenefitBuffer and asserts the
// attached observer sees the Algorithm-2 decision: one displace event
// per dropped victim (attributed to the victim's owner) and a final
// page-select for the target.
func TestObserverSeesSelectionAndDisplacement(t *testing.T) {
	s := NewSpace(Config{IMax: 100, P: 2, K: 2, SpaceLimit: 8, Rand: rand.New(rand.NewSource(42))})
	obs := &recordingObserver{}
	s.SetObserver(obs)
	cold, _ := s.CreateBuffer("t.cold", []int{2, 2})
	hot, _ := s.CreateBuffer("t.hot", []int{2, 2})
	target, _ := s.CreateBuffer("t.new", []int{2, 2})
	indexPages(t, cold, s.SelectPagesForBuffer(cold, 2))
	indexPages(t, hot, s.SelectPagesForBuffer(hot, 2))
	for i := 0; i < 50; i++ {
		s.OnQuery(hot, false)
	}
	s.OnQuery(target, false)
	s.OnQuery(target, false)
	obs.events = nil // only observe the displacing selection

	got := s.SelectPagesForBuffer(target, 2)
	var displaced, selected int
	for _, e := range obs.events {
		switch e.kind {
		case "displace":
			displaced++
			if e.buffer != "t.cold" {
				t.Errorf("displace attributed to %q, want t.cold", e.buffer)
			}
			if e.n <= 0 {
				t.Errorf("displace released %d entries", e.n)
			}
		case "page-select":
			selected++
			if e.buffer != "t.new" || e.n != len(got) {
				t.Errorf("page-select event = %+v, want target t.new n=%d", e, len(got))
			}
		default:
			t.Errorf("unexpected event kind %q", e.kind)
		}
	}
	if displaced == 0 {
		t.Error("no displace events despite displacement")
	}
	if selected != 1 {
		t.Errorf("page-select events = %d, want 1", selected)
	}
}

func TestSelectPagesEmptyCandidates(t *testing.T) {
	s := NewSpace(Config{})
	b, _ := s.CreateBuffer("t.a", []int{0, 0})
	if got := s.SelectPagesForBuffer(b, 2); got != nil {
		t.Errorf("selected %v from fully indexed table", got)
	}
}

func TestFreeUnlimited(t *testing.T) {
	s := NewSpace(Config{})
	if s.Free() <= 1<<40 {
		t.Error("unlimited space should report huge free budget")
	}
}

func TestConfigDefaults(t *testing.T) {
	s := NewSpace(Config{})
	cfg := s.Config()
	if cfg.IMax != DefaultIMax || cfg.P != DefaultP || cfg.K != DefaultK {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.NewStructure == nil || cfg.Rand == nil {
		t.Error("factory/rand defaults missing")
	}
}

// TestSpaceLimitNeverExceededByScans drives many select+index rounds
// across three buffers and asserts the budget invariant the paper's §IV
// promises: scans never push usage past the limit.
func TestSpaceLimitNeverExceededByScans(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	const limit = 50
	s := NewSpace(Config{IMax: 4, P: 2, SpaceLimit: limit, Rand: rng})
	counters := func() []int {
		u := make([]int, 20)
		for i := range u {
			u[i] = 1 + rng.Intn(5)
		}
		return u
	}
	var bufs []*IndexBuffer
	for _, n := range []string{"a", "b", "c"} {
		b, err := s.CreateBuffer("t."+n, counters())
		if err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, b)
	}
	for round := 0; round < 300; round++ {
		b := bufs[rng.Intn(len(bufs))]
		s.OnQuery(b, rng.Intn(4) == 0)
		pages := s.SelectPagesForBuffer(b, 20)
		indexPages(t, b, pages)
		if s.Used() > limit {
			t.Fatalf("round %d: used %d exceeds limit %d", round, s.Used(), limit)
		}
		total := 0
		for _, bb := range bufs {
			total += bb.EntryCount()
		}
		if total != s.Used() {
			t.Fatalf("round %d: accounting drift: buffers hold %d, space says %d", round, total, s.Used())
		}
	}
	if s.Stats().PagesSelected == 0 {
		t.Error("no pages were ever selected")
	}
}

// TestMaintenanceOverflowAndRecovery covers §IV's caveat: only scans
// displace, so maintenance inserts can push usage past the limit (Free
// goes negative); the next scan's selection then indexes nothing until
// victims or deletes free space.
func TestMaintenanceOverflowAndRecovery(t *testing.T) {
	s := NewSpace(Config{IMax: 10, P: 2, SpaceLimit: 4})
	b, _ := s.CreateBuffer("t.a", []int{2, 2, 3})
	indexPages(t, b, s.SelectPagesForBuffer(b, 3)) // fills 4 of 4 (pages 0,1)
	if s.Free() != 0 {
		t.Fatalf("free = %d", s.Free())
	}
	// Maintenance inserts on buffered pages exceed the budget.
	b.MaintainInsert(iv(1000), rid(0, 9), false)
	b.MaintainInsert(iv(1001), rid(1, 9), false)
	if s.Free() != -2 {
		t.Fatalf("free after overflow = %d, want -2", s.Free())
	}
	// Selection cannot index anything (no victims: single buffer).
	if got := s.SelectPagesForBuffer(b, 3); len(got) != 0 {
		t.Errorf("selected %v with negative free budget", got)
	}
	// Deletes bring the budget back; selection resumes.
	b.MaintainDelete(iv(1000), rid(0, 9), false)
	b.MaintainDelete(iv(1001), rid(1, 9), false)
	// Free 0: page 2 (C=3) still cannot fit, correctly.
	if got := s.SelectPagesForBuffer(b, 3); len(got) != 0 {
		t.Errorf("selected %v with zero free budget", got)
	}
	// Drop a partition: 4 entries free; page 2 (3 entries) fits now.
	b.dropPartition(b.Partitions()[0])
	got := s.SelectPagesForBuffer(b, 3)
	if len(got) == 0 {
		t.Error("selection did not resume after space freed")
	}
}
