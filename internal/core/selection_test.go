package core

import (
	"math/rand"
	"testing"

	"repro/internal/storage"
)

func TestSelectionOrderString(t *testing.T) {
	cases := map[SelectionOrder]string{
		AscendingCounter:   "ascending",
		DescendingCounter:  "descending",
		RandomOrder:        "random",
		SelectionOrder(99): "unknown",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestSelectionOrderPolicies(t *testing.T) {
	counters := []int{5, 1, 4, 2, 3}

	pick := func(sel SelectionOrder, imax int) []storage.PageID {
		s := NewSpace(Config{IMax: imax, P: 10, Selection: sel, Rand: rand.New(rand.NewSource(3))})
		b, err := s.CreateBuffer("t.a", counters)
		if err != nil {
			t.Fatal(err)
		}
		return s.SelectPagesForBuffer(b, len(counters))
	}

	// Ascending picks the two cheapest pages (C=1 and C=2).
	got := pick(AscendingCounter, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("ascending selected %v, want [1 3]", got)
	}
	// Descending picks the two most expensive (C=5 and C=4).
	got = pick(DescendingCounter, 2)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("descending selected %v, want [0 2]", got)
	}
	// Random selects the requested count from the candidate set.
	got = pick(RandomOrder, 3)
	if len(got) != 3 {
		t.Errorf("random selected %d pages, want 3", len(got))
	}
	seen := map[storage.PageID]bool{}
	for _, p := range got {
		if seen[p] {
			t.Errorf("random selected page %d twice", p)
		}
		seen[p] = true
	}
}

// TestSelectionAscendingMaximizesSkipsPerEntry checks the paper's §III
// argument quantitatively: with a budget of entries, ascending-counter
// selection buys more skippable pages than descending.
func TestSelectionAscendingMaximizesSkipsPerEntry(t *testing.T) {
	counters := make([]int, 100)
	for i := range counters {
		counters[i] = 1 + i%10 // counters 1..10
	}
	run := func(sel SelectionOrder) int {
		s := NewSpace(Config{IMax: 1000, P: 50, SpaceLimit: 60, Selection: sel, Rand: rand.New(rand.NewSource(4))})
		b, err := s.CreateBuffer("t.a", counters)
		if err != nil {
			t.Fatal(err)
		}
		pages := s.SelectPagesForBuffer(b, len(counters))
		return len(pages)
	}
	asc, desc := run(AscendingCounter), run(DescendingCounter)
	if asc <= desc {
		t.Errorf("ascending bought %d pages, descending %d; paper's policy should win", asc, desc)
	}
}

// TestVictimPolicyProtectsHotBuffer compares the paper's benefit-weighted
// victim choice against uniform random: under repeated displacement
// pressure from a third buffer, the hot (frequently used) buffer should
// retain more of its entries under the paper's policy.
func TestVictimPolicyProtectsHotBuffer(t *testing.T) {
	run := func(policy VictimPolicy, seed int64) (hotLost, coldLost int) {
		// I^MAX < P keeps displacement marginal (one scan's new info
		// cannot outbid arbitrarily many partitions), so the victim
		// choice, not wholesale eviction, decides who shrinks.
		s := NewSpace(Config{
			IMax: 4, P: 2, K: 2, SpaceLimit: 40,
			Victims: policy, Rand: rand.New(rand.NewSource(seed)),
		})
		mk := func(name string) *IndexBuffer {
			counters := make([]int, 20)
			for i := range counters {
				counters[i] = 2
			}
			b, err := s.CreateBuffer(name, counters)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		hot, cold, grower := mk("hot"), mk("cold"), mk("grower")
		fill := func(b *IndexBuffer, pages int) {
			sel := s.SelectPagesForBuffer(b, pages)
			for _, pg := range sel {
				_ = b.ApplyPage(pg, synthEntries(pg, b.Counter(pg), func(k int) int64 { return int64(pg)*10 + int64(k) }))
			}
		}
		fill(hot, 10)
		fill(cold, 10)
		hotBefore, coldBefore := hot.EntryCount(), cold.EntryCount()
		// hot stays hot (used every other query); cold never queried; the
		// grower displaces a little every round.
		for i := 0; i < 12; i++ {
			s.OnQuery(hot, false)
			s.OnQuery(grower, false)
			fill(grower, 20)
		}
		return hotBefore - hot.EntryCount(), coldBefore - cold.EntryCount()
	}

	weightedHotLost, weightedColdLost := 0, 0
	uniformHotLost := 0
	for seed := int64(0); seed < 10; seed++ {
		h, c := run(BenefitWeighted, seed)
		weightedHotLost += h
		weightedColdLost += c
		h, _ = run(UniformVictims, seed)
		uniformHotLost += h
	}
	if weightedHotLost > weightedColdLost {
		t.Errorf("benefit-weighted: hot lost %d > cold lost %d", weightedHotLost, weightedColdLost)
	}
	if weightedHotLost >= uniformHotLost {
		t.Errorf("hot buffer lost %d entries under benefit-weighting vs %d under uniform; the paper's policy should protect it",
			weightedHotLost, uniformHotLost)
	}
}

// TestSelectionSeedDeterminism pins the seeding convention for the
// Space's random streams: a Config with only a Seed (nil Rand) must
// replay bit-for-bit, and different seeds must be able to differ.
func TestSelectionSeedDeterminism(t *testing.T) {
	counters := make([]int, 64)
	for i := range counters {
		counters[i] = 1 + i%7
	}
	run := func(seed int64) [][]storage.PageID {
		s := NewSpace(Config{IMax: 8, P: 16, Seed: seed, Selection: RandomOrder})
		b, err := s.CreateBuffer("t.a", counters)
		if err != nil {
			t.Fatal(err)
		}
		var rounds [][]storage.PageID
		for i := 0; i < 5; i++ {
			sel := s.SelectPagesForBuffer(b, len(counters))
			rounds = append(rounds, sel)
			for _, pg := range sel {
				_ = b.ApplyPage(pg, synthEntries(pg, b.Counter(pg), func(int) int64 { return int64(pg) }))
			}
		}
		return rounds
	}
	a, b := run(42), run(42)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("round %d: %d vs %d pages for the same seed", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("round %d: same seed diverged: %v vs %v", i, a[i], b[i])
			}
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if len(a[i]) != len(c[i]) {
			same = false
			break
		}
		for j := range a[i] {
			if a[i][j] != c[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical random selections across 5 rounds")
	}
}

// TestSelectionStreamIndependence checks that the RandomOrder shuffle
// consumes a derived sub-stream, not the victim-selection stream: the
// displacement outcome (which buffer lost how many entries) must be
// identical whether the target's candidate order is ascending or
// shuffled, for a setup where every candidate is selected either way.
func TestSelectionStreamIndependence(t *testing.T) {
	run := func(sel SelectionOrder) (victimEntries int, stats SpaceStats) {
		// Two decoy buffers filled to the budget; the target's scan must
		// displace. IMax covers all 6 candidate pages, so ascending vs
		// shuffled order selects the same set and needs the same space —
		// only the victim-stream draws decide who loses.
		s := NewSpace(Config{IMax: 10, P: 2, SpaceLimit: 12, Seed: 9, Selection: sel})
		mk := func(name string) *IndexBuffer {
			b, err := s.CreateBuffer(name, []int{1, 1, 1, 1, 1, 1})
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		d1, d2, target := mk("t.d1"), mk("t.d2"), mk("t.t")
		fill := func(b *IndexBuffer) {
			for _, pg := range s.SelectPagesForBuffer(b, 6) {
				_ = b.ApplyPage(pg, synthEntries(pg, 1, func(int) int64 { return int64(pg) }))
			}
		}
		fill(d1)
		fill(d2)
		s.OnQuery(target, false) // target hot: displacement accepted
		fill(target)
		return d1.EntryCount() + 10*d2.EntryCount(), s.Stats()
	}
	ascEntries, ascStats := run(AscendingCounter)
	rndEntries, rndStats := run(RandomOrder)
	if ascEntries != rndEntries {
		t.Errorf("victim outcome differs across selection policies: ascending %d vs random %d (shuffle perturbed the victim stream)",
			ascEntries, rndEntries)
	}
	if ascStats != rndStats {
		t.Errorf("space stats differ: %+v vs %+v", ascStats, rndStats)
	}
}

// TestDisplacementJitterDeterminismAndEffect drives repeated
// displacement against one buffer and checks (a) jittered victim picks
// replay bit-for-bit for a fixed seed, and (b) jitter actually changes
// victim choices relative to the deterministic stage-2 order.
func TestDisplacementJitterDeterminismAndEffect(t *testing.T) {
	run := func(jitter float64, seed int64) []int {
		// Asymmetric counters so partitions hold distinct entry totals —
		// the occupancy trajectory then fingerprints which partition each
		// displacement dropped.
		s := NewSpace(Config{IMax: 2, P: 2, SpaceLimit: 30, Seed: seed, DisplacementJitter: jitter})
		counters := []int{1, 2, 3, 4, 5, 1, 2, 3, 4, 5}
		victim, err := s.CreateBuffer("t.v", counters)
		if err != nil {
			t.Fatal(err)
		}
		grower, err := s.CreateBuffer("t.g", counters)
		if err != nil {
			t.Fatal(err)
		}
		fill := func(b *IndexBuffer) {
			for _, pg := range s.SelectPagesForBuffer(b, len(counters)) {
				_ = b.ApplyPage(pg, synthEntries(pg, b.Counter(pg), func(int) int64 { return int64(pg) }))
			}
		}
		// Build the victim to the budget (5 rounds of 2 pages).
		for i := 0; i < 5; i++ {
			fill(victim)
		}
		// The grower repeatedly displaces; record the victim's occupancy
		// trajectory, which fingerprints the partition choices.
		var traj []int
		for i := 0; i < 6; i++ {
			s.OnQuery(grower, false)
			fill(grower)
			traj = append(traj, victim.EntryCount()+100*grower.EntryCount())
		}
		return traj
	}
	j1, j2 := run(1, 5), run(1, 5)
	for i := range j1 {
		if j1[i] != j2[i] {
			t.Fatalf("jittered run diverged for the same seed: %v vs %v", j1, j2)
		}
	}
	det := run(0, 5)
	differs := false
	for seed := int64(5); seed < 10 && !differs; seed++ {
		jit := run(1, seed)
		for i := range det {
			if jit[i] != det[i] {
				differs = true
				break
			}
		}
	}
	if !differs {
		t.Error("DisplacementJitter=1 never changed a victim choice across 5 seeds")
	}
}

func TestVictimPolicyString(t *testing.T) {
	if BenefitWeighted.String() != "benefit-weighted" || UniformVictims.String() != "uniform" {
		t.Error("VictimPolicy names wrong")
	}
	if VictimPolicy(9).String() != "unknown" {
		t.Error("unknown policy name wrong")
	}
}
