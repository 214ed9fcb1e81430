package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/storage"
)

// TestSelectPagesProperties checks Algorithm 2's invariants over random
// configurations with testing/quick:
//
//  1. selected pages are distinct, within range, and have C[p] > 0;
//  2. |I| <= I^MAX;
//  3. the entries the selection will add fit the space freed by the
//     displacement plus the previous free budget;
//  4. the selection is returned in ascending page order.
func TestSelectPagesProperties(t *testing.T) {
	type cfg struct {
		Counters []uint8
		IMax     uint8
		P        uint8
		Limit    uint16
		Seed     int64
	}
	f := func(c cfg) bool {
		if len(c.Counters) == 0 {
			return true
		}
		counters := make([]int, len(c.Counters))
		for i, v := range c.Counters {
			counters[i] = int(v % 16)
		}
		imax := int(c.IMax%32) + 1
		p := int(c.P%8) + 1
		limit := int(c.Limit % 2000)

		s := NewSpace(Config{
			IMax: imax, P: p, SpaceLimit: limit,
			Seed: c.Seed,
		})
		b, err := s.CreateBuffer("t.x", counters)
		if err != nil {
			return false
		}
		freeBefore := s.Free()
		got := s.SelectPagesForBuffer(b, len(counters))

		if len(got) > imax {
			t.Logf("selected %d > IMax %d", len(got), imax)
			return false
		}
		entries := 0
		seen := map[storage.PageID]bool{}
		for i, pg := range got {
			if int(pg) >= len(counters) {
				t.Logf("page %d out of range", pg)
				return false
			}
			if seen[pg] {
				t.Logf("page %d selected twice", pg)
				return false
			}
			seen[pg] = true
			if b.Counter(pg) <= 0 {
				t.Logf("page %d has counter %d", pg, b.Counter(pg))
				return false
			}
			if i > 0 && got[i-1] >= pg {
				t.Logf("selection not ascending: %v", got)
				return false
			}
			entries += b.Counter(pg)
		}
		// A single buffer never displaces itself, so the budget is the
		// pre-call free space.
		if entries > freeBefore {
			t.Logf("selection of %d entries exceeds free %d", entries, freeBefore)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestMultiBufferSelectionBudgetProperty drives several buffers with
// random select+index rounds and checks the global budget invariant the
// paper's §IV promises: indexing scans never push the space past L, and
// accounting never drifts.
func TestMultiBufferSelectionBudgetProperty(t *testing.T) {
	f := func(seed int64, rounds uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		limit := 100 + rng.Intn(400)
		s := NewSpace(Config{
			IMax: 1 + rng.Intn(10), P: 1 + rng.Intn(4),
			SpaceLimit: limit, K: 1 + rng.Intn(4),
			Seed: seed + 1,
		})
		var bufs []*IndexBuffer
		for i := 0; i < 3; i++ {
			counters := make([]int, 30)
			for j := range counters {
				counters[j] = rng.Intn(8)
			}
			b, err := s.CreateBuffer(string(rune('a'+i)), counters)
			if err != nil {
				return false
			}
			bufs = append(bufs, b)
		}
		for r := 0; r < int(rounds%64)+10; r++ {
			b := bufs[rng.Intn(len(bufs))]
			s.OnQuery(b, rng.Intn(3) == 0)
			pages := s.SelectPagesForBuffer(b, 30)
			for _, pg := range pages {
				es := synthEntries(pg, b.Counter(pg), func(int) int64 { return rng.Int63n(50) })
				if err := b.ApplyPage(pg, es); err != nil {
					t.Logf("ApplyPage: %v", err)
					return false
				}
			}
			if s.Used() > limit {
				t.Logf("used %d > limit %d", s.Used(), limit)
				return false
			}
			total := 0
			for _, bb := range bufs {
				total += bb.EntryCount()
			}
			if total != s.Used() {
				t.Logf("drift: %d vs %d", total, s.Used())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
