package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// TestSelectRandomFacadeSmoke drives a few misses through a database
// whose Space runs the stochastic arms (random page order, displacement
// jitter): queries must work and the Index Buffer must still build (the
// policy changes page order, not correctness).
func TestSelectRandomFacadeSmoke(t *testing.T) {
	db := openTuned(t, Options{Seed: 7, IMax: 4}, false, func(c *engine.Config) {
		c.Space.Selection = core.RandomOrder
		c.Space.DisplacementJitter = 0.5
	})
	defer db.Close()
	tb, err := db.CreateTable("t", Int64Column("k"), StringColumn("v"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if _, err := tb.Insert(int64(i%100), "x"); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.CreatePartialRangeIndex("k", 0, 9); err != nil {
		t.Fatal(err)
	}
	for k := 10; k < 20; k++ {
		rows, _, err := tb.Query("k", int64(k))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4 {
			t.Fatalf("key %d returned %d rows, want 4", k, len(rows))
		}
	}
	stats := db.BufferStats()
	if len(stats) != 1 || stats[0].Entries == 0 {
		t.Fatalf("index buffer did not build under RandomOrder: %+v", stats)
	}
}
