package adapt

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/storage"
)

func iv(v int64) storage.Value { return storage.Int64Value(v) }

// intTable builds a single-int-column table with rows keys uniform in
// [1, domain] and a partial index covering [1, covHi].
func intTable(t *testing.T, rows int, domain, covHi int64) *engine.Table {
	t.Helper()
	eng := engine.New(engine.Config{Space: core.Config{IMax: 5000, P: 1000}})
	schema := storage.MustSchema(
		storage.Column{Name: "k", Kind: storage.KindInt64},
		storage.Column{Name: "pad", Kind: storage.KindString},
	)
	tb, err := eng.CreateTable("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	pad := strings.Repeat("a", 300)
	for i := 0; i < rows; i++ {
		tu := storage.NewTuple(iv(1+rng.Int63n(domain)), storage.StringValue(pad))
		if _, err := tb.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.CreatePartialIndex(0, index.IntRange(1, covHi)); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestNewRequiresIndex(t *testing.T) {
	eng := engine.New(engine.Config{})
	schema := storage.MustSchema(storage.Column{Name: "k", Kind: storage.KindInt64})
	tb, err := eng.CreateTable("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(tb, 0, Policy{}); err == nil {
		t.Error("controller without an index should fail")
	}
}

func TestPolicyDefaults(t *testing.T) {
	want := Policy{Window: 64, MissRate: 0.7, MinGap: 64, BucketWidth: 1000, TopK: 4}
	if got := (Policy{}).withDefaults(); got != want {
		t.Errorf("zero policy = %+v, want %+v", got, want)
	}
	if got := (Policy{Window: 10}).withDefaults().MinGap; got != 10 {
		t.Errorf("MinGap defaults to %d, want the window 10", got)
	}
}

// observe feeds one outcome to c and fails t on error.
func observe(t *testing.T, c *Controller, key int64, hit bool) bool {
	t.Helper()
	adapted, err := c.Observe(iv(key), hit)
	if err != nil {
		t.Fatal(err)
	}
	return adapted
}

// TestTripsAtMissRate: the controller waits for a full window and
// redefines the index on the first query whose window reaches the miss
// rate, not before.
func TestTripsAtMissRate(t *testing.T) {
	tb := intTable(t, 200, 10000, 1000)
	c, err := New(tb, 0, Policy{Window: 10, MissRate: 0.5, BucketWidth: 1000, TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 10; q++ { // 6 hits, then 4 misses: 0.4 < 0.5
		if observe(t, c, 5000, q < 6) {
			t.Fatalf("adapted at query %d with at most 4 misses in the window", q)
		}
	}
	if !observe(t, c, 5000, false) { // the first hit leaves: 5 of 10
		t.Fatal("did not adapt when the window reached the miss rate")
	}
	if !tb.Index(0).Covers(iv(5500)) || tb.Index(0).Covers(iv(500)) {
		t.Errorf("coverage %s, want the missed bucket [5000, 5999]", tb.Index(0).Coverage())
	}
}

// TestWindowForgetsOldMisses: misses that left the window no longer
// count toward the miss rate.
func TestWindowForgetsOldMisses(t *testing.T) {
	tb := intTable(t, 200, 10000, 1000)
	c, err := New(tb, 0, Policy{Window: 10, MissRate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	pattern := []bool{false, false, false, false, true, true, true, true, true, true}
	for round := 0; round < 5; round++ {
		for q, hit := range pattern {
			if observe(t, c, 5000, hit) {
				t.Fatalf("round %d query %d: adapted with 4 misses in any window of 10", round, q)
			}
		}
	}
	if st := c.Stats(); st.Misses != 20 || st.Adaptations != 0 {
		t.Errorf("stats = %+v, want 20 misses and no adaptation", st)
	}
}

// TestTopKBoundsCoverage: the redefined index covers only the TopK
// most-missed buckets of the window.
func TestTopKBoundsCoverage(t *testing.T) {
	tb := intTable(t, 200, 10000, 1000)
	c, err := New(tb, 0, Policy{Window: 12, MissRate: 1, BucketWidth: 1, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Keys 1, 2 and 3 are missed once each; 4, 5 and 6 two, three and
	// four times.
	keys := []int64{1, 2, 3, 4, 4, 5, 5, 5, 6, 6, 6, 6}
	for q, k := range keys {
		if adapted := observe(t, c, k, false); adapted != (q == len(keys)-1) {
			t.Fatalf("query %d: adapted = %v", q, adapted)
		}
	}
	cov := tb.Index(0).Coverage()
	for k := int64(0); k <= 8; k++ {
		if want := k >= 4 && k <= 6; cov.Covers(iv(k)) != want {
			t.Errorf("coverage %s covers %d: %v, want %v", cov, k, !want, want)
		}
	}
}

func TestNoAdaptationWhileHitting(t *testing.T) {
	tb := intTable(t, 3000, 10000, 2000)
	c, err := New(tb, 0, Policy{Window: 30, MissRate: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for q := 0; q < 100; q++ {
		_, _, adapted, err := c.Query(iv(1 + rng.Int63n(2000))) // always covered
		if err != nil {
			t.Fatal(err)
		}
		if adapted {
			t.Fatal("adapted under an all-hit workload")
		}
	}
	if c.Stats().Adaptations != 0 || c.Stats().Misses != 0 {
		t.Errorf("stats = %+v", c.Stats())
	}
}

func TestAdaptsToShiftedHotRange(t *testing.T) {
	tb := intTable(t, 3000, 10000, 2000)
	c, err := New(tb, 0, Policy{Window: 30, MissRate: 0.7, BucketWidth: 500, TopK: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	// The workload shifts entirely to [7000, 7999] — uncovered.
	adaptedAt := -1
	for q := 0; q < 120; q++ {
		_, _, adapted, err := c.Query(iv(7000 + rng.Int63n(1000)))
		if err != nil {
			t.Fatal(err)
		}
		if adapted && adaptedAt == -1 {
			adaptedAt = q
		}
	}
	if adaptedAt == -1 {
		t.Fatal("controller never adapted")
	}
	// The control loop delay: adaptation needs a full window of misses.
	if adaptedAt < 29 {
		t.Errorf("adapted at query %d, before the window filled", adaptedAt)
	}
	if c.Stats().Adaptations != 1 {
		t.Errorf("adaptations = %d, want exactly 1 (hysteresis)", c.Stats().Adaptations)
	}
	// The new coverage serves the hot range.
	ix := tb.Index(0)
	if !ix.Covers(iv(7500)) {
		t.Errorf("adapted coverage %s does not cover the hot range", ix.Coverage())
	}
	_, stats, err := tb.QueryEqual(0, iv(7123))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.PartialHit {
		t.Error("post-adaptation query should hit")
	}
}

func TestAdaptsToTwoHotRegions(t *testing.T) {
	tb := intTable(t, 3000, 10000, 1000)
	c, err := New(tb, 0, Policy{Window: 40, MissRate: 0.6, BucketWidth: 500, TopK: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for q := 0; q < 150; q++ {
		var key int64
		if rng.Intn(2) == 0 {
			key = 4000 + rng.Int63n(500)
		} else {
			key = 8000 + rng.Int63n(500)
		}
		if _, _, _, err := c.Query(iv(key)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().Adaptations == 0 {
		t.Fatal("never adapted")
	}
	ix := tb.Index(0)
	if !ix.Covers(iv(4100)) || !ix.Covers(iv(8100)) {
		t.Errorf("coverage %s misses a hot region", ix.Coverage())
	}
	// The cold gap between the regions stays uncovered (partial!).
	if ix.Covers(iv(6000)) {
		t.Errorf("coverage %s covers the cold gap", ix.Coverage())
	}
}

func TestAdaptsStringColumnToSetCoverage(t *testing.T) {
	eng := engine.New(engine.Config{Space: core.Config{IMax: 5000, P: 1000}})
	schema := storage.MustSchema(
		storage.Column{Name: "airport", Kind: storage.KindString},
		storage.Column{Name: "pad", Kind: storage.KindString},
	)
	tb, err := eng.CreateTable("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	airports := []string{"ORD", "JFK", "FRA", "MUC", "HEL"}
	pad := strings.Repeat("b", 200)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1500; i++ {
		tu := storage.NewTuple(
			storage.StringValue(airports[rng.Intn(len(airports))]),
			storage.StringValue(pad),
		)
		if _, err := tb.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.CreatePartialIndex(0, index.NewSetCoverage(
		storage.StringValue("ORD"), storage.StringValue("JFK"))); err != nil {
		t.Fatal(err)
	}
	c, err := New(tb, 0, Policy{Window: 20, MissRate: 0.7, TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	// German reports take over.
	for q := 0; q < 60; q++ {
		key := "FRA"
		if q%2 == 1 {
			key = "MUC"
		}
		if _, _, _, err := c.Query(storage.StringValue(key)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().Adaptations == 0 {
		t.Fatal("never adapted")
	}
	ix := tb.Index(0)
	if !ix.Covers(storage.StringValue("FRA")) || !ix.Covers(storage.StringValue("MUC")) {
		t.Errorf("coverage %s misses the hot airports", ix.Coverage())
	}
}

func TestHysteresisPreventsThrash(t *testing.T) {
	tb := intTable(t, 2000, 10000, 1000)
	c, err := New(tb, 0, Policy{Window: 20, MissRate: 0.5, MinGap: 100, BucketWidth: 1000, TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	// Alternate between two uncovered ranges every query — a pathological
	// oscillation. MinGap must bound the adaptations.
	for q := 0; q < 200; q++ {
		key := int64(5000)
		if q%2 == 1 {
			key = 9000
		}
		if _, _, _, err := c.Query(iv(key + rng.Int63n(500))); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Stats().Adaptations; got > 2 {
		t.Errorf("adaptations = %d, hysteresis should keep it <= 2", got)
	}
}

// TestBufferBridgesControllerGap is the end-to-end story: with the Index
// Buffer on, the expensive window between shift and adaptation is cheap.
func TestBufferBridgesControllerGap(t *testing.T) {
	tb := intTable(t, 3000, 10000, 2000)
	c, err := New(tb, 0, Policy{Window: 40, MissRate: 0.8, BucketWidth: 500})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var gapCosts []int
	adapted := false
	for q := 0; q < 120 && !adapted; q++ {
		_, stats, a, err := c.Query(iv(7000 + rng.Int63n(1000)))
		if err != nil {
			t.Fatal(err)
		}
		adapted = a
		if q >= 2 && !a {
			gapCosts = append(gapCosts, stats.PagesRead)
		}
	}
	if !adapted {
		t.Fatal("never adapted")
	}
	// From the third query on, the buffer has the hot pages indexed:
	// mean gap cost must be far below a full scan.
	total := 0
	for _, c := range gapCosts {
		total += c
	}
	mean := float64(total) / float64(len(gapCosts))
	if mean > float64(tb.NumPages())/4 {
		t.Errorf("gap cost %.1f pages/query of %d-page table; buffer did not bridge", mean, tb.NumPages())
	}
}

// TestControlLoopDelayShape is Fig. 1's hit-rate shape on the
// controller: high while the workload stays in the covered range, a
// collapse right after it shifts out, and recovery once the control loop
// has redefined the index.
func TestControlLoopDelayShape(t *testing.T) {
	tb := intTable(t, 3000, 10000, 2000)
	c, err := New(tb, 0, Policy{Window: 30, MissRate: 0.7, BucketWidth: 1000})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	hitRate := func(from, to int64, n int) float64 {
		hits := 0
		for i := 0; i < n; i++ {
			_, stats, _, err := c.Query(iv(from + rng.Int63n(to-from+1)))
			if err != nil {
				t.Fatal(err)
			}
			if stats.PartialHit {
				hits++
			}
		}
		return float64(hits) / float64(n)
	}

	warm := hitRate(1, 2000, 100) // phase 1: the covered range
	if warm < 0.5 {
		t.Errorf("steady-state hit rate = %.2f, want > 0.5", warm)
	}
	early := hitRate(5000, 6999, 20) // right after the shift
	if early > 0.3 {
		t.Errorf("post-shift hit rate = %.2f, want collapse below 0.3", early)
	}
	late := hitRate(5000, 6999, 200) // after adaptation
	if late < 0.5 {
		t.Errorf("recovered hit rate = %.2f, want > 0.5", late)
	}
	if late <= early {
		t.Error("hit rate did not recover after adaptation")
	}
	if got := c.Stats().Adaptations; got != 1 {
		t.Errorf("adaptations = %d, want exactly 1", got)
	}
}
