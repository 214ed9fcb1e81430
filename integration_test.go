package repro

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/storage"
)

// TestFullSystemScenario is the capstone integration test: one database
// driven through every public feature — bulk load, partial indexes on
// several columns, equality and range queries under DML, EXPLAIN
// consistency, displacement under a bounded space, vacuum, auto-tuning,
// and persistence — with results checked against a naive in-memory model
// throughout.
func TestFullSystemScenario(t *testing.T) {
	dir := t.TempDir()
	db := MustOpen(Options{
		DataDir:        dir,
		SpaceLimit:     6000,
		IMax:           60,
		PartitionPages: 100,
		Seed:           11,
	})
	events, err := db.CreateTable("events",
		Int64Column("kind"),
		Int64Column("region"),
		StringColumn("payload"),
	)
	if err != nil {
		t.Fatal(err)
	}

	// The model mirrors every live row.
	type row struct {
		kind, region int64
		payload      string
	}
	model := map[RID]row{}
	rng := rand.New(rand.NewSource(99))
	pad := strings.Repeat("e", 220)
	newRow := func() row {
		return row{
			kind:    1 + rng.Int63n(400),
			region:  1 + rng.Int63n(50),
			payload: fmt.Sprintf("%d-%s", rng.Int63(), pad),
		}
	}
	insert := func() RID {
		r := newRow()
		rid, err := events.Insert(r.kind, r.region, r.payload)
		if err != nil {
			t.Fatal(err)
		}
		model[rid] = r
		return rid
	}
	for i := 0; i < 3000; i++ {
		insert()
	}

	if err := events.CreatePartialRangeIndex("kind", 1, 40); err != nil {
		t.Fatal(err)
	}
	if err := events.CreatePartialRangeIndex("region", 1, 5); err != nil {
		t.Fatal(err)
	}

	checkEqual := func(col string, key int64) {
		t.Helper()
		want := map[RID]bool{}
		for rid, r := range model {
			v := r.kind
			if col == "region" {
				v = r.region
			}
			if v == key {
				want[rid] = true
			}
		}
		got, stats, err := events.Query(col, key)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s=%d: %d rows, want %d", col, key, len(got), len(want))
		}
		for _, g := range got {
			if !want[g.RID] {
				t.Fatalf("%s=%d: unexpected RID %v", col, key, g.RID)
			}
		}
		// EXPLAIN's estimate must match the actual cost on a repeat (the
		// first query may have changed buffer state).
		plan, err := events.Explain(col, key)
		if err != nil {
			t.Fatal(err)
		}
		_, stats2, err := events.Query(col, key)
		if err != nil {
			t.Fatal(err)
		}
		if plan.EstimatedPagesRead != stats2.PagesRead {
			t.Fatalf("%s=%d: plan %d pages, actual %d", col, key, plan.EstimatedPagesRead, stats2.PagesRead)
		}
		_ = stats
	}
	checkRange := func(col string, lo, hi int64) {
		t.Helper()
		want := 0
		for _, r := range model {
			v := r.kind
			if col == "region" {
				v = r.region
			}
			if v >= lo && v <= hi {
				want++
			}
		}
		got, _, err := events.QueryRange(col, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != want {
			t.Fatalf("%s in [%d,%d]: %d rows, want %d", col, lo, hi, len(got), want)
		}
	}

	// Phase 1: mixed queries and DML under the bounded space.
	var rids []RID
	for rid := range model {
		rids = append(rids, rid)
	}
	for step := 0; step < 250; step++ {
		switch rng.Intn(6) {
		case 0:
			rids = append(rids, insert())
		case 1:
			i := rng.Intn(len(rids))
			if _, ok := model[rids[i]]; !ok {
				continue
			}
			if err := events.Delete(rids[i]); err != nil {
				t.Fatal(err)
			}
			delete(model, rids[i])
		case 2:
			i := rng.Intn(len(rids))
			if _, ok := model[rids[i]]; !ok {
				continue
			}
			r := newRow()
			nr, err := events.Update(rids[i], r.kind, r.region, r.payload)
			if err != nil {
				t.Fatal(err)
			}
			delete(model, rids[i])
			model[nr] = r
			rids = append(rids, nr)
		case 3:
			checkEqual("kind", 1+rng.Int63n(400))
		case 4:
			checkEqual("region", 1+rng.Int63n(50))
		default:
			lo := 1 + rng.Int63n(400)
			checkRange("kind", lo, lo+rng.Int63n(30))
		}
	}
	if db.SpaceUsed() > 6000 {
		t.Fatalf("space used %d over the limit", db.SpaceUsed())
	}

	// Phase 2: vacuum rewrites everything; rebuild the model's RIDs from
	// payload identity (payloads are unique).
	byPayload := map[string]row{}
	for _, r := range model {
		byPayload[r.payload] = r
	}
	before, after, err := events.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	if after > before {
		t.Errorf("vacuum grew the table: %d -> %d", before, after)
	}
	model = map[RID]row{}
	rids = rids[:0]
	err = db.eng.Table("events").Scan(func(rid RID, tu storage.Tuple) error {
		r, ok := byPayload[tu.Value(2).Str()]
		if !ok {
			return fmt.Errorf("unknown payload after vacuum")
		}
		model[rid] = r
		rids = append(rids, rid)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	checkEqual("kind", 20) // covered
	checkEqual("kind", 99) // uncovered
	checkRange("kind", 35, 45)

	// Phase 3: auto-tune follows a shift on kind.
	tuner, err := events.AutoTune("kind", AutoTunePolicy{Window: 30, MissRate: 0.8, BucketWidth: 50})
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 80; q++ {
		if _, _, _, err := tuner.Query(int64(300 + rng.Int63n(50))); err != nil {
			t.Fatal(err)
		}
	}
	if tuner.Adaptations() == 0 {
		t.Error("auto-tuner never adapted")
	}
	checkEqual("kind", 320)

	// Phase 4: persistence round trip preserves everything durable.
	wantCount := len(model)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenExisting(Options{DataDir: dir, SpaceLimit: 6000, IMax: 60, PartitionPages: 100, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	events2 := db2.Table("events")
	n, err := events2.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != wantCount {
		t.Fatalf("rows after reload = %d, want %d", n, wantCount)
	}
	// The adapted coverage persisted: the shifted range still hits.
	_, stats, err := events2.Query("kind", 320)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.PartialHit {
		t.Error("adapted coverage did not persist")
	}
	// Buffers restart empty and rebuild.
	if db2.SpaceUsed() != 0 {
		t.Errorf("buffers persisted: %d entries", db2.SpaceUsed())
	}
	if _, _, err := events2.Query("kind", 200); err != nil {
		t.Fatal(err)
	}
	_, s2, err := events2.Query("kind", 201)
	if err != nil {
		t.Fatal(err)
	}
	if s2.PagesSkipped == 0 {
		t.Error("buffer did not rebuild after reload")
	}
	// Tracing recorded the post-reload activity.
	if !strings.Contains(db2.TraceReport(), "events.kind") {
		t.Errorf("trace report = %q", db2.TraceReport())
	}
}
