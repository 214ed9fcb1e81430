package engine

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/storage"
)

func iv(v int64) storage.Value { return storage.Int64Value(v) }

// newABC builds the paper's evaluation schema: three integer columns and
// a payload, with rows rows of deterministic pseudo-random content and
// values in [1, domain].
func newABC(t *testing.T, cfg Config, rows, domain int) (*Engine, *Table) {
	t.Helper()
	e := New(cfg)
	schema := storage.MustSchema(
		storage.Column{Name: "a", Kind: storage.KindInt64},
		storage.Column{Name: "b", Kind: storage.KindInt64},
		storage.Column{Name: "c", Kind: storage.KindInt64},
		storage.Column{Name: "payload", Kind: storage.KindString},
	)
	tb, err := e.CreateTable("flights", schema)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < rows; i++ {
		tu := storage.NewTuple(
			iv(1+rng.Int63n(int64(domain))),
			iv(1+rng.Int63n(int64(domain))),
			iv(1+rng.Int63n(int64(domain))),
			storage.StringValue(strings.Repeat("x", 1+rng.Intn(256))),
		)
		if _, err := tb.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	return e, tb
}

func TestCreateTableDuplicate(t *testing.T) {
	e := New(Config{})
	s := storage.MustSchema(storage.Column{Name: "a", Kind: storage.KindInt64})
	if _, err := e.CreateTable("t", s); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateTable("t", s); err == nil {
		t.Error("duplicate table should fail")
	}
	if e.Table("t") == nil || e.Table("missing") != nil {
		t.Error("Table lookup wrong")
	}
}

func TestCreatePartialIndexInitializesCounters(t *testing.T) {
	_, tb := newABC(t, Config{}, 500, 100)
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 50)); err != nil {
		t.Fatal(err)
	}
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 50)); err == nil {
		t.Error("duplicate index should fail")
	}
	if err := tb.CreatePartialIndex(99, index.IntRange(1, 50)); err == nil {
		t.Error("bad column should fail")
	}
	b := tb.Buffer(0)
	if b == nil {
		t.Fatal("no index buffer created")
	}
	// Verify counters: uncovered live tuples per page.
	want := make([]int, tb.NumPages())
	total := 0
	_ = tb.Scan(func(rid storage.RID, tu storage.Tuple) error {
		if tu.Value(0).Int64() > 50 {
			want[rid.Page]++
			total++
		}
		return nil
	})
	for p := range want {
		if got := b.Counter(storage.PageID(p)); got != want[p] {
			t.Errorf("C[%d] = %d, want %d", p, got, want[p])
		}
	}
	if total == 0 {
		t.Fatal("test setup produced no uncovered tuples")
	}
	// Index contents: exactly the covered tuples.
	ix := tb.Index(0)
	covered := 0
	_ = tb.Scan(func(rid storage.RID, tu storage.Tuple) error {
		if tu.Value(0).Int64() <= 50 {
			covered++
			if !ix.Contains(tu.Value(0), rid) {
				t.Errorf("covered tuple %v missing from index", rid)
			}
		}
		return nil
	})
	if ix.EntryCount() != covered {
		t.Errorf("index entries = %d, want %d", ix.EntryCount(), covered)
	}
}

func TestQueryHitUsesIndex(t *testing.T) {
	_, tb := newABC(t, Config{}, 1000, 100)
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 50)); err != nil {
		t.Fatal(err)
	}
	matches, stats, err := tb.QueryEqual(0, iv(25))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.PartialHit {
		t.Error("covered query should hit the partial index")
	}
	if stats.PagesRead >= tb.NumPages()/2 {
		t.Errorf("index hit read %d of %d pages", stats.PagesRead, tb.NumPages())
	}
	for _, m := range matches {
		if m.Tuple.Value(0).Int64() != 25 {
			t.Errorf("wrong tuple in result: %v", m.Tuple)
		}
	}
}

func TestQueryMissBuildsBufferAndSpeedsUp(t *testing.T) {
	_, tb := newABC(t, Config{Space: core.Config{IMax: 100000, P: 1000}}, 2000, 100)
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 10)); err != nil {
		t.Fatal(err)
	}
	numPages := tb.NumPages()

	_, s1, err := tb.QueryEqual(0, iv(90))
	if err != nil {
		t.Fatal(err)
	}
	if s1.PartialHit || s1.FullScan {
		t.Errorf("miss with buffer: hit=%v fullscan=%v", s1.PartialHit, s1.FullScan)
	}
	if s1.PagesRead < numPages {
		t.Errorf("first miss read %d pages, want full %d", s1.PagesRead, numPages)
	}
	if s1.EntriesAdded == 0 || s1.PagesSelected == 0 {
		t.Error("first miss did not build the buffer")
	}

	// With unlimited space and IMax >= pages, one scan fully indexes the
	// table; the second miss reads only match pages.
	_, s2, err := tb.QueryEqual(0, iv(91))
	if err != nil {
		t.Fatal(err)
	}
	if s2.PagesSkipped != numPages {
		t.Errorf("second miss skipped %d of %d pages", s2.PagesSkipped, numPages)
	}
	if s2.PagesRead >= s1.PagesRead/2 {
		t.Errorf("second miss read %d pages vs first %d; no speedup", s2.PagesRead, s1.PagesRead)
	}
	if s2.BufferMatches != s2.Matches {
		t.Errorf("all matches should come from the buffer: %d of %d", s2.BufferMatches, s2.Matches)
	}
}

func TestQueryMissWithoutBufferFullScans(t *testing.T) {
	_, tb := newABC(t, Config{DisableIndexBuffer: true}, 500, 100)
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 10)); err != nil {
		t.Fatal(err)
	}
	if tb.Buffer(0) != nil {
		t.Fatal("buffer created despite DisableIndexBuffer")
	}
	_, stats, err := tb.QueryEqual(0, iv(90))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.FullScan || stats.PagesRead != tb.NumPages() {
		t.Errorf("stats = %+v, want full scan of %d pages", stats, tb.NumPages())
	}
	// Repeat is just as expensive: nothing adapted.
	_, stats2, _ := tb.QueryEqual(0, iv(90))
	if stats2.PagesRead != stats.PagesRead {
		t.Error("baseline engine should not speed up")
	}
}

// queryGroundTruth computes matches by raw scan.
func queryGroundTruth(t *testing.T, tb *Table, column int, key storage.Value) map[storage.RID]bool {
	t.Helper()
	want := map[storage.RID]bool{}
	err := tb.Scan(func(rid storage.RID, tu storage.Tuple) error {
		if tu.Value(column).Equal(key) {
			want[rid] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func sameMatches(t *testing.T, got []exec.Match, want map[storage.RID]bool, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: got %d matches, want %d", ctx, len(got), len(want))
		return
	}
	for _, m := range got {
		if !want[m.RID] {
			t.Errorf("%s: unexpected match %v", ctx, m.RID)
		}
	}
}

// TestQueryCorrectnessUnderRandomWorkload is the central integration
// property: whatever the buffer state — partially built, displaced,
// maintained through DML — every query returns exactly the ground-truth
// matches.
func TestQueryCorrectnessUnderRandomWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cfg := Config{Space: core.Config{
		IMax: 20, P: 5, K: 2, SpaceLimit: 400,
		Seed: 2,
	}}
	_, tb := newABC(t, cfg, 1500, 60)
	for col, hi := range map[int]int64{0: 20, 1: 30, 2: 10} {
		if err := tb.CreatePartialIndex(col, index.IntRange(1, hi)); err != nil {
			t.Fatal(err)
		}
	}

	var rids []storage.RID
	_ = tb.Scan(func(rid storage.RID, _ storage.Tuple) error {
		rids = append(rids, rid)
		return nil
	})

	for step := 0; step < 400; step++ {
		switch rng.Intn(10) {
		case 0: // insert
			tu := storage.NewTuple(
				iv(1+rng.Int63n(60)), iv(1+rng.Int63n(60)), iv(1+rng.Int63n(60)),
				storage.StringValue(strings.Repeat("y", 1+rng.Intn(200))),
			)
			rid, err := tb.Insert(tu)
			if err != nil {
				t.Fatal(err)
			}
			rids = append(rids, rid)
		case 1: // delete
			if len(rids) == 0 {
				continue
			}
			i := rng.Intn(len(rids))
			if err := tb.Delete(rids[i]); err != nil {
				t.Fatal(err)
			}
			rids[i] = rids[len(rids)-1]
			rids = rids[:len(rids)-1]
		case 2: // update
			if len(rids) == 0 {
				continue
			}
			i := rng.Intn(len(rids))
			tu := storage.NewTuple(
				iv(1+rng.Int63n(60)), iv(1+rng.Int63n(60)), iv(1+rng.Int63n(60)),
				storage.StringValue(strings.Repeat("z", 1+rng.Intn(400))),
			)
			nr, err := tb.Update(rids[i], tu)
			if err != nil {
				t.Fatal(err)
			}
			rids[i] = nr
		default: // query
			col := rng.Intn(3)
			key := iv(1 + rng.Int63n(60))
			want := queryGroundTruth(t, tb, col, key)
			got, _, err := tb.QueryEqual(col, key)
			if err != nil {
				t.Fatal(err)
			}
			sameMatches(t, got, want, fmt.Sprintf("step %d col %d key %v", step, col, key))
		}
	}
}

func TestRedefineIndexResetsBuffer(t *testing.T) {
	_, tb := newABC(t, Config{Space: core.Config{IMax: 100000, P: 1000}}, 1000, 100)
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 80)); err != nil {
		t.Fatal(err)
	}
	// Build up the buffer with a miss.
	if _, _, err := tb.QueryEqual(0, iv(90)); err != nil {
		t.Fatal(err)
	}
	if tb.Buffer(0).EntryCount() == 0 {
		t.Fatal("buffer empty before redefinition")
	}

	if err := tb.RedefineIndex(0, index.IntRange(50, 100)); err != nil {
		t.Fatal(err)
	}
	b := tb.Buffer(0)
	if b.EntryCount() != 0 {
		t.Error("buffer survived redefinition")
	}
	// New coverage answers 90 from the index now.
	_, stats, err := tb.QueryEqual(0, iv(90))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.PartialHit {
		t.Error("redefined index should cover 90")
	}
	// And a miss on the new uncovered range is still correct.
	want := queryGroundTruth(t, tb, 0, iv(10))
	got, _, err := tb.QueryEqual(0, iv(10))
	if err != nil {
		t.Fatal(err)
	}
	sameMatches(t, got, want, "post-redefine miss")

	if err := tb.RedefineIndex(1, index.IntRange(1, 2)); err == nil {
		t.Error("redefining a nonexistent index should fail")
	}
}

func TestQueryEqualBadColumn(t *testing.T) {
	_, tb := newABC(t, Config{}, 10, 10)
	if _, _, err := tb.QueryEqual(99, iv(1)); err == nil {
		t.Error("bad column should fail")
	}
}

func TestEngineStatsSurfaces(t *testing.T) {
	// A 2-frame pool forces evictions, so scans hit the simulated disk.
	_, tb := newABC(t, Config{PoolPages: 2}, 200, 50)
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 10)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tb.QueryEqual(0, iv(40)); err != nil {
		t.Fatal(err)
	}
	if tb.DiskStats().Reads == 0 {
		t.Error("no device reads recorded")
	}
	if tb.PoolStats().Misses == 0 {
		t.Error("no pool misses recorded")
	}
	if got, err := tb.Count(); err != nil || got != 200 {
		t.Errorf("count = %d, %v", got, err)
	}
	if tb.Name() != "flights" || tb.Schema().NumColumns() != 4 {
		t.Error("metadata accessors wrong")
	}
}

func TestQueryRangeThroughEngine(t *testing.T) {
	_, tb := newABC(t, Config{Space: core.Config{IMax: 100000, P: 1000}}, 1500, 100)
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 50)); err != nil {
		t.Fatal(err)
	}
	groundTruth := func(lo, hi int64) map[storage.RID]bool {
		want := map[storage.RID]bool{}
		_ = tb.Scan(func(rid storage.RID, tu storage.Tuple) error {
			v := tu.Value(0).Int64()
			if v >= lo && v <= hi {
				want[rid] = true
			}
			return nil
		})
		return want
	}

	// Covered range: partial index hit.
	got, stats, err := tb.QueryRange(0, iv(10), iv(20))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.PartialHit {
		t.Error("covered range should hit")
	}
	sameMatches(t, got, groundTruth(10, 20), "covered range")

	// Straddling range: miss that builds the buffer, result complete.
	got, stats, err = tb.QueryRange(0, iv(40), iv(70))
	if err != nil {
		t.Fatal(err)
	}
	if stats.PartialHit {
		t.Error("straddling range should miss")
	}
	sameMatches(t, got, groundTruth(40, 70), "straddling range")

	// Second straddling range skips everything yet stays complete.
	got, stats, err = tb.QueryRange(0, iv(30), iv(80))
	if err != nil {
		t.Fatal(err)
	}
	if stats.PagesSkipped != tb.NumPages() {
		t.Errorf("skipped %d of %d", stats.PagesSkipped, tb.NumPages())
	}
	sameMatches(t, got, groundTruth(30, 80), "post-buildout range")

	// Bad column surfaces an error.
	if _, _, err := tb.QueryRange(99, iv(1), iv(2)); err == nil {
		t.Error("bad column should fail")
	}
}

// TestRangeAndDMLInterleaved mixes range queries with DML and checks
// ground truth continuously.
func TestRangeAndDMLInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cfg := Config{Space: core.Config{IMax: 30, P: 10, SpaceLimit: 800, Seed: 8}}
	_, tb := newABC(t, cfg, 1200, 60)
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 20)); err != nil {
		t.Fatal(err)
	}
	var rids []storage.RID
	_ = tb.Scan(func(rid storage.RID, _ storage.Tuple) error {
		rids = append(rids, rid)
		return nil
	})
	for step := 0; step < 150; step++ {
		if step%5 == 0 && len(rids) > 0 { // mutate
			i := rng.Intn(len(rids))
			tu := storage.NewTuple(
				iv(1+rng.Int63n(60)), iv(1+rng.Int63n(60)), iv(1+rng.Int63n(60)),
				storage.StringValue(strings.Repeat("m", 1+rng.Intn(300))),
			)
			nr, err := tb.Update(rids[i], tu)
			if err != nil {
				t.Fatal(err)
			}
			rids[i] = nr
			continue
		}
		lo := 1 + rng.Int63n(60)
		hi := lo + rng.Int63n(15)
		want := map[storage.RID]bool{}
		_ = tb.Scan(func(rid storage.RID, tu storage.Tuple) error {
			v := tu.Value(0).Int64()
			if v >= lo && v <= hi {
				want[rid] = true
			}
			return nil
		})
		got, _, err := tb.QueryRange(0, iv(lo), iv(hi))
		if err != nil {
			t.Fatal(err)
		}
		sameMatches(t, got, want, fmt.Sprintf("step %d range [%d,%d]", step, lo, hi))
	}
}

// TestEngineFileBackedStore runs the full query/buffer path over real
// files instead of the simulated disk.
func TestEngineFileBackedStore(t *testing.T) {
	dir := t.TempDir()
	e := New(Config{DataDir: dir, PoolPages: 4, Space: core.Config{IMax: 100000, P: 1000}})
	schema := storage.MustSchema(
		storage.Column{Name: "a", Kind: storage.KindInt64},
		storage.Column{Name: "payload", Kind: storage.KindString},
	)
	tb, err := e.CreateTable("disk", schema)
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("f", 400)
	for i := 0; i < 500; i++ {
		tu := storage.NewTuple(iv(int64(i%100)), storage.StringValue(pad))
		if _, err := tb.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.CreatePartialIndex(0, index.IntRange(0, 49)); err != nil {
		t.Fatal(err)
	}
	got, s1, err := tb.QueryEqual(0, iv(80))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Errorf("matches = %d, want 5", len(got))
	}
	_, s2, err := tb.QueryEqual(0, iv(81))
	if err != nil {
		t.Fatal(err)
	}
	if s2.PagesSkipped != tb.NumPages() || s2.PagesRead >= s1.PagesRead {
		t.Errorf("file-backed buffer gave no speedup: %+v then %+v", s1, s2)
	}
	if tb.DiskStats().Reads == 0 {
		t.Error("no real file reads recorded")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// The page file exists and has the right size.
	fi, err := os.Stat(filepath.Join(dir, "disk.pages"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(tb.NumPages())*buffer.PageSize {
		t.Errorf("file size %d, want %d pages", fi.Size(), tb.NumPages())
	}
}

// TestEngineConcurrentUse hammers one table with parallel queries and
// DML; run under -race this verifies the engine's locking story.
func TestEngineConcurrentUse(t *testing.T) {
	_, tb := newABC(t, Config{Space: core.Config{IMax: 50, P: 20, SpaceLimit: 2000}}, 800, 50)
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 20)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 60; i++ {
				switch rng.Intn(4) {
				case 0:
					tu := storage.NewTuple(
						iv(1+rng.Int63n(50)), iv(1+rng.Int63n(50)), iv(1+rng.Int63n(50)),
						storage.StringValue(strings.Repeat("c", 1+rng.Intn(100))),
					)
					if _, err := tb.Insert(tu); err != nil {
						errs <- err
						return
					}
				default:
					if _, _, err := tb.QueryEqual(0, iv(1+rng.Int63n(50))); err != nil {
						errs <- err
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Final consistency: ground truth still matches.
	want := queryGroundTruth(t, tb, 0, iv(30))
	got, _, err := tb.QueryEqual(0, iv(30))
	if err != nil {
		t.Fatal(err)
	}
	sameMatches(t, got, want, "post-concurrency")
}

// TestSaveAndLoadRoundTrip persists a populated, indexed database and
// reopens it: rows, index hits and Index Buffer behaviour must all be
// intact (with the buffer itself starting fresh, as the paper's
// volatility story requires).
func TestSaveAndLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, PoolPages: 8, Space: core.Config{IMax: 100000, P: 1000}}
	e := New(cfg)
	schema := storage.MustSchema(
		storage.Column{Name: "a", Kind: storage.KindInt64},
		storage.Column{Name: "name", Kind: storage.KindString},
	)
	tb, err := e.CreateTable("flights", schema)
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("n", 300)
	for i := 0; i < 700; i++ {
		tu := storage.NewTuple(iv(int64(i%100)), storage.StringValue(pad))
		if _, err := tb.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.CreatePartialIndex(0, index.IntRange(0, 49)); err != nil {
		t.Fatal(err)
	}
	// Build up some buffer state that must NOT survive the restart.
	if _, _, err := tb.QueryEqual(0, iv(90)); err != nil {
		t.Fatal(err)
	}
	if tb.Buffer(0).EntryCount() == 0 {
		t.Fatal("setup: buffer empty")
	}
	wantPages := tb.NumPages()

	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen.
	e2, err := Load(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	tb2 := e2.Table("flights")
	if tb2 == nil {
		t.Fatal("table missing after load")
	}
	if tb2.NumPages() != wantPages {
		t.Errorf("pages = %d, want %d", tb2.NumPages(), wantPages)
	}
	n, err := tb2.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 700 {
		t.Errorf("rows = %d, want 700", n)
	}
	// Index definition and contents restored.
	got, stats, err := tb2.QueryEqual(0, iv(25))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.PartialHit || len(got) != 7 {
		t.Errorf("hit=%v rows=%d", stats.PartialHit, len(got))
	}
	// Buffer restarted empty (volatile), with correct counters: the
	// first miss scans, the second skips.
	if tb2.Buffer(0).EntryCount() != 0 {
		t.Error("buffer survived restart; it must be volatile")
	}
	// Keys are i%100, so physically clustered: pages whose tuples are all
	// covered skip naturally (the Fig. 3 effect); the rest are read.
	_, s1, err := tb2.QueryEqual(0, iv(90))
	if err != nil {
		t.Fatal(err)
	}
	if s1.PagesRead+s1.PagesSkipped != wantPages {
		t.Errorf("first miss: read %d + skipped %d != %d pages", s1.PagesRead, s1.PagesSkipped, wantPages)
	}
	if s1.PagesRead < wantPages/2 {
		t.Errorf("first miss after load read only %d of %d pages", s1.PagesRead, wantPages)
	}
	_, s2, err := tb2.QueryEqual(0, iv(91))
	if err != nil {
		t.Fatal(err)
	}
	if s2.PagesSkipped != wantPages {
		t.Errorf("second miss skipped %d of %d", s2.PagesSkipped, wantPages)
	}
	// DML still works after reload (free hints rebuilt).
	rid, err := tb2.Insert(storage.NewTuple(iv(25), storage.StringValue("tail")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb2.Get(rid); err != nil {
		t.Fatal(err)
	}
	got, _, err = tb2.QueryEqual(0, iv(25))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Errorf("rows after post-load insert = %d, want 8", len(got))
	}
}

// TestSaveRequiresDataDir pins that persisting needs a DataDir:
// Checkpoint, the persistence call, fails on an in-memory engine.
func TestSaveRequiresDataDir(t *testing.T) {
	e := New(Config{})
	if err := e.Checkpoint(); err == nil {
		t.Error("Checkpoint on in-memory engine should fail")
	}
	if _, err := Load(Config{}); err == nil {
		t.Error("Load without DataDir should fail")
	}
	if _, err := Load(Config{DataDir: t.TempDir()}); err == nil {
		t.Error("Load from empty dir should fail")
	}
}

func TestEngineExplainAndIntrospection(t *testing.T) {
	e, tb := newABC(t, Config{}, 600, 100)
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 50)); err != nil {
		t.Fatal(err)
	}
	if got := e.TableNames(); len(got) != 1 || got[0] != "flights" {
		t.Errorf("TableNames = %v", got)
	}
	if e.Space() == nil {
		t.Error("Space accessor nil")
	}
	plan, err := tb.ExplainRange(0, iv(25), iv(25))
	if err != nil {
		t.Fatal(err)
	}
	if !plan.PartialHit {
		t.Errorf("plan = %+v", plan)
	}
	plan, err = tb.ExplainRange(0, iv(90), iv(90))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Mechanism != "indexing scan" {
		t.Errorf("plan = %+v", plan)
	}
	if _, err := tb.ExplainRange(99, iv(1), iv(1)); err == nil {
		t.Error("bad column should fail")
	}
	rp, err := tb.ExplainRange(0, iv(10), iv(20))
	if err != nil {
		t.Fatal(err)
	}
	if !rp.PartialHit {
		t.Errorf("range plan = %+v", rp)
	}
	if _, err := tb.ExplainRange(99, iv(1), iv(2)); err == nil {
		t.Error("bad column should fail")
	}
	// Explain is free of side effects on the buffer.
	if tb.Buffer(0).EntryCount() != 0 {
		t.Error("explain mutated buffer")
	}
}

// TestCrossTableBufferSpace verifies the paper's Fig. 5 note: buffers of
// columns from *different* tables share one Index Buffer Space and
// compete for it.
func TestCrossTableBufferSpace(t *testing.T) {
	e := New(Config{Space: core.Config{
		IMax: 30, P: 60, K: 2, SpaceLimit: 2500,
		Seed: 3,
	}})
	mkTable := func(name string) *Table {
		schema := storage.MustSchema(
			storage.Column{Name: "k", Kind: storage.KindInt64},
			storage.Column{Name: "pad", Kind: storage.KindString},
		)
		tb, err := e.CreateTable(name, schema)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(len(name))))
		pad := strings.Repeat("q", 300)
		for i := 0; i < 2000; i++ {
			tu := storage.NewTuple(iv(1+rng.Int63n(100)), storage.StringValue(pad))
			if _, err := tb.Insert(tu); err != nil {
				t.Fatal(err)
			}
		}
		if err := tb.CreatePartialIndex(0, index.IntRange(1, 10)); err != nil {
			t.Fatal(err)
		}
		return tb
	}
	t1, t2 := mkTable("one"), mkTable("two")

	if got := len(e.Space().Buffers()); got != 2 {
		t.Fatalf("buffers in shared space = %d", got)
	}
	// Hammer table one until its buffer saturates the shared space.
	rng := rand.New(rand.NewSource(9))
	for q := 0; q < 25; q++ {
		if _, _, err := t1.QueryEqual(0, iv(11+rng.Int63n(89))); err != nil {
			t.Fatal(err)
		}
	}
	used1 := t1.Buffer(0).EntryCount()
	if used1 == 0 {
		t.Fatal("table one never buffered")
	}
	if e.Space().Used() > 2500 {
		t.Fatalf("space used %d exceeds shared limit", e.Space().Used())
	}
	// Shift entirely to table two: it must claw space away from one.
	for q := 0; q < 60; q++ {
		if _, _, err := t2.QueryEqual(0, iv(11+rng.Int63n(89))); err != nil {
			t.Fatal(err)
		}
	}
	if t2.Buffer(0).EntryCount() == 0 {
		t.Error("table two never gained space")
	}
	if got := t1.Buffer(0).EntryCount(); got >= used1 {
		t.Errorf("table one kept %d entries (was %d); cross-table displacement failed", got, used1)
	}
	if e.Space().Used() > 2500 {
		t.Fatalf("space used %d exceeds shared limit after shift", e.Space().Used())
	}
}

func TestDropIndex(t *testing.T) {
	e, tb := newABC(t, Config{}, 500, 100)
	if err := tb.DropIndex(0); err == nil {
		t.Error("drop of nonexistent index should fail")
	}
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 50)); err != nil {
		t.Fatal(err)
	}
	// Build the buffer.
	if _, _, err := tb.QueryEqual(0, iv(90)); err != nil {
		t.Fatal(err)
	}
	if e.Space().Used() == 0 {
		t.Fatal("setup: no buffer entries")
	}
	if err := tb.DropIndex(0); err != nil {
		t.Fatal(err)
	}
	if tb.Index(0) != nil || tb.Buffer(0) != nil {
		t.Error("index/buffer survived drop")
	}
	if e.Space().Used() != 0 {
		t.Errorf("space not released: %d", e.Space().Used())
	}
	// Queries fall back to full scans.
	_, stats, err := tb.QueryEqual(0, iv(25))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.FullScan {
		t.Error("query after drop should full-scan")
	}
	// The column can be re-indexed.
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 10)); err != nil {
		t.Fatal(err)
	}
}
