package repro

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
)

// TestDurabilityRoundTrip exercises the public durability surface: a
// DataDir-backed database is abandoned without Close (a crash — nothing
// flushed), reopened with OpenExisting, and must retain every
// acknowledged write. The queries in between log nothing.
func TestDurabilityRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := MustOpen(Options{DataDir: dir, Seed: 3})
	tb, err := db.CreateTable("flights", Int64Column("delay"), StringColumn("airport"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.CreatePartialRangeIndex("delay", 0, 30); err != nil {
		t.Fatal(err)
	}
	rids := make([]RID, 0, 60)
	for i := 0; i < 60; i++ {
		rid, err := tb.Insert(int64(i%90), "ORD")
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if _, err := tb.Update(rids[5], int64(77), "SFO"); err != nil {
		t.Fatal(err)
	}
	if err := tb.Delete(rids[6]); err != nil {
		t.Fatal(err)
	}
	// Misses past the covered range run indexing scans and append
	// nothing to the log.
	ws := db.WALStats()
	for i := 0; i < 5; i++ {
		if _, _, err := tb.Query("delay", int64(40+i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.WALStats(); got.Appends != ws.Appends || got.Bytes != ws.Bytes {
		t.Fatalf("misses appended to the log: %+v -> %+v", ws, got)
	}
	if _, err := tb.Insert(int64(1), "LAX"); err != nil {
		t.Fatal(err)
	}
	if ws := db.WALStats(); ws.Commits == 0 || ws.Syncs == 0 {
		t.Fatalf("WALStats shows no durable commits: %+v", ws)
	}

	// Crash: walk away. No Close, no Checkpoint.
	db2, err := OpenExisting(Options{DataDir: dir, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rs := db2.RecoveryStats()
	if rs.RedoRecords == 0 {
		t.Fatalf("recovery replayed nothing: %+v", rs)
	}
	tb2 := db2.Table("flights")
	n, err := tb2.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 60 { // 61 inserts minus 1 delete
		t.Fatalf("Count = %d, want 60", n)
	}
	rows, _, err := tb2.Query("delay", int64(77))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("updated row lost: %d matches for delay=77", len(rows))
	}
	if ap, _ := rows[0].String("airport"); ap != "SFO" {
		t.Fatalf("updated row airport = %q, want SFO", ap)
	}

	// Explicit checkpoint works and clean close follows.
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestReadsNeverAppendToWAL: on a DataDir database every kind of read —
// lock-free and locked partial-index hits, point and range, indexing
// misses, a full scan of an unindexed column, EXPLAIN — leaves the log
// untouched, and a read-only window never wakes the periodic
// checkpointer.
func TestReadsNeverAppendToWAL(t *testing.T) {
	const every = 10 * time.Millisecond
	for _, locked := range []bool{false, true} {
		t.Run(fmt.Sprintf("locked=%v", locked), func(t *testing.T) {
			db := openTuned(t, Options{DataDir: t.TempDir(), WAL: WALOptions{CheckpointEvery: every}}, false,
				func(c *engine.Config) { c.DisableEpochReadPath = locked })
			defer db.Close()
			tb, err := db.CreateTable("t", Int64Column("k"), Int64Column("v"))
			if err != nil {
				t.Fatal(err)
			}
			if err := tb.CreatePartialRangeIndex("k", 0, 99); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 400; i++ {
				if _, err := tb.Insert(int64(i), int64(i%7)); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			time.Sleep(3 * every) // let any tick already in flight finish

			type logState struct {
				appends, bytes, lsn, checkpoints uint64
			}
			state := func() logState {
				ws := db.WALStats()
				tel, ok := db.WALTelemetry()
				if !ok {
					t.Fatal("DataDir database reports no WAL")
				}
				return logState{ws.Appends, ws.Bytes, uint64(tel.AppendedLSN), db.CheckpointStats().Completed}
			}
			before := state()
			fast := db.EpochStats().FastHits

			read := func(what string, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			}
			for k := 0; k < 10; k++ {
				_, _, err := tb.Query("k", int64(k*7))
				read("point hit", err)
				_, _, err = tb.QueryRange("k", int64(k), int64(k+20))
				read("range hit", err)
				_, _, err = tb.Query("k", int64(200+k))
				read("point miss", err)
			}
			_, _, err = tb.QueryRange("k", 300, 320)
			read("range miss", err)
			_, _, err = tb.Query("v", int64(3))
			read("full scan", err)
			_, err = db.Exec(context.Background(), "EXPLAIN SELECT * FROM t WHERE k = 350")
			read("EXPLAIN", err)
			_, err = db.Exec(context.Background(), "SELECT * FROM t WHERE k = 5")
			read("SELECT", err)
			time.Sleep(10 * every) // a read-only window of many checkpoint periods

			if after := state(); after != before {
				t.Fatalf("reads changed the log: %+v -> %+v", before, after)
			}
			if got := db.EpochStats().FastHits - fast; locked != (got == 0) {
				t.Fatalf("locked=%v served %d hits lock-free", locked, got)
			}
		})
	}
}

// TestOpenExistingWithoutWALDir reopens a DataDir that has a catalog
// and page files but no wal/ directory — the shape snapshot-only
// persistence (a catalog written with no checkpoint LSN, no log) left
// behind. Recovery must restore the rows and start a log, and the log
// must carry later writes across a crash.
func TestOpenExistingWithoutWALDir(t *testing.T) {
	dir := t.TempDir()
	db := MustOpen(Options{DataDir: dir})
	tb, err := db.CreateTable("t", Int64Column("k"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := tb.Insert(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, "wal")); err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat.CheckpointLSN = 0
	if err := catalog.Save(dir, cat); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenExisting(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := db2.Table("t").Count(); n != 50 {
		t.Fatalf("Count = %d, want 50", n)
	}
	if rs := db2.RecoveryStats(); rs.RedoRecords != 0 {
		t.Fatalf("recovery replayed %d records from an absent log", rs.RedoRecords)
	}
	if _, err := db2.Table("t").Insert(int64(50)); err != nil {
		t.Fatal(err)
	}
	if ws := db2.WALStats(); ws.Commits == 0 {
		t.Fatalf("reopened database logs nothing: %+v", ws)
	}

	// Crash: walk away without Close. The insert survives through the log.
	db3, err := OpenExisting(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if rs := db3.RecoveryStats(); rs.RedoRecords == 0 {
		t.Fatalf("second recovery replayed nothing: %+v", rs)
	}
	if n, _ := db3.Table("t").Count(); n != 51 {
		t.Fatalf("Count after crash = %d, want 51", n)
	}
}

// TestWALOptionsValidation covers the new validation arms.
func TestWALOptionsValidation(t *testing.T) {
	for _, o := range []Options{
		{WAL: WALOptions{Sync: SyncPolicy(9)}},
		{WAL: WALOptions{CheckpointEvery: -time.Second}},
	} {
		if _, err := Open(o); err == nil {
			t.Errorf("Open(%+v) accepted invalid WAL options", o.WAL)
		}
	}
}

// TestBackgroundCheckpointer verifies the periodic checkpoint loop
// truncates the log without an explicit Checkpoint.
func TestBackgroundCheckpointer(t *testing.T) {
	dir := t.TempDir()
	db := openTuned(t, Options{DataDir: dir, WAL: WALOptions{CheckpointEvery: 10 * time.Millisecond}}, false,
		func(c *engine.Config) { c.WAL.SegmentBytes = 4096 })
	defer db.Close()
	tb, err := db.CreateTable("t", Int64Column("k"))
	if err != nil {
		t.Fatal(err)
	}
	// Insert until the log rotates past its first 4 KiB segment, which
	// leaves a closed segment for a checkpoint to remove.
	for i := 0; db.WALStats().Segments < 2; i++ {
		if i == 10000 {
			t.Fatalf("10000 inserts never rotated the log: %+v", db.WALStats())
		}
		if _, err := tb.Insert(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if db.WALStats().Removed > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("background checkpointer never truncated the log: %+v", db.WALStats())
}

// TestTableNameStaysInsideDataDir checks that no table name reaches a
// page file outside DataDir — neither at CreateTable nor through a
// catalog entry at Load — while plain names with odd characters, and
// tenant-qualified names, still round-trip.
func TestTableNameStaysInsideDataDir(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "data")
	o := Options{DataDir: dir, Tenants: []Tenant{{Name: "acme"}}}
	db := MustOpen(o)
	for _, name := range []string{"", ".", "..", "../outside", "a/b"} {
		if _, err := db.CreateTable(name, Int64Column("k")); !errors.Is(err, ErrInvalidTableName) {
			t.Errorf("CreateTable(%q) = %v, want ErrInvalidTableName", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(root, "outside.pages")); !os.IsNotExist(err) {
		t.Errorf("CreateTable(\"../outside\") left a file outside DataDir: %v", err)
	}
	if _, err := db.CreateTable("we\"ird\ta\nble", Int64Column("k")); err != nil {
		t.Fatal(err)
	}
	acme, err := db.Session("acme")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := acme.Exec(context.Background(), "CREATE TABLE t (k INT)"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = OpenExisting(o); err != nil {
		t.Fatal(err)
	}
	if db.Table("we\"ird\ta\nble") == nil || db.eng.Table("acme:t") == nil {
		t.Fatal("odd or tenant-qualified table name did not survive reopen")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// A catalog entry naming ../x must not open (and truncate) x.pages.
	outside := filepath.Join(root, "x.pages")
	data := bytes.Repeat([]byte{0xAB}, 3*8192)
	if err := os.WriteFile(outside, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat.Tables[0].Name = "../x"
	if err := catalog.Save(dir, cat); err != nil {
		t.Fatal(err)
	}
	if db, err := OpenExisting(o); !errors.Is(err, ErrInvalidTableName) {
		if err == nil {
			db.Close()
		}
		t.Fatalf("OpenExisting with a ../x catalog entry = %v, want ErrInvalidTableName", err)
	}
	if got, err := os.ReadFile(outside); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("file outside DataDir changed by Load (err %v)", err)
	}
}

// TestLoadRefusesDuplicateCatalogTable checks that Load rejects a
// catalog naming one table twice instead of opening its page file twice.
func TestLoadRefusesDuplicateCatalogTable(t *testing.T) {
	dir := t.TempDir()
	db := MustOpen(Options{DataDir: dir})
	tb, err := db.CreateTable("t", Int64Column("k"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := tb.Insert(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat.Tables = append(cat.Tables, cat.Tables[0])
	if err := catalog.Save(dir, cat); err != nil {
		t.Fatal(err)
	}
	if db, err := OpenExisting(Options{DataDir: dir}); !errors.Is(err, ErrDuplicateTable) {
		if err == nil {
			db.Close()
		}
		t.Fatalf("OpenExisting with a duplicated catalog entry = %v, want ErrDuplicateTable", err)
	}
}
