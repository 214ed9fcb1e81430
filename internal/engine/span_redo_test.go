package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Redo patches the byte spans each record carries onto the page files
// in LSN order, from the last checkpoint. These tests hold it to the
// argument that makes it idempotent (DESIGN.md §14.1): a byte no record
// since the checkpoint wrote has the same value in every durable
// version of its page, so any mix of those versions — a write-back torn
// at a sector boundary included — redoes to the same image, as long as
// every change a page saw is in some record.

// copyDir copies the directory tree src to dst: a crashed DataDir
// cloned so that several recoveries can start from the same files.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// spanTestSchema is a key and a padding string.
func spanTestSchema() *storage.Schema {
	return storage.MustSchema(
		storage.Column{Name: "k", Kind: storage.KindInt64},
		storage.Column{Name: "payload", Kind: storage.KindString},
	)
}

func spanRow(k int, pad string, n int) storage.Tuple {
	return storage.NewTuple(storage.Int64Value(int64(k)), storage.StringValue(strings.Repeat(pad, n)))
}

// sameRows fails t unless got and want list the same rows, naming the
// first difference.
func sameRows(t *testing.T, got, want []string) {
	t.Helper()
	for i := 0; i < max(len(got), len(want)); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("recovered %d rows, want %d; row %d is %.60q, want %.60q", len(got), len(want), i, g, w)
		}
	}
}

// recoverContents loads dir and returns table "t"'s contents.
func recoverContents(t *testing.T, dir string) []string {
	t.Helper()
	e, err := Load(Config{DataDir: dir, PoolPages: 64})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	defer e.Close()
	return contents(t, e.Table("t"))
}

// TestSpanRedoTornWriteBack checkpoints a full page, rewrites it with
// committed deletes, updates and compacting inserts, and then crashes
// with the page file holding the first k 512-byte sectors of the new
// image over the checkpointed one, for every k from none to all.
// Recovery must give the committed rows for every k.
func TestSpanRedoTornWriteBack(t *testing.T) {
	dir := t.TempDir()
	e := New(Config{DataDir: dir, PoolPages: 64}) // no eviction writes a page back
	tb, err := e.CreateTable("t", spanTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	var rids []storage.RID
	for i := 0; ; i++ {
		rid, err := tb.Insert(spanRow(i, "c", 250+i%40))
		if err != nil {
			t.Fatal(err)
		}
		if rid.Page != 0 {
			break
		}
		rids = append(rids, rid)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pageFile := filepath.Join(dir, "t.pages")
	ckpt, err := os.ReadFile(pageFile)
	if err != nil {
		t.Fatal(err)
	}
	ckpt = ckpt[:buffer.PageSize]

	// Rewrite page 0 after the checkpoint: free a third of it, shrink
	// and grow rows in place, then insert rows that only fit once the
	// page is compacted.
	for i := 0; i < len(rids); i += 3 {
		if err := tb.Delete(rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(rids); i += 3 {
		if _, err := tb.Update(rids[i], spanRow(1000+i, "s", 20)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 2; i < len(rids); i += 6 {
		if _, err := tb.Update(rids[i], spanRow(2000+i, "g", 300)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if _, err := tb.Insert(spanRow(3000+i, "n", 400)); err != nil {
			t.Fatal(err)
		}
	}
	f, err := tb.pool.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	image := bytes.Clone(f.Data())
	tb.pool.Unpin(f)
	differs := 0
	for s := 0; s < buffer.PageSize; s += 512 {
		if !bytes.Equal(image[s:s+512], ckpt[s:s+512]) {
			differs++
		}
	}
	if differs < buffer.PageSize/512/2 {
		t.Fatalf("only %d sectors of page 0 changed; the tears test little", differs)
	}
	want := contents(t, tb)
	// Crash: the engine is abandoned with every statement committed.

	for k := 0; k <= buffer.PageSize/512; k++ {
		t.Run(fmt.Sprintf("sectors=%d", k), func(t *testing.T) {
			crashed := t.TempDir()
			copyDir(t, dir, crashed)
			pf, err := os.OpenFile(filepath.Join(crashed, "t.pages"), os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pf.WriteAt(image[:k*512], 0); err != nil {
				t.Fatal(err)
			}
			pf.Close()
			sameRows(t, recoverContents(t, crashed), want)
		})
	}
}

// TestSpanRedoFailedRelocation fails a relocating update (the fresh
// page it needs cannot be allocated), whose undo compacts the page to
// put the row back, and crashes after it. The compaction moved the rows
// that records since the checkpoint wrote at their old offsets, so redo
// must replay it after them: with a later insert on the page and no
// write-back, and with a write-back of the compacted page and no later
// record, which holds only if the failed update logged its change.
func TestSpanRedoFailedRelocation(t *testing.T) {
	for _, tc := range []struct {
		name      string
		writeBack bool // flush the compacted page and log nothing after it
	}{
		{"insert-after", false},
		{"write-back", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var fault *buffer.FaultStore
			cfg := Config{DataDir: dir, PoolPages: 64}
			cfg.wrapStore = func(_ string, s pageStore) pageStore {
				fault = buffer.NewFaultStore(s)
				return fault
			}
			e := New(cfg)
			tb, err := e.CreateTable("t", spanTestSchema())
			if err != nil {
				t.Fatal(err)
			}
			// Eight 1010-byte rows fill page 0 but for 72 bytes.
			var rids []storage.RID
			for i := 0; i < 8; i++ {
				rid, err := tb.Insert(spanRow(i, "r", 1000))
				if err != nil {
					t.Fatal(err)
				}
				rids = append(rids, rid)
			}
			if n := tb.heap.NumPages(); n != 1 {
				t.Fatalf("the rows took %d pages, want 1", n)
			}
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			// Records past the checkpoint: row 5 rewritten where it lies,
			// at the offset compaction will give row 2, and row 1 deleted,
			// which leaves dead space only compaction reclaims.
			if _, err := tb.Update(rids[5], spanRow(5, "z", 1000)); err != nil {
				t.Fatal(err)
			}
			if err := tb.Delete(rids[1]); err != nil {
				t.Fatal(err)
			}
			appends := e.WALStats().Appends

			// A 2500-byte row fits page 0 nowhere, and the page it would
			// relocate to cannot be allocated.
			fault.SetAllocsLeft(0)
			if _, err := tb.Update(rids[0], spanRow(0, "u", 2500)); !errors.Is(err, buffer.ErrInjected) {
				t.Fatalf("relocating update: err = %v, want the injected allocation fault", err)
			}
			fault.SetAllocsLeft(-1)
			if got := e.WALStats().Appends; got != appends+1 {
				t.Fatalf("the failed update appended %d records, want 1 for the compaction its undo did", got-appends)
			}
			if tu, err := tb.Get(rids[0]); err != nil || !tu.Value(1).Equal(storage.StringValue(strings.Repeat("r", 1000))) {
				t.Fatalf("the failed update did not restore its row: %v", err)
			}
			if tc.writeBack {
				if err := tb.pool.FlushAll(); err != nil {
					t.Fatal(err)
				}
			} else {
				rid, err := tb.Insert(spanRow(99, "i", 30))
				if err != nil {
					t.Fatal(err)
				}
				if rid.Page != 0 {
					t.Fatalf("the insert went to page %d, want the compacted page 0", rid.Page)
				}
			}
			want := contents(t, tb)
			// Crash: abandon the engine.
			crashed := t.TempDir()
			copyDir(t, dir, crashed)
			sameRows(t, recoverContents(t, crashed), want)
		})
	}
}

// legacyPayload is the DML payload encoder of versions that logged full
// page images: lsn | kind | tableLen | table | pages | rid | oldRID |
// count | count × (page | size | image), with the kind byte's span
// layout bit clear.
func legacyPayload(rec *wal.Record, images map[storage.PageID][]byte, order []storage.PageID) []byte {
	rid := func(buf []byte, r storage.RID) []byte {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Page))
		return binary.LittleEndian.AppendUint16(buf, r.Slot)
	}
	var buf []byte
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rec.LSN))
	buf = append(buf, byte(rec.Kind))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(rec.Table)))
	buf = append(buf, rec.Table...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rec.Pages))
	buf = rid(buf, rec.RID)
	buf = rid(buf, rec.OldRID)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(order)))
	for _, p := range order {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(images[p])))
		buf = append(buf, images[p]...)
	}
	return buf
}

// TestSpanRedoLegacyFullImages rewrites a crashed database's log in the
// full-image layout earlier versions wrote — each record carrying the
// whole image of every page it names, rebuilt by patching the spans
// from zero pages — and requires both logs to recover the same rows.
func TestSpanRedoLegacyFullImages(t *testing.T) {
	dir := t.TempDir()
	// No checkpoint after the tables are created empty: the log then
	// holds every change, and each page's checkpointed image is zeros.
	var ops []crashOp
	for _, op := range crashScript(19, 30, 40) {
		if op.kind != opCheckpoint {
			ops = append(ops, op)
		}
	}
	rig := newCrashRig(t, New(crashConfig(dir)))
	for i, op := range ops {
		if err := rig.apply(op); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	// Crash: abandon the engine, then build the legacy log beside the
	// span log.
	legacy := t.TempDir()
	copyDir(t, dir, legacy)
	segs, err := filepath.Glob(filepath.Join(legacy, "wal", "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		if err := os.Remove(s); err != nil {
			t.Fatal(err)
		}
	}
	pages := map[string]map[storage.PageID][]byte{}
	var segment []byte
	records := 0
	_, err = wal.Replay(walDir(dir), 0, func(rec *wal.Record) error {
		if pages[rec.Table] == nil {
			pages[rec.Table] = map[storage.PageID][]byte{}
		}
		images := pages[rec.Table]
		var order []storage.PageID
		for _, im := range rec.Images {
			if images[im.Page] == nil {
				images[im.Page] = make([]byte, buffer.PageSize)
			}
			copy(images[im.Page][im.Off:], im.Data)
			if !slices.Contains(order, im.Page) {
				order = append(order, im.Page)
			}
		}
		payload := legacyPayload(rec, images, order)
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
		binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
		segment = append(append(segment, hdr[:]...), payload...)
		records++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if records < len(ops)/2 {
		t.Fatalf("the log holds %d records for %d ops", records, len(ops))
	}
	if err := os.WriteFile(filepath.Join(legacy, "wal", fmt.Sprintf("wal-%016x.seg", 1)), segment, 0o644); err != nil {
		t.Fatal(err)
	}

	want := oracleRig(t, ops, len(ops))
	for _, d := range []string{dir, legacy} {
		recovered, err := Load(crashConfig(d))
		if err != nil {
			t.Fatalf("Load of %s: %v", d, err)
		}
		if got := recovered.RecoveryStats().RedoRecords; got != records {
			t.Errorf("%s: redid %d records, want %d", d, got, records)
		}
		diffRigs(t, d, &crashRig{eng: recovered}, want)
		recovered.Close()
	}
}

// TestSpanRedoEmptyPageExtent crashes after a failed insert of a row
// too large for any page, which grows the heap by an empty page, and a
// delete on an earlier page. The delete's record names only that page,
// but its page count includes the empty one, so redo must extend the
// file to it: reopening the heap reads every page up to the count.
func TestSpanRedoEmptyPageExtent(t *testing.T) {
	dir := t.TempDir()
	e := New(Config{DataDir: dir, PoolPages: 64})
	tb, err := e.CreateTable("t", spanTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	var rids []storage.RID
	for i := 0; i < 3; i++ {
		rid, err := tb.Insert(spanRow(i, "r", 100))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if _, err := tb.Insert(spanRow(9, "x", buffer.PageSize)); err == nil {
		t.Fatal("inserted a row larger than a page")
	}
	if n := tb.heap.NumPages(); n != 2 {
		t.Fatalf("the failed insert left %d pages, want 2", n)
	}
	if err := tb.Delete(rids[1]); err != nil {
		t.Fatal(err)
	}
	want := contents(t, tb)
	// Crash: abandon the engine.
	crashed := t.TempDir()
	copyDir(t, dir, crashed)
	sameRows(t, recoverContents(t, crashed), want)
}
