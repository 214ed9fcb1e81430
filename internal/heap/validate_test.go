package heap

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/buffer"
	"repro/internal/storage"
)

// fillPages inserts rows until the table has at least pages pages and
// returns the RIDs of page 0's first two rows.
func fillPages(t *testing.T, tb *Table, pages int) (first, second storage.RID) {
	t.Helper()
	var rids []storage.RID
	for i := 0; tb.NumPages() < pages; i++ {
		rid, err := tb.Insert(row(int64(i), strings.Repeat("p", 300)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if rids[0].Page != 0 || rids[1].Page != 0 {
		t.Fatalf("first rows at %v, %v, want page 0", rids[0], rids[1])
	}
	return rids[0], rids[1]
}

// breakSlot points slot's directory entry past the end of img, a fault
// SlottedPage.Validate catches and Tuple on any other slot does not,
// and returns the error a read of the broken page must report.
func breakSlot(t *testing.T, img []byte, page storage.PageID, slot int) string {
	t.Helper()
	base := headerSize + slot*slotEntrySize
	binary.LittleEndian.PutUint16(img[base:], buffer.PageSize-2)
	binary.LittleEndian.PutUint16(img[base+2:], 100)
	sp, err := AsPage(img)
	if err != nil {
		t.Fatal(err)
	}
	verr := sp.Validate()
	if verr == nil {
		t.Fatal("broken slot passes Validate")
	}
	return fmt.Sprintf("heap: page %d: %v", page, verr)
}

// checkReadsFail asserts Get of rid and a scan of its page both fail
// with want.
func checkReadsFail(t *testing.T, tb *Table, rid storage.RID, want string) {
	t.Helper()
	if _, err := tb.Get(rid); err == nil || err.Error() != want {
		t.Errorf("Get(%v) = %v, want %q", rid, err, want)
	}
	err := scanPage(tb, rid.Page)
	if err == nil || err.Error() != want {
		t.Errorf("ScanPage(%d) = %v, want %q", rid.Page, err, want)
	}
}

// TestGetRevalidatesReloadedPage: a page checked once, evicted, and
// corrupted in the store while out of the pool is validated again when
// it is fetched back, so Get of an intact slot and ScanPage both fail.
func TestGetRevalidatesReloadedPage(t *testing.T) {
	tb, d := newTable(t, 2)
	first, second := fillPages(t, tb, 4)
	if _, err := tb.Get(first); err != nil {
		t.Fatal(err)
	}
	f0, err := tb.pool.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	if !f0.Checked() {
		t.Fatal("Get left page 0 unchecked")
	}
	tb.pool.Unpin(f0)
	for p := storage.PageID(1); p < 3; p++ {
		if err := loadPage(tb, p); err != nil {
			t.Fatal(err)
		}
	}
	if f0.Data() != nil {
		t.Fatal("page 0 is still resident")
	}

	img := make([]byte, buffer.PageSize)
	if err := d.Read(0, img); err != nil {
		t.Fatal(err)
	}
	want := breakSlot(t, img, 0, int(second.Slot))
	if err := d.Write(0, img); err != nil {
		t.Fatal(err)
	}
	checkReadsFail(t, tb, first, want)
}

// TestGetRevalidatesDirtiedFrame: overwriting a resident, already
// checked frame and marking it dirty makes the next read validate the
// new image.
func TestGetRevalidatesDirtiedFrame(t *testing.T) {
	tb, _ := newTable(t, 8)
	first, second := fillPages(t, tb, 2)
	if _, err := tb.Get(first); err != nil {
		t.Fatal(err)
	}
	f, err := tb.pool.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Checked() {
		t.Fatal("Get left page 0 unchecked")
	}
	want := breakSlot(t, f.Data(), 0, int(second.Slot))
	f.MarkDirty()
	tb.pool.Unpin(f)
	checkReadsFail(t, tb, first, want)
}

// BenchmarkHeapGet measures Get of every row of a resident table of
// about 80 rows per page, in RID order as a covered hit reads them.
func BenchmarkHeapGet(b *testing.B) {
	d := buffer.NewSimDisk()
	pool, err := buffer.NewPool(d, 64)
	if err != nil {
		b.Fatal(err)
	}
	tb := NewTable(testSchema(), pool)
	var rids []storage.RID
	for i := 0; tb.NumPages() < 17; i++ {
		rid, err := tb.Insert(row(int64(i), strings.Repeat("p", 88)))
		if err != nil {
			b.Fatal(err)
		}
		rids = append(rids, rid)
	}
	rids = rids[:len(rids)-1] // 16 full pages; the 17th holds one row
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.Get(rids[i%len(rids)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rids))/16, "rows/page")
}

// BenchmarkHeapReadRows measures ReadRows of sorted runs of rows=4 and
// rows=40 rows of a resident 64-page table, each row on its own page, as
// a covered point hit and a ten-key range hit read them. The pool has
// 1,024 frames, so a run pins up to maxRunPins pages at a time.
func BenchmarkHeapReadRows(b *testing.B) {
	const pages = 64
	d := buffer.NewSimDisk()
	pool, err := buffer.NewPool(d, 1024)
	if err != nil {
		b.Fatal(err)
	}
	tb := NewTable(testSchema(), pool)
	var rids []storage.RID
	for i := 0; tb.NumPages() <= pages; i++ {
		rid, err := tb.Insert(row(int64(i), strings.Repeat("p", 88)))
		if err != nil {
			b.Fatal(err)
		}
		rids = append(rids, rid)
	}
	perPage := len(rids) / pages
	for _, rows := range []int{4, 40} {
		runs := make([][]storage.RID, 64)
		for r := range runs {
			first := r * 7 % (pages - rows)
			for p := first; p < first+rows; p++ {
				runs[r] = append(runs[r], rids[p*perPage+(r+p)%perPage])
			}
		}
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			n := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tb.ReadRows(runs[i%len(runs)], func(int, storage.Tuple) { n++ }); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)/float64(b.N), "rows/op")
		})
	}
}

// TestConcurrentRevalidation: readers sharing the table lock validate
// and mark frames concurrently while a pool smaller than the table keeps
// loading fresh, unchecked images; every read returns its own row.
func TestConcurrentRevalidation(t *testing.T) {
	tb, _ := newTable(t, 4) // one pin per reader: a victim always exists
	var rids []storage.RID
	for i := 0; tb.NumPages() < 8; i++ {
		rid, err := tb.Insert(row(int64(i), strings.Repeat("p", 300)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2*len(rids); i++ {
				k := (w*17 + i*5) % len(rids)
				tu, err := tb.Get(rids[k])
				if err != nil {
					t.Errorf("Get(%v): %v", rids[k], err)
					return
				}
				if tu.Value(0).Int64() != int64(k) {
					t.Errorf("Get(%v) = row %d, want %d", rids[k], tu.Value(0).Int64(), k)
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkLayerScanPage times the page kernel over pages of about 80
// rows keyed by their INTEGER column, as a miss reads them: resident,
// in a pool that holds the whole table, and non-resident, in a pool of
// one frame that holds only the last page, which is never scanned, so
// the kernel reads each page from the store into the batch's own image.
// The callback only sums the keys, so ns/page and allocs/page are the
// kernel's own cost (a non-resident page adds the store read).
func BenchmarkLayerScanPage(b *testing.B) {
	const pages = 16
	for _, c := range []struct {
		name   string
		frames int
	}{{"resident", 64}, {"nonresident", 1}} {
		b.Run(c.name, func(b *testing.B) {
			pool, err := buffer.NewPool(buffer.NewSimDisk(), c.frames)
			if err != nil {
				b.Fatal(err)
			}
			tb := NewTable(testSchema(), pool)
			for i := 0; tb.NumPages() < pages; i++ {
				if _, err := tb.Insert(row(int64(i), strings.Repeat("p", 88))); err != nil {
					b.Fatal(err)
				}
			}
			var batch PageBatch
			var rows, sum int64
			fn := func(b *PageBatch) error {
				rows += int64(b.Len())
				for _, k := range b.Ints {
					sum += k
				}
				return nil
			}
			// The last page holds a partial row count; scan the full ones.
			scan := func(i int) {
				if err := tb.ScanPage(storage.PageID(i%(pages-1)), 0, &batch, fn); err != nil {
					b.Fatal(err)
				}
			}
			for p := 0; p < pages-1; p++ { // warm the pool and the batch
				scan(p)
			}
			rows = 0
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scan(i)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/page")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/page")
			b.ReportMetric(float64(rows)/float64(b.N), "rows/page")
			if sum < 0 {
				b.Fatal(sum)
			}
		})
	}
}
