package heap

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/buffer"
	"repro/internal/storage"
)

// rowsFixture builds a table of rows with payloads of 0 to 300 bytes
// over a pool of capacity frames, ten pages or, for a pool of more than
// 8 frames, one and a half times the pool. It deletes about one row in
// twenty and returns the live and the dead RIDs, each in RID order. The
// same seed builds the same table.
func rowsFixture(t *testing.T, capacity int, seed int64) (tb *Table, d *buffer.SimDisk, live, dead []storage.RID) {
	t.Helper()
	tb, d = newTable(t, capacity)
	pages := 10
	if capacity > 8 {
		pages = capacity * 3 / 2
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; tb.NumPages() < pages; i++ {
		rid, err := tb.Insert(row(int64(i), strings.Repeat(string(rune('a'+i%26)), rng.Intn(301))))
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, rid)
	}
	for k := len(live) - 1; k >= 0; k-- {
		if rng.Intn(20) == 0 {
			if err := tb.Delete(live[k]); err != nil {
				t.Fatal(err)
			}
			dead = append(dead, live[k])
			live = slices.Delete(live, k, k+1)
		}
	}
	slices.SortFunc(dead, storage.RID.Compare)
	return tb, d, live, dead
}

// sampleRun returns a sorted random run of 1 to 40 of rids, all on one
// page half of the time.
func sampleRun(rng *rand.Rand, rids []storage.RID) []storage.RID {
	pick := rids
	if rng.Intn(2) == 0 {
		p := rids[rng.Intn(len(rids))].Page
		lo := slices.IndexFunc(rids, func(r storage.RID) bool { return r.Page == p })
		hi := lo
		for hi < len(rids) && rids[hi].Page == p {
			hi++
		}
		pick = rids[lo:hi]
	}
	n := 1 + rng.Intn(min(40, len(pick)))
	run := make([]storage.RID, 0, n)
	for _, k := range rng.Perm(len(pick))[:n] {
		run = append(run, pick[k])
	}
	slices.SortFunc(run, storage.RID.Compare)
	return run
}

// getEach is the per-row reference read: Get of each RID in turn, up to
// the first error.
func getEach(tb *Table, rids []storage.RID) ([]string, error) {
	var out []string
	for _, rid := range rids {
		tu, err := tb.Get(rid)
		if err != nil {
			return out, err
		}
		out = append(out, tu.String())
	}
	return out, nil
}

// readRows is ReadRows collecting what fn is handed, checking that it is
// handed the rows in order.
func readRows(t *testing.T, tb *Table, rids []storage.RID) ([]string, error) {
	t.Helper()
	var out []string
	err := tb.ReadRows(rids, func(k int, tu storage.Tuple) {
		if k != len(out) {
			t.Errorf("ReadRows handed row %d after %d rows", k, len(out))
		}
		out = append(out, tu.String())
	})
	return out, err
}

// errString renders err for comparison; nil renders empty.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkSame asserts ReadRows of rids returns what per-row Get returns:
// the same tuples, in order, and the same error. It returns the error.
func checkSame(t *testing.T, label string, tb *Table, rids []storage.RID) error {
	t.Helper()
	want, werr := getEach(tb, rids)
	got, gerr := readRows(t, tb, rids)
	if errString(gerr) != errString(werr) || !slices.Equal(got, want) {
		t.Fatalf("%s: ReadRows(%v) = %d rows, %v; per-row Get %d rows, %v", label, rids, len(got), gerr, len(want), werr)
	}
	return gerr
}

// withFaultyRow returns a sorted run over rids that includes target and
// rows before and after it.
func withFaultyRow(rng *rand.Rand, rids []storage.RID, target storage.RID) []storage.RID {
	run := append(sampleRun(rng, rids), target)
	slices.SortFunc(run, storage.RID.Compare)
	return slices.Compact(run)
}

// TestReadRowsMatchesGet: over seeded sorted RID runs on pools of 1 to
// 8 frames, where a run pins one page, and of 192 frames, where it pins
// up to three, ReadRows hands over exactly the tuples per-row Get returns
// and fails with the same error, for runs on one page and across pages,
// runs holding a dead slot or an out-of-range RID, and runs over a page
// that fails Validate — a dirtied resident frame or a page reloaded from
// a corrupted store image — or holds a tuple that fails to decode. On
// a twin table, a run that succeeds has the pool effects of one Fetch
// and Unpin per distinct page: the same misses, evictions and
// write-backs as per-row Get, and one hit per page instead of per row.
func TestReadRowsMatchesGet(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 4, 5, 6, 7, 8, 192} {
		t.Run(fmt.Sprintf("cap%d", capacity), func(t *testing.T) {
			seed := int64(capacity)
			rng := rand.New(rand.NewSource(seed))
			get, _, live, _ := rowsFixture(t, capacity, seed)
			read, _, _, _ := rowsFixture(t, capacity, seed)
			var pageHits uint64 // per-row Get's hits on a page it just read
			for i := 0; i < 200; i++ {
				if i%10 == 9 { // a write the next evictions must write back
					k := rng.Intn(len(live))
					tu := row(int64(i), strings.Repeat("u", rng.Intn(400)))
					moved, err := get.Update(live[k], tu)
					if err != nil {
						t.Fatal(err)
					}
					if twin, err := read.Update(live[k], tu); err != nil || twin != moved {
						t.Fatalf("twin update moved %v to %v, %v; want %v", live[k], twin, err, moved)
					}
					live[k] = moved
					slices.SortFunc(live, storage.RID.Compare)
					continue
				}
				run := sampleRun(rng, live)
				want, werr := getEach(get, run)
				got, gerr := readRows(t, read, run)
				if werr != nil || gerr != nil || !slices.Equal(got, want) {
					t.Fatalf("run %d %v: ReadRows %d rows, %v; per-row Get %d rows, %v", i, run, len(got), gerr, len(want), werr)
				}
				for k := 1; k < len(run); k++ {
					if run[k].Page == run[k-1].Page {
						pageHits++
					}
				}
				gs, rs := get.pool.Stats(), read.pool.Stats()
				if rs.Misses != gs.Misses || rs.Evictions != gs.Evictions || rs.Flushes != gs.Flushes || rs.Hits+pageHits != gs.Hits {
					t.Fatalf("run %d %v: ReadRows pool %+v, per-row Get %+v (%d same-page hits)", i, run, rs, gs, pageHits)
				}
			}

			// The faults run on fresh tables: an update may have moved a
			// row into a dead slot.
			tb, _, live, dead := rowsFixture(t, capacity, seed)
			numPages := storage.PageID(tb.NumPages())
			for i := 0; i < 20; i++ {
				if err := checkSame(t, "dead slot", tb, withFaultyRow(rng, live, dead[rng.Intn(len(dead))])); err == nil {
					t.Fatal("dead slot read without error")
				}
				p := live[rng.Intn(len(live))].Page
				for _, bad := range []storage.RID{{Page: numPages, Slot: 0}, {Page: p, Slot: 999}, storage.InvalidRID} {
					if err := checkSame(t, "out of range", tb, withFaultyRow(rng, live, bad)); err == nil {
						t.Fatalf("out-of-range RID %v read without error", bad)
					}
				}
			}

			// A dirtied frame: break a checked, resident page's directory.
			target := live[rng.Intn(len(live))]
			tb, _, live, _ = rowsFixture(t, capacity, seed)
			checkSame(t, "before the fault", tb, []storage.RID{target})
			f, err := tb.pool.Fetch(target.Page)
			if err != nil {
				t.Fatal(err)
			}
			breakSlot(t, f.Data(), target.Page, 0)
			f.MarkDirty()
			tb.pool.Unpin(f)
			for i := 0; i < 5; i++ {
				if err := checkSame(t, "dirtied frame", tb, withFaultyRow(rng, live, target)); err == nil {
					t.Fatal("broken page read without error")
				}
			}

			// A reloaded page: corrupt the store image of an evicted page.
			tb, d, live, _ := rowsFixture(t, capacity, seed)
			for p := storage.PageID(0); p < numPages; p++ {
				if p != target.Page {
					if err := loadPage(tb, p); err != nil {
						t.Fatal(err)
					}
				}
			}
			img := make([]byte, buffer.PageSize)
			if err := d.Read(target.Page, img); err != nil {
				t.Fatal(err)
			}
			breakSlot(t, img, target.Page, 0)
			if err := d.Write(target.Page, img); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if err := checkSame(t, "reloaded page", tb, withFaultyRow(rng, live, target)); err == nil {
					t.Fatal("corrupted page read without error")
				}
			}

			// A tuple whose VARCHAR length runs past its slot: Validate
			// passes, the decode fails.
			tb, _, live, _ = rowsFixture(t, capacity, seed)
			f, err = tb.pool.Fetch(target.Page)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := AsPage(f.Data())
			if err != nil {
				t.Fatal(err)
			}
			raw, err := sp.Tuple(int(target.Slot))
			if err != nil {
				t.Fatal(err)
			}
			raw[8], raw[9] = 0xff, 0xff
			f.MarkDirty()
			tb.pool.Unpin(f)
			for i := 0; i < 5; i++ {
				if err := checkSame(t, "undecodable tuple", tb, withFaultyRow(rng, live, target)); err == nil {
					t.Fatal("undecodable tuple read without error")
				}
			}
		})
	}
}

// TestReadRowsConcurrentColdFetch: two readers read long runs of a
// table twice the size of a 3-frame pool while a third goroutine keeps
// fetching cold pages and holding each for a moment. A run holds one pin
// on a pool this small and drops it before a load, so with at most three
// pins outstanding every load finds a victim: no read and no fetch sees
// the pool exhausted, and every row comes back intact.
func TestReadRowsConcurrentColdFetch(t *testing.T) {
	tb, _ := newTable(t, 3)
	var rids []storage.RID
	for i := 0; tb.NumPages() < 6; i++ {
		rid, err := tb.Insert(row(int64(i), strings.Repeat("p", 300)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	numPages := tb.NumPages()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // the cold fetcher
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			f, err := tb.pool.Fetch(storage.PageID(i % numPages))
			if err != nil {
				t.Errorf("cold fetch of page %d: %v", i%numPages, err)
				return
			}
			if len(f.Data()) != buffer.PageSize {
				t.Errorf("cold fetch of page %d holds %d bytes", f.ID(), len(f.Data()))
			}
			tb.pool.Unpin(f)
		}
	}()
	var readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			for i := 0; i < 100; i++ {
				lo := (w*7 + i*3) % (len(rids) / 2)
				run := rids[lo : lo+len(rids)/2]
				n := 0
				err := tb.ReadRows(run, func(k int, tu storage.Tuple) {
					if want := int64(lo + k); tu.Value(0).Int64() != want {
						t.Errorf("ReadRows row %d = %d, want %d", k, tu.Value(0).Int64(), want)
					}
					n++
				})
				if err != nil || n != len(run) {
					t.Errorf("ReadRows of %d rows: %d rows, %v", len(run), n, err)
					return
				}
			}
		}(w)
	}
	readers.Wait()
	close(stop)
	wg.Wait()
}
