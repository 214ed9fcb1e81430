package buffer

import (
	"bytes"
	"errors"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/storage"
)

func newPoolT(t *testing.T, capacity, pages int) (*Pool, *SimDisk) {
	t.Helper()
	d := NewSimDisk()
	for i := 0; i < pages; i++ {
		if _, err := d.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	p, err := NewPool(d, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return p, d
}

func TestNewPoolRejectsZeroCapacity(t *testing.T) {
	if _, err := NewPool(NewSimDisk(), 0); err == nil {
		t.Error("capacity 0 should fail")
	}
}

func TestPoolFetchHitMiss(t *testing.T) {
	p, _ := newPoolT(t, 2, 2)
	f, err := p.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID() != 0 {
		t.Errorf("frame id = %d", f.ID())
	}
	p.Unpin(f)
	f2, err := p.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f2)
	s := p.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss then 1 hit", s)
	}
}

func TestPoolEvictsLRU(t *testing.T) {
	p, d := newPoolT(t, 2, 3)
	for _, id := range []storage.PageID{0, 1} {
		f, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(f)
	}
	// Touch page 0 so page 1 is LRU.
	f, _ := p.Fetch(0)
	p.Unpin(f)
	// Fetching page 2 must evict page 1.
	f2, err := p.Fetch(2)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f2)
	if p.Resident() != 2 {
		t.Errorf("resident = %d, want 2", p.Resident())
	}
	base := d.Stats()
	f0, _ := p.Fetch(0) // still resident: no device read
	p.Unpin(f0)
	if got := d.Stats().Sub(base).Reads; got != 0 {
		t.Errorf("page 0 refetch caused %d device reads, want 0", got)
	}
	f1, _ := p.Fetch(1) // evicted: device read
	p.Unpin(f1)
	if got := d.Stats().Sub(base).Reads; got != 1 {
		t.Errorf("page 1 refetch caused %d device reads, want 1", got)
	}
}

func TestPoolWritebackOnEvict(t *testing.T) {
	p, d := newPoolT(t, 1, 2)
	f, err := p.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[0] = 0xAB
	f.MarkDirty()
	p.Unpin(f)
	// Force eviction of page 0.
	f1, err := p.Fetch(1)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f1)
	buf := make([]byte, PageSize)
	if err := d.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xAB {
		t.Error("dirty page not written back on eviction")
	}
	if p.Stats().Flushes != 1 {
		t.Errorf("flushes = %d, want 1", p.Stats().Flushes)
	}
}

// TestPoolWriteAheadHook: both write-back sites force the log through
// the frame's LSN before the store write, skip frames no record images,
// and keep the frame dirty when the force fails.
func TestPoolWriteAheadHook(t *testing.T) {
	p, d := newPoolT(t, 1, 3)
	var forced []uint64
	var fail error
	p.SetWriteAhead(func(lsn uint64) error {
		forced = append(forced, lsn)
		return fail
	})
	dirty := func(id storage.PageID, lsn uint64) {
		t.Helper()
		f, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		f.MarkDirty()
		f.SetLSN(lsn)
		p.Unpin(f)
	}
	dirty(0, 7)
	dirty(1, 0) // evicts page 0 after forcing LSN 7; page 1 has no record
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if len(forced) != 1 || forced[0] != 7 {
		t.Fatalf("forced %v, want [7]", forced)
	}
	if w := d.Stats().Writes; w != 2 {
		t.Fatalf("store writes = %d, want 2", w)
	}

	fail = errors.New("log down")
	dirty(2, 9)
	if err := p.FlushAll(); !errors.Is(err, fail) {
		t.Fatalf("FlushAll with failing force = %v", err)
	}
	if w := d.Stats().Writes; w != 2 {
		t.Fatalf("page written despite the failed force: %d writes", w)
	}
	if p.DirtyCount() != 1 {
		t.Fatal("frame lost its dirty mark with the failed force")
	}
}

func TestPoolAllPinnedFails(t *testing.T) {
	p, _ := newPoolT(t, 1, 2)
	f, err := p.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Fetch(1); err == nil {
		t.Error("fetch with all frames pinned should fail")
	}
	p.Unpin(f)
	if _, err := p.Fetch(1); err != nil {
		t.Errorf("fetch after unpin: %v", err)
	}
}

func TestPoolAllocate(t *testing.T) {
	p, d := newPoolT(t, 2, 0)
	f, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[7] = 9
	f.MarkDirty()
	p.Unpin(f)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := d.Read(f.ID(), buf); err != nil {
		t.Fatal(err)
	}
	if buf[7] != 9 {
		t.Error("FlushAll did not persist allocated page")
	}
}

func TestPoolUnpinUnderflowPanics(t *testing.T) {
	p, _ := newPoolT(t, 1, 1)
	f, err := p.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f)
	defer func() {
		if recover() == nil {
			t.Error("double unpin should panic")
		}
	}()
	p.Unpin(f)
}

func TestPoolConcurrentFetch(t *testing.T) {
	const pages = 16
	p, _ := newPoolT(t, 4, pages)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := storage.PageID((seed + i) % pages)
				f, err := p.Fetch(id)
				if err != nil {
					// All-pinned is possible under contention; retry.
					continue
				}
				if f.ID() != id {
					t.Errorf("fetched %d, want %d", f.ID(), id)
				}
				p.Unpin(f)
			}
		}(g)
	}
	wg.Wait()
}

// pageImage is the distinct byte pattern the recycling tests store in
// page id, so a frame showing another page's bytes is caught.
func pageImage(id int) []byte {
	img := make([]byte, PageSize)
	for i := range img {
		img[i] = byte(id*31 + i)
	}
	return img
}

// writeImages stores pageImage(i) in each of pages store pages.
func writeImages(t *testing.T, s Store, pages int) {
	t.Helper()
	for i := 0; i < pages; i++ {
		if _, err := s.Allocate(); err != nil {
			t.Fatal(err)
		}
		if err := s.Write(storage.PageID(i), pageImage(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// fetchExpect fetches id and checks the frame holds exactly want.
func fetchExpect(t *testing.T, p *Pool, id storage.PageID, want []byte) {
	t.Helper()
	f, err := p.Fetch(id)
	if err != nil {
		t.Fatalf("fetch %d: %v", id, err)
	}
	defer p.Unpin(f)
	if !bytes.Equal(f.Data(), want) {
		t.Fatalf("page %d: frame does not hold the store's image", id)
	}
}

// TestPoolRecycleRefetchReadsStore cycles a small pool over more pages
// than it holds, so every miss loads into an evicted frame's buffer, and
// checks each fetch sees its own page's image on both stores.
func TestPoolRecycleRefetchReadsStore(t *testing.T) {
	fs, err := OpenFileStore(filepath.Join(t.TempDir(), "pages"))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for name, s := range map[string]Store{"simdisk": NewSimDisk(), "filestore": fs} {
		t.Run(name, func(t *testing.T) {
			const pages = 5
			writeImages(t, s, pages)
			p, err := NewPool(s, 2)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 3; round++ {
				for i := 0; i < pages; i++ {
					fetchExpect(t, p, storage.PageID(i), pageImage(i))
				}
			}
			if p.Stats().Evictions == 0 {
				t.Error("no eviction: the test never recycled a frame")
			}
		})
	}
}

// TestPoolRecycleDirtyWritebackFirst: a dirty page evicted under
// pressure reaches the store before its buffer takes the next page.
func TestPoolRecycleDirtyWritebackFirst(t *testing.T) {
	d := NewSimDisk()
	writeImages(t, d, 2)
	p, err := NewPool(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := p.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	dirty := pageImage(7)
	copy(f.Data(), dirty)
	f.MarkDirty()
	p.Unpin(f)
	fetchExpect(t, p, 1, pageImage(1)) // evicts page 0 into page 1's load
	got := make([]byte, PageSize)
	if err := d.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, dirty) {
		t.Error("dirty page 0 did not reach the store before its buffer was reused")
	}
	fetchExpect(t, p, 0, dirty)
}

// TestPoolRecycleEvictedDataNil: once its image moved to another page,
// an evicted frame has none, so a use after Unpin cannot read it.
func TestPoolRecycleEvictedDataNil(t *testing.T) {
	p, _ := newPoolT(t, 1, 2)
	f0, err := p.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f0)
	f1, err := p.Fetch(1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Unpin(f1)
	if f0.Data() != nil {
		t.Error("evicted frame still exposes a page image")
	}
}

// TestPoolRecycleAllocateZeroed: Allocate returns a zeroed page even
// when its buffer last held another page's bytes.
func TestPoolRecycleAllocateZeroed(t *testing.T) {
	d := NewSimDisk()
	writeImages(t, d, 1)
	p, err := NewPool(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	fetchExpect(t, p, 0, pageImage(0))
	f, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Unpin(f)
	if !bytes.Equal(f.Data(), make([]byte, PageSize)) {
		t.Error("allocated page over a recycled buffer is not zeroed")
	}
}

// TestPoolRecycleAfterReadFault: a read that fails into a recycled
// buffer leaves nothing behind, and the next fetch of that page reads it
// correctly.
func TestPoolRecycleAfterReadFault(t *testing.T) {
	d := NewSimDisk()
	writeImages(t, d, 2)
	fs := NewFaultStore(d)
	p, err := NewPool(fs, 1)
	if err != nil {
		t.Fatal(err)
	}
	fetchExpect(t, p, 0, pageImage(0))
	fs.SetReadsLeft(0)
	if _, err := p.Fetch(1); !errors.Is(err, ErrInjected) {
		t.Fatalf("fetch under read fault = %v, want injected", err)
	}
	fs.SetReadsLeft(-1)
	fetchExpect(t, p, 1, pageImage(1))
	fetchExpect(t, p, 0, pageImage(0))
}

// TestPoolConcurrentHitsAndEvictions: goroutines fetch hot (mostly
// resident) and cold pages through a pool smaller than the page set, so
// hits, coalesced loads and evictions interleave. Every pinned frame
// must hold its own page's bytes, and at the end no pin is left, the
// pool is within capacity and its eviction list links exactly the
// resident frames.
func TestPoolConcurrentHitsAndEvictions(t *testing.T) {
	const pages, workers, iters = 12, 4, 1000
	d := NewSimDisk()
	writeImages(t, d, pages)
	p, err := NewPool(d, workers) // one pin per worker: a victim always exists
	if err != nil {
		t.Fatal(err)
	}
	images := make([][]byte, pages)
	for i := range images {
		images[i] = pageImage(i)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := (w + i) % 2 // hot pages 0 and 1
				if i%3 == 0 {
					id = 2 + (w*7+i)%(pages-2)
				}
				f, err := p.Fetch(storage.PageID(id))
				if err != nil {
					t.Errorf("fetch %d: %v", id, err)
					return
				}
				if !bytes.Equal(f.Data(), images[id]) {
					t.Errorf("pinned page %d does not hold its own image", id)
				}
				p.Unpin(f)
			}
		}(w)
	}
	wg.Wait()

	if r := p.Resident(); r > p.Capacity() {
		t.Errorf("Resident() = %d > Capacity() = %d", r, p.Capacity())
	}
	if s := p.Stats(); s.Evictions == 0 || s.Hits == 0 {
		t.Errorf("stats %+v: want both hits and evictions", s)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for id, f := range p.frames {
		if f.pins != 0 {
			t.Errorf("page %d left with %d pins", id, f.pins)
		}
	}
	linked := 0
	for f := p.lru.next; f != &p.lru; f = f.next {
		if p.frames[f.id] != f {
			t.Errorf("eviction list links page %d, which is not resident", f.id)
		}
		linked++
	}
	if linked != len(p.frames) {
		t.Errorf("eviction list links %d frames, %d resident", linked, len(p.frames))
	}
}

// TestFrameRevalidatedAfterLoadAllocateDirty: the checked mark is the
// caller's to set; a loaded page, an allocated page and a page reloaded
// after eviction all start unchecked, and MarkDirty clears it.
func TestFrameRevalidatedAfterLoadAllocateDirty(t *testing.T) {
	p, _ := newPoolT(t, 1, 2)
	fetch := func() *Frame {
		t.Helper()
		f, err := p.Fetch(0)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f := fetch()
	if f.Checked() {
		t.Error("freshly loaded frame is checked")
	}
	f.SetChecked()
	p.Unpin(f)
	if f = fetch(); !f.Checked() {
		t.Error("a hit lost the checked mark")
	}
	f.MarkDirty()
	if f.Checked() {
		t.Error("MarkDirty left the frame checked")
	}
	f.SetChecked()
	p.Unpin(f)

	a, err := p.Allocate() // evicts page 0
	if err != nil {
		t.Fatal(err)
	}
	if a.Checked() {
		t.Error("allocated frame is checked")
	}
	p.Unpin(a)
	if f = fetch(); f.Checked() {
		t.Error("page reloaded after eviction is checked")
	}
	p.Unpin(f)
}

// TestPoolResidentFetchAllocs pins a resident Fetch+Unpin at zero
// allocations: relinking the frame into the eviction list allocates
// nothing.
func TestPoolResidentFetchAllocs(t *testing.T) {
	p, _ := newPoolT(t, 4, 4)
	for id := storage.PageID(0); id < 4; id++ {
		fetchUnpin(t, p, id)
	}
	id := storage.PageID(0)
	allocs := testing.AllocsPerRun(1000, func() {
		f, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(f)
		id = (id + 1) % 4
	})
	if allocs != 0 {
		t.Errorf("resident Fetch+Unpin: %v allocs, want 0", allocs)
	}
}

func fetchUnpin(tb testing.TB, p *Pool, id storage.PageID) {
	tb.Helper()
	f, err := p.Fetch(id)
	if err != nil {
		tb.Fatal(err)
	}
	p.Unpin(f)
}

// BenchmarkPoolFetchResident measures a resident Fetch+Unpin on a
// 4,096-frame pool holding 1,024 pages, each goroutine striding through
// the pages so most fetches touch a cold frame, as a covered hit's rows
// do. Run with -cpu 1,2 to see Pool.mu under two cores.
func BenchmarkPoolFetchResident(b *testing.B) {
	const pages = 1024
	d := NewSimDisk()
	for i := 0; i < pages; i++ {
		if _, err := d.Allocate(); err != nil {
			b.Fatal(err)
		}
	}
	p, err := NewPool(d, 4096)
	if err != nil {
		b.Fatal(err)
	}
	for id := storage.PageID(0); id < pages; id++ {
		fetchUnpin(b, p, id)
	}
	var seq atomic.Uint32
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := seq.Add(1) * 337
		for pb.Next() {
			id = (id + 97) % pages
			f, err := p.Fetch(storage.PageID(id))
			if err != nil {
				b.Error(err)
				return
			}
			p.Unpin(f)
		}
	})
}

// gatedStore blocks the first Read of page gated until release is
// closed.
type gatedStore struct {
	*SimDisk
	gated   storage.PageID
	reading chan struct{} // closed when the gated read starts
	release chan struct{}
	fired   atomic.Bool
}

func (s *gatedStore) Read(id storage.PageID, buf []byte) error {
	if id == s.gated && s.fired.CompareAndSwap(false, true) {
		close(s.reading)
		<-s.release
	}
	return s.SimDisk.Read(id, buf)
}

// TestPoolRunStopsAtLoadingPage: PinResident pins resident pages up to
// the first page that is absent or still being loaded, counting a hit
// for each, and never waits for a load; UnpinRun leaves them unpinned
// in the order given.
func TestPoolRunStopsAtLoadingPage(t *testing.T) {
	d := NewSimDisk()
	writeImages(t, d, 4)
	s := &gatedStore{SimDisk: d, gated: 1, reading: make(chan struct{}), release: make(chan struct{})}
	p, err := NewPool(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	fetchUnpin(t, p, 2)
	fetchUnpin(t, p, 0)
	loaded := make(chan error)
	go func() {
		f, err := p.Fetch(1)
		if err == nil {
			p.Unpin(f)
		}
		loaded <- err
	}()
	<-s.reading

	frames := make([]*Frame, 3)
	if n := p.PinResident([]storage.PageID{2, 0, 1}, frames); n != 2 || frames[0].ID() != 2 || frames[1].ID() != 0 {
		t.Fatalf("PinResident pinned %d frames %v, want pages 2 and 0", n, frames)
	}
	if n := p.PinResident([]storage.PageID{3, 2}, frames); n != 0 {
		t.Fatalf("PinResident pinned %d frames of an absent first page", n)
	}
	if st := p.Stats(); st.Hits != 2 || st.Misses != 3 {
		t.Errorf("stats %+v, want 2 hits and 3 misses", st)
	}
	p.UnpinRun(frames[:2])
	close(s.release)
	if err := <-loaded; err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var order []storage.PageID
	for f := p.lru.next; f != &p.lru; f = f.next {
		order = append(order, f.id)
	}
	if want := []storage.PageID{2, 0, 1}; !slices.Equal(order, want) {
		t.Errorf("eviction order %v, want %v", order, want)
	}
}

// TestPoolBypassPinOrRead: PinOrRead pins a resident, loaded page as
// Fetch would (a hit, the caller's image untouched), and reads a page
// that is absent or still loading from the store into the caller's
// image, counting a miss, with the frame map, the eviction order and
// the eviction count unchanged. A store fault is returned as is.
func TestPoolBypassPinOrRead(t *testing.T) {
	d := NewSimDisk()
	writeImages(t, d, 5)
	fs := NewFaultStore(d)
	s := &gatedStore{SimDisk: d, gated: 1, reading: make(chan struct{}), release: make(chan struct{})}
	p, err := NewPool(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	fetchUnpin(t, p, 2)
	fetchUnpin(t, p, 0)
	loaded := make(chan error)
	go func() {
		f, err := p.Fetch(1)
		if err == nil {
			p.Unpin(f)
		}
		loaded <- err
	}()
	<-s.reading

	buf := make([]byte, PageSize)
	f, err := p.PinOrRead(2, buf)
	if err != nil || f == nil || f.ID() != 2 || !bytes.Equal(f.Data(), pageImage(2)) {
		t.Fatalf("PinOrRead of resident page 2 = %v, %v; want its pinned frame", f, err)
	}
	if !bytes.Equal(buf, make([]byte, PageSize)) {
		t.Error("PinOrRead of a resident page wrote the caller's image")
	}
	p.Unpin(f)
	for _, id := range []storage.PageID{1, 4} { // loading, absent
		if f, err := p.PinOrRead(id, buf); err != nil || f != nil {
			t.Fatalf("PinOrRead of page %d = %v, %v; want a read into the image", id, f, err)
		}
		if !bytes.Equal(buf, pageImage(int(id))) {
			t.Errorf("page %d: image does not hold the store's page", id)
		}
	}
	if st := p.Stats(); st.Hits != 1 || st.Misses != 5 || st.Evictions != 0 {
		t.Errorf("stats %+v, want 1 hit, 5 misses and no eviction", st)
	}
	close(s.release)
	if err := <-loaded; err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	var order []storage.PageID
	for f := p.lru.next; f != &p.lru; f = f.next {
		order = append(order, f.id)
	}
	p.mu.Unlock()
	if want := []storage.PageID{0, 2, 1}; !slices.Equal(order, want) {
		t.Errorf("eviction order %v, want %v", order, want)
	}

	fp, err := NewPool(fs, 2)
	if err != nil {
		t.Fatal(err)
	}
	fs.SetReadsLeft(0)
	if f, err := fp.PinOrRead(3, buf); f != nil || !errors.Is(err, ErrInjected) {
		t.Errorf("PinOrRead over a failing store = %v, %v; want ErrInjected", f, err)
	}
	if n := fp.Resident(); n != 0 {
		t.Errorf("a failed read left %d frames resident", n)
	}
}
