package buffer

import (
	"bytes"
	"errors"
	"path/filepath"
	"sync"
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
