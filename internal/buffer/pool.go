package buffer

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/storage"
)

// Frame is a pinned page in the buffer pool. The caller owns the frame
// until Unpin; Data returns the live page image, and MarkDirty schedules
// writeback on eviction or flush.
type Frame struct {
	id    storage.PageID
	data  []byte
	pins  int
	dirty bool
	lru   *list.Element // position in the pool's eviction list when unpinned

	// ready is non-nil while the frame's store read is in flight: the
	// loading fetcher closes it once data is populated (or loadErr set),
	// and concurrent fetchers of the same page wait on it instead of
	// issuing a second read. A nil ready means the frame is loaded.
	ready   chan struct{}
	loadErr error // set before ready is closed when the store read failed
}

// ID returns the page id held by the frame.
func (f *Frame) ID() storage.PageID { return f.id }

// Data returns the page image. The slice is valid while the frame is
// pinned; callers must not retain it past Unpin — the pool hands an
// evicted frame's image to the next page it loads, and Data of the
// evicted frame returns nil.
func (f *Frame) Data() []byte { return f.data }

// MarkDirty records that the page image was modified and must reach the
// store before the frame is recycled.
func (f *Frame) MarkDirty() { f.dirty = true }

// PoolStats is a snapshot of buffer pool activity.
type PoolStats struct {
	Hits      uint64 // fetches served from memory
	Misses    uint64 // fetches that read from the store
	Evictions uint64 // frames recycled to make room
	Flushes   uint64 // dirty pages written back
}

// Pool is an LRU buffer pool over a Store. It models the paper's
// "database buffer": table pages are fetched through it, and the Index
// Buffer Space is accounted as a share of the same memory budget (the
// entry-count budget lives in internal/core; the pool only serves pages).
//
// Pool is safe for concurrent use.
type Pool struct {
	mu       sync.Mutex
	store    Store
	capacity int
	frames   map[storage.PageID]*Frame
	evict    *list.List // unpinned frames, front = least recently used
	stats    PoolStats
}

// NewPool creates a pool holding at most capacity pages. Capacity must be
// at least 1.
func NewPool(store Store, capacity int) (*Pool, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("buffer: pool capacity %d, want >= 1", capacity)
	}
	return &Pool{
		store:    store,
		capacity: capacity,
		frames:   make(map[storage.PageID]*Frame, capacity),
		evict:    list.New(),
	}, nil
}

// Capacity returns the configured frame count.
func (p *Pool) Capacity() int { return p.capacity }

// Stats returns a snapshot of pool counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Fetch pins page id into memory and returns its frame. Every Fetch must
// be paired with an Unpin.
//
// The store read of a miss happens outside the pool mutex: concurrent
// fetches of distinct cold pages overlap their device I/O (the property
// parallel scans depend on — a pool-wide lock held across a simulated
// device's read latency would serialize every worker). Concurrent
// fetches of the same cold page coalesce: the first issues the read,
// the rest wait on the frame's ready channel and share the result.
func (p *Pool) Fetch(id storage.PageID) (*Frame, error) {
	p.mu.Lock()

	if f, ok := p.frames[id]; ok {
		p.stats.Hits++
		if f.pins == 0 && f.lru != nil {
			p.evict.Remove(f.lru)
			f.lru = nil
		}
		f.pins++ // pin before waiting so the loading frame cannot be evicted
		ready := f.ready
		p.mu.Unlock()
		if ready != nil {
			<-ready
			// loadErr is published before ready is closed; the channel
			// receive orders this read after that write.
			if f.loadErr != nil {
				return nil, f.loadErr
			}
		}
		return f, nil
	}

	p.stats.Misses++
	data, err := p.frameDataLocked()
	if err != nil {
		p.mu.Unlock()
		return nil, err
	}
	f := &Frame{id: id, data: data, pins: 1, ready: make(chan struct{})}
	p.frames[id] = f
	p.mu.Unlock()

	err = p.store.Read(id, f.data)

	p.mu.Lock()
	if err != nil {
		// Orphan the frame: waiters already holding a pin observe loadErr
		// and return it; the frame is no longer reachable or evictable.
		f.loadErr = err
		delete(p.frames, id)
	}
	ready := f.ready
	f.ready = nil
	p.mu.Unlock()
	close(ready)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Allocate creates a new zeroed page in the store and returns it pinned.
func (p *Pool) Allocate() (*Frame, error) {
	id, err := p.store.Allocate()
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	data, err := p.frameDataLocked()
	if err != nil {
		return nil, err
	}
	clear(data) // a recycled image still holds the evicted page
	f := &Frame{id: id, data: data, pins: 1}
	p.frames[id] = f
	return f, nil
}

// frameDataLocked returns the PageSize buffer for a frame about to be
// loaded: a fresh one while the pool is below capacity, otherwise the
// image of the frame evicted to make room. Recycling the image keeps a
// scan that misses on every page from allocating 8 KiB per page.
func (p *Pool) frameDataLocked() ([]byte, error) {
	if len(p.frames) < p.capacity {
		return make([]byte, PageSize), nil
	}
	return p.evictOneLocked()
}

// Unpin releases one pin on the frame. When the pin count reaches zero
// the frame becomes eligible for eviction.
func (p *Pool) Unpin(f *Frame) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f.pins <= 0 {
		panic(fmt.Sprintf("buffer: Unpin of page %d with %d pins", f.id, f.pins))
	}
	f.pins--
	if f.pins == 0 {
		f.lru = p.evict.PushBack(f)
	}
}

// evictOneLocked writes back and drops the least recently used unpinned
// frame and returns its page image for the incoming page to reuse. The
// evicted Frame loses its image, so a use after Unpin panics instead of
// reading another page's bytes. It fails if every frame is pinned, or if
// the victim's writeback fails — the victim then stays resident at the
// front of the LRU list, still evictable once the store recovers.
func (p *Pool) evictOneLocked() ([]byte, error) {
	el := p.evict.Front()
	if el == nil {
		return nil, fmt.Errorf("buffer: pool exhausted: all %d frames pinned", p.capacity)
	}
	f := el.Value.(*Frame)
	if f.dirty {
		if err := p.store.Write(f.id, f.data); err != nil {
			return nil, fmt.Errorf("buffer: writeback of page %d: %w", f.id, err)
		}
		p.stats.Flushes++
		f.dirty = false
	}
	p.evict.Remove(el)
	f.lru = nil
	delete(p.frames, f.id)
	p.stats.Evictions++
	data := f.data
	f.data = nil
	return data, nil
}

// FlushAll writes every dirty frame back to the store. Pinned frames are
// flushed but stay resident.
func (p *Pool) FlushAll() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range p.frames {
		if f.dirty {
			if err := p.store.Write(f.id, f.data); err != nil {
				return fmt.Errorf("buffer: flush of page %d: %w", f.id, err)
			}
			p.stats.Flushes++
			f.dirty = false
		}
	}
	return nil
}

// DirtyCount returns the number of resident frames with unflushed
// modifications. The checkpointer uses it to decide whether a flush
// pass would do any work.
func (p *Pool) DirtyCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, f := range p.frames {
		if f.dirty {
			n++
		}
	}
	return n
}

// Resident returns the number of pages currently held in memory.
func (p *Pool) Resident() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.frames)
}
