package buffer

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

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
	lsn   uint64 // log record that last logged the page; 0 = none

	// checked is set by SetChecked and cleared by MarkDirty. A load or
	// an Allocate builds a new Frame, so a new image starts unchecked.
	// It is atomic because readers holding only a shared heap lock set
	// it concurrently.
	checked atomic.Bool

	// prev and next link the frame into the pool's eviction list while
	// it is unpinned, and are nil while it is pinned.
	prev, next *Frame

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
// store before the frame is recycled. The modified image is no longer
// checked.
func (f *Frame) MarkDirty() {
	f.dirty = true
	f.checked.Store(false)
}

// Checked reports whether SetChecked was called since the image was
// loaded, allocated or last marked dirty.
func (f *Frame) Checked() bool { return f.checked.Load() }

// SetChecked records that the current image passed the caller's
// structural check, so readers of the unchanged image can skip it.
func (f *Frame) SetChecked() { f.checked.Store(true) }

// SetLSN notes the log record that last logged the page. Write-back of
// the frame first forces the log through that record (see
// Pool.SetWriteAhead). Like MarkDirty, it is called with the frame
// pinned.
func (f *Frame) SetLSN(lsn uint64) { f.lsn = lsn }

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
	// lru is the sentinel of the circular eviction list of unpinned
	// frames: lru.next is the least recently used, lru.prev the most.
	// Linking a frame in or out allocates nothing.
	lru   Frame
	stats PoolStats

	// writeAhead, when set, forces the log through a frame's LSN before
	// the frame's image is written back: the write-ahead rule. It runs
	// under mu, so it must never take the pool's lock.
	writeAhead func(lsn uint64) error
}

// NewPool creates a pool holding at most capacity pages. Capacity must be
// at least 1.
func NewPool(store Store, capacity int) (*Pool, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("buffer: pool capacity %d, want >= 1", capacity)
	}
	p := &Pool{
		store:    store,
		capacity: capacity,
		frames:   make(map[storage.PageID]*Frame, capacity),
	}
	p.lru.prev, p.lru.next = &p.lru, &p.lru
	return p, nil
}

// pushBackLocked links f in as the most recently used unpinned frame.
func (p *Pool) pushBackLocked(f *Frame) {
	f.prev, f.next = p.lru.prev, &p.lru
	f.prev.next = f
	p.lru.prev = f
}

// unlinkLocked takes f out of the eviction list.
func (p *Pool) unlinkLocked(f *Frame) {
	f.prev.next = f.next
	f.next.prev = f.prev
	f.prev, f.next = nil, nil
}

// SetWriteAhead installs the write-ahead hook: before a dirty frame is
// written back (eviction or FlushAll), force(lsn) must make the log
// durable through the frame's LSN. Call it before the pool is shared.
func (p *Pool) SetWriteAhead(force func(lsn uint64) error) { p.writeAhead = force }

// writeBackLocked writes one dirty frame to the store, forcing the log
// through the frame's LSN first.
func (p *Pool) writeBackLocked(f *Frame) error {
	if p.writeAhead != nil && f.lsn != 0 {
		if err := p.writeAhead(f.lsn); err != nil {
			return fmt.Errorf("log force: %w", err)
		}
	}
	if err := p.store.Write(f.id, f.data); err != nil {
		return err
	}
	p.stats.Flushes++
	f.dirty = false
	return nil
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
		p.pinLocked(f) // pin before waiting so the loading frame cannot be evicted
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

// PinOrRead is Fetch for a reader that brings its own PageSize image
// buf. When page id is resident and loaded it pins and returns its frame,
// as Fetch would; otherwise it counts a miss, reads the page from the
// store into buf outside the latch and returns a nil frame. A page read
// into buf never enters the frame map or the eviction list, so a scan
// that reads past the pool neither evicts nor allocates. Store faults
// are returned as Fetch returns them.
//
// buf holds the page's latest image only while no one can change the
// page: a page absent from the frame map, or still loading there, has
// its latest bytes in the store (eviction writes a dirty victim back
// before it unmaps it), and the caller must exclude every writer of the
// page until it is done with buf.
func (p *Pool) PinOrRead(id storage.PageID, buf []byte) (*Frame, error) {
	p.mu.Lock()
	if f, ok := p.frames[id]; ok && f.ready == nil {
		p.pinLocked(f)
		p.mu.Unlock()
		return f, nil
	}
	p.stats.Misses++
	p.mu.Unlock()
	return nil, p.store.Read(id, buf)
}

// pinLocked pins resident frame f, counting a hit.
func (p *Pool) pinLocked(f *Frame) {
	p.stats.Hits++
	if f.pins == 0 { // every unpinned resident frame is linked
		p.unlinkLocked(f)
	}
	f.pins++
}

// PinResident pins the pages ids[0], ids[1], ... in one latch section
// for as long as each is resident and loaded, at most len(frames) of
// them, stores their frames in frames, and returns how many it pinned.
// Each pin is a hit, as if Fetch had been called for the page; a page
// that is absent or still loading ends the run, so PinResident never
// reads, evicts or waits. Release the pins with Unpin or UnpinRun.
func (p *Pool) PinResident(ids []storage.PageID, frames []*Frame) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for n < len(ids) && n < len(frames) {
		f, ok := p.frames[ids[n]]
		if !ok || f.ready != nil {
			break
		}
		p.pinLocked(f)
		frames[n] = f
		n++
	}
	return n
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
	p.unpinLocked(f)
}

// UnpinRun releases one pin on each of frames, in order, in one latch
// section: the same effect as an Unpin of each in turn.
func (p *Pool) UnpinRun(frames []*Frame) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range frames {
		p.unpinLocked(f)
	}
}

func (p *Pool) unpinLocked(f *Frame) {
	if f.pins <= 0 {
		panic(fmt.Sprintf("buffer: Unpin of page %d with %d pins", f.id, f.pins))
	}
	f.pins--
	if f.pins == 0 {
		p.pushBackLocked(f)
	}
}

// evictOneLocked writes back and drops the least recently used unpinned
// frame and returns its page image for the incoming page to reuse. The
// evicted Frame loses its image, so a use after Unpin panics instead of
// reading another page's bytes. It fails if every frame is pinned, or if
// the victim's writeback fails — the victim then stays resident at the
// front of the LRU list, still evictable once the store recovers.
func (p *Pool) evictOneLocked() ([]byte, error) {
	f := p.lru.next
	if f == &p.lru {
		return nil, fmt.Errorf("buffer: pool exhausted: all %d frames pinned", p.capacity)
	}
	if f.dirty {
		if err := p.writeBackLocked(f); err != nil {
			return nil, fmt.Errorf("buffer: writeback of page %d: %w", f.id, err)
		}
	}
	p.unlinkLocked(f)
	delete(p.frames, f.id)
	p.stats.Evictions++
	data := f.data
	f.data = nil
	return data, nil
}

// FlushAll writes every dirty frame back to the store in page-id order,
// so a checkpoint's writes reach the device sequentially and in the same
// order on every run. It stops at the first failed write-back. Pinned
// frames are flushed but stay resident.
func (p *Pool) FlushAll() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var dirty []*Frame
	for _, f := range p.frames {
		if f.dirty {
			dirty = append(dirty, f)
		}
	}
	slices.SortFunc(dirty, func(a, b *Frame) int { return cmp.Compare(a.id, b.id) })
	for _, f := range dirty {
		if err := p.writeBackLocked(f); err != nil {
			return fmt.Errorf("buffer: flush of page %d: %w", f.id, err)
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
