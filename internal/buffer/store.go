// Package buffer provides the I/O substrate of the engine: a page store
// abstraction, a simulated disk with explicit I/O accounting, and an LRU
// buffer pool with pin/unpin semantics.
//
// The paper's evaluation ran on a physical SSD and reported wall-clock
// runtimes. This reproduction replaces the device with SimDisk, which
// stores page images in memory and counts every logical read and write.
// Query "runtime" in the benchmarks is therefore reported both as logical
// page I/O (the quantity that determines the paper's curve shapes) and as
// measured wall-clock time of the in-process engine.
package buffer

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// PageSize is the fixed size of every page in bytes. 8 KiB matches common
// DBMS defaults; with the paper's ~440-byte average tuple this yields
// roughly 18 tuples per page and ~27k pages for the 500k-row table.
const PageSize = 8192

// Store is the device-level page interface. Implementations must be safe
// for concurrent use.
type Store interface {
	// Read copies page id into buf, which must be PageSize bytes.
	Read(id storage.PageID, buf []byte) error
	// Write copies buf (PageSize bytes) into page id.
	Write(id storage.PageID, buf []byte) error
	// Allocate extends the store by one zeroed page and returns its id.
	Allocate() (storage.PageID, error)
	// NumPages returns the number of allocated pages.
	NumPages() int
}

// IOStats is a snapshot of device-level activity.
type IOStats struct {
	Reads  uint64 // pages read from the device
	Writes uint64 // pages written to the device
	Allocs uint64 // pages allocated
}

// Sub returns the component-wise difference s - o, for measuring a window
// of activity between two snapshots.
func (s IOStats) Sub(o IOStats) IOStats {
	return IOStats{Reads: s.Reads - o.Reads, Writes: s.Writes - o.Writes, Allocs: s.Allocs - o.Allocs}
}

// SimDisk is an in-memory page store that behaves like a device: every
// Read/Write is counted, and pages are copied in and out so callers
// cannot alias device memory.
type SimDisk struct {
	mu    sync.RWMutex
	pages [][]byte

	readLatency atomic.Int64 // ns charged per Read

	reads  atomic.Uint64
	writes atomic.Uint64
	allocs atomic.Uint64
}

// SetReadLatency makes every subsequent Read sleep for d, so wall-clock
// measurements take the shape of a real device's (the paper's curves are
// per-query milliseconds on an SSD). Zero disables the charge.
func (d *SimDisk) SetReadLatency(lat time.Duration) {
	d.readLatency.Store(int64(lat))
}

// NewSimDisk returns an empty simulated disk.
func NewSimDisk() *SimDisk { return &SimDisk{} }

// Read implements Store.
func (d *SimDisk) Read(id storage.PageID, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("buffer: Read buffer is %d bytes, want %d", len(buf), PageSize)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) >= len(d.pages) {
		return fmt.Errorf("buffer: read of unallocated page %d (disk has %d pages)", id, len(d.pages))
	}
	copy(buf, d.pages[id])
	d.reads.Add(1)
	if lat := d.readLatency.Load(); lat > 0 {
		time.Sleep(time.Duration(lat))
	}
	return nil
}

// Write implements Store.
func (d *SimDisk) Write(id storage.PageID, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("buffer: Write buffer is %d bytes, want %d", len(buf), PageSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) >= len(d.pages) {
		return fmt.Errorf("buffer: write of unallocated page %d (disk has %d pages)", id, len(d.pages))
	}
	copy(d.pages[id], buf)
	d.writes.Add(1)
	return nil
}

// Allocate implements Store.
func (d *SimDisk) Allocate() (storage.PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.pages) >= int(storage.InvalidPageID) {
		return storage.InvalidPageID, fmt.Errorf("buffer: disk full at %d pages", len(d.pages))
	}
	id := storage.PageID(len(d.pages))
	d.pages = append(d.pages, make([]byte, PageSize))
	d.allocs.Add(1)
	return id, nil
}

// NumPages implements Store.
func (d *SimDisk) NumPages() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.pages)
}

// Stats returns a snapshot of the device counters.
func (d *SimDisk) Stats() IOStats {
	return IOStats{Reads: d.reads.Load(), Writes: d.writes.Load(), Allocs: d.allocs.Load()}
}
