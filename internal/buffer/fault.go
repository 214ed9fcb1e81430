package buffer

import (
	"errors"
	"sync"

	"repro/internal/storage"
)

// ErrInjected is returned by a FaultStore operation whose countdown
// reached zero.
var ErrInjected = errors.New("buffer: injected fault")

// ErrCrashed is returned by every FaultStore operation after Crash():
// the simulated device is gone, as after power loss.
var ErrCrashed = errors.New("buffer: simulated crash")

// FaultStore wraps a Store with deterministic fault injection for
// error-path and crash-recovery tests. Two mechanisms:
//
//   - countdowns: SetReadsLeft(n) lets n reads succeed and fails every
//     read after with ErrInjected (likewise writes and allocates); a
//     negative budget (the initial state) never fires.
//   - crash: Crash() makes every subsequent operation fail with
//     ErrCrashed, modeling the instant after power loss — whatever the
//     inner store already holds is the surviving on-disk state.
//
// FaultStore is safe for concurrent use.
type FaultStore struct {
	inner Store

	mu         sync.Mutex
	crashed    bool
	readsLeft  int
	writesLeft int
	allocsLeft int
}

// NewFaultStore wraps inner with all fault triggers disarmed.
func NewFaultStore(inner Store) *FaultStore {
	return &FaultStore{inner: inner, readsLeft: -1, writesLeft: -1, allocsLeft: -1}
}

// SetReadsLeft arms the read countdown: n more reads succeed, then
// every read fails. Negative disarms.
func (f *FaultStore) SetReadsLeft(n int) {
	f.mu.Lock()
	f.readsLeft = n
	f.mu.Unlock()
}

// SetWritesLeft arms the write countdown.
func (f *FaultStore) SetWritesLeft(n int) {
	f.mu.Lock()
	f.writesLeft = n
	f.mu.Unlock()
}

// SetAllocsLeft arms the allocate countdown.
func (f *FaultStore) SetAllocsLeft(n int) {
	f.mu.Lock()
	f.allocsLeft = n
	f.mu.Unlock()
}

// Crash makes every subsequent operation fail with ErrCrashed.
func (f *FaultStore) Crash() {
	f.mu.Lock()
	f.crashed = true
	f.mu.Unlock()
}

// gate consumes one unit of the given budget, reporting the error to
// inject (nil to pass through).
func (f *FaultStore) gate(budget *int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	if *budget == 0 {
		return ErrInjected
	}
	if *budget > 0 {
		*budget--
	}
	return nil
}

// Read implements Store.
func (f *FaultStore) Read(id storage.PageID, buf []byte) error {
	if err := f.gate(&f.readsLeft); err != nil {
		return err
	}
	return f.inner.Read(id, buf)
}

// Write implements Store.
func (f *FaultStore) Write(id storage.PageID, buf []byte) error {
	if err := f.gate(&f.writesLeft); err != nil {
		return err
	}
	return f.inner.Write(id, buf)
}

// Allocate implements Store.
func (f *FaultStore) Allocate() (storage.PageID, error) {
	if err := f.gate(&f.allocsLeft); err != nil {
		return storage.InvalidPageID, err
	}
	return f.inner.Allocate()
}

// NumPages implements Store.
func (f *FaultStore) NumPages() int { return f.inner.NumPages() }

// Sync passes through to the inner store (honoring a crash), so a
// FaultStore can stand in for a FileStore on the engine's checkpoint
// path.
func (f *FaultStore) Sync() error {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return ErrCrashed
	}
	if s, ok := f.inner.(interface{ Sync() error }); ok {
		return s.Sync()
	}
	return nil
}

// Close passes through to the inner store. It works even after Crash,
// so tests can release file descriptors of a "crashed" engine.
func (f *FaultStore) Close() error {
	if c, ok := f.inner.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// Stats passes through the inner store's I/O counters, if any.
func (f *FaultStore) Stats() IOStats {
	if s, ok := f.inner.(interface{ Stats() IOStats }); ok {
		return s.Stats()
	}
	return IOStats{}
}
