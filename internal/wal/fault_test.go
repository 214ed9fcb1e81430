package wal

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ErrInjected is the error an injected fsync fault returns.
var ErrInjected = errors.New("wal: injected fsync fault")

// InjectSyncFaults replaces the segment-file opener until the test
// ends: every Sync on a segment file opened meanwhile first calls
// fault, and fails with its error instead of syncing when it returns
// one. Tests that call it must not run in parallel.
func InjectSyncFaults(t testing.TB, fault func() error) {
	t.Helper()
	open := openSegFile
	openSegFile = func(path string) (segFile, error) {
		f, err := open(path)
		if err != nil {
			return nil, err
		}
		return faultySegFile{segFile: f, fault: fault}, nil
	}
	t.Cleanup(func() { openSegFile = open })
}

type faultySegFile struct {
	segFile
	fault func() error
}

func (f faultySegFile) Sync() error {
	if err := f.fault(); err != nil {
		return err
	}
	return f.segFile.Sync()
}

// TestRotationSyncFailureSticky: a rotation whose fsync fails leaves
// the writer refusing durability even after a retried rotation's fsync
// reports success — on Linux that success can follow the kernel
// dropping the dirty pages, so the first segment's records may be lost.
func TestRotationSyncFailureSticky(t *testing.T) {
	var failNext atomic.Bool
	InjectSyncFaults(t, func() error {
		if failNext.CompareAndSwap(true, false) {
			return ErrInjected
		}
		return nil
	})
	w, err := Create(t.TempDir(), Options{Policy: SyncBatch, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Fill the first segment without committing: the next Append rotates.
	for i := 0; ; i++ {
		w.mu.Lock()
		full := w.segBytes >= w.opts.SegmentBytes
		w.mu.Unlock()
		if full {
			break
		}
		if _, err := w.Append(dmlRecord("t", i)); err != nil {
			t.Fatal(err)
		}
	}
	failNext.Store(true)
	if _, err := w.Append(dmlRecord("t", 100)); !errors.Is(err, ErrInjected) {
		t.Fatalf("Append over a failing rotation fsync = %v, want the injected fault", err)
	}
	lsn, err := w.Append(dmlRecord("t", 101)) // the retried rotation's fsync succeeds
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Segments; got != 2 {
		t.Fatalf("%d segments after the retried rotation, want 2", got)
	}
	if err := w.Commit(lsn); !errors.Is(err, ErrInjected) {
		t.Fatalf("Commit after a failed rotation fsync = %v, want the sticky fault", err)
	}
	if err := w.Force(lsn); !errors.Is(err, ErrInjected) {
		t.Fatalf("Force after a failed rotation fsync = %v, want the sticky fault", err)
	}
	next, err := w.Append(dmlRecord("t", 102))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(next); !errors.Is(err, ErrInjected) {
		t.Fatalf("a later Commit = %v, want the sticky fault", err)
	}
	if got := w.DurableLSN(); got != 0 {
		t.Fatalf("DurableLSN = %d after a failed rotation fsync, want 0", got)
	}
	if !errors.Is(w.SyncError(), ErrInjected) {
		t.Fatalf("SyncError = %v, want the injected fault", w.SyncError())
	}
}

// TestCloseRacesCommitters: a writer starts no goroutine, and Close
// racing committers leaves none blocked — every Commit returns nil or
// the closed-writer error.
func TestCloseRacesCommitters(t *testing.T) {
	before := runtime.NumGoroutine()
	w, err := Create(t.TempDir(), Options{Policy: SyncBatch, SyncDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("Create started %d goroutine(s)", after-before)
	}

	const workers = 8
	var wg, started sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		started.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				lsn, err := w.Append(dmlRecord("t", g))
				if err == nil {
					err = w.Commit(lsn)
				}
				if i == 0 {
					started.Done()
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	started.Wait()
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a committer is still blocked 10s after Close")
	}
	close(errs)
	for err := range errs {
		if !errors.Is(err, errClosed) {
			t.Errorf("committer racing Close got %v, want nil or the closed-writer error", err)
		}
	}
}
