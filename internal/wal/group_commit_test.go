package wal_test

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/wal"
)

func record() *wal.Record {
	return &wal.Record{
		Kind:   wal.KindInsert,
		Table:  "t",
		Pages:  1,
		RID:    storage.RID{Page: 0, Slot: 1},
		OldRID: storage.InvalidRID,
		Images: []wal.PageImage{{Page: 0, Data: make([]byte, 64)}},
	}
}

// TestGroupCommitFsyncFailure: eight committers queue behind an fsync
// that fails. Every one of them gets the error, the durable watermark
// stays where it was, later Commits and Forces fail without another
// fsync, and the error is sticky — at the engine too, where the
// durability health turns unhealthy.
func TestGroupCommitFsyncFailure(t *testing.T) {
	t.Run("writer", func(t *testing.T) {
		var armed atomic.Bool
		var syncs atomic.Int64
		inFlight := make(chan struct{})
		release := make(chan struct{})
		wal.InjectSyncFaults(t, func() error {
			syncs.Add(1)
			if !armed.CompareAndSwap(true, false) {
				return nil
			}
			close(inFlight)
			<-release
			return wal.ErrInjected
		})
		w, err := wal.Create(t.TempDir(), wal.Options{Policy: wal.SyncBatch})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		lsn, err := w.Append(record())
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(lsn); err != nil {
			t.Fatal(err)
		}
		durable := w.DurableLSN()

		// A leader's fsync hangs, then fails.
		armed.Store(true)
		lsn, err = w.Append(record())
		if err != nil {
			t.Fatal(err)
		}
		leader := make(chan error, 1)
		go func() { leader <- w.Force(lsn) }()
		<-inFlight

		const committers = 8
		var wg sync.WaitGroup
		errs := make(chan error, committers)
		for i := 0; i < committers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				lsn, err := w.Append(record())
				if err == nil {
					err = w.Commit(lsn)
				}
				errs <- err
			}()
		}
		for w.Stats().Commits < 1+committers {
			time.Sleep(time.Millisecond)
		}
		close(release)
		wg.Wait()
		close(errs)
		if err := <-leader; !errors.Is(err, wal.ErrInjected) {
			t.Errorf("leader Force = %v, want the injected fault", err)
		}
		for err := range errs {
			if !errors.Is(err, wal.ErrInjected) {
				t.Errorf("queued committer got %v, want the injected fault", err)
			}
		}
		if got := w.DurableLSN(); got != durable {
			t.Errorf("DurableLSN moved %d -> %d on a failed fsync", durable, got)
		}

		attempted := syncs.Load()
		lsn, err = w.Append(record())
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(lsn); !errors.Is(err, wal.ErrInjected) {
			t.Errorf("later Commit = %v, want the sticky fault", err)
		}
		if err := w.Force(lsn); !errors.Is(err, wal.ErrInjected) {
			t.Errorf("later Force = %v, want the sticky fault", err)
		}
		if got := syncs.Load(); got != attempted {
			t.Errorf("a later Commit or Force issued %d fsync(s); a sticky error fails fast", got-attempted)
		}
		if !errors.Is(w.SyncError(), wal.ErrInjected) {
			t.Errorf("SyncError = %v, want the injected fault", w.SyncError())
		}
	})

	t.Run("engine", func(t *testing.T) {
		var fail atomic.Bool
		wal.InjectSyncFaults(t, func() error {
			if fail.Load() {
				return wal.ErrInjected
			}
			return nil
		})
		e := engine.New(engine.Config{DataDir: t.TempDir()})
		defer e.Close() // its final checkpoint cannot force the log
		tb, err := e.CreateTable("t", storage.MustSchema(storage.Column{Name: "k", Kind: storage.KindInt64}))
		if err != nil {
			t.Fatal(err)
		}
		row := storage.NewTuple(storage.Int64Value(1))
		if _, err := tb.Insert(row); err != nil {
			t.Fatal(err)
		}
		if h := e.DurabilityHealth(); !h.Healthy {
			t.Fatalf("healthy engine reports %+v", h)
		}
		fail.Store(true)
		if _, err := tb.Insert(row); !errors.Is(err, wal.ErrInjected) {
			t.Fatalf("Insert over a failing fsync = %v, want the injected fault", err)
		}
		h := e.DurabilityHealth()
		if h.Healthy || !strings.HasPrefix(h.Reason, "wal sync error") {
			t.Fatalf("health after a failed fsync = %+v, want unhealthy with a wal sync error", h)
		}
	})
}
