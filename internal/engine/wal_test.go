package engine

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/wal"
)

// pageWrite is one page write-back the recording store saw: the image
// and how far the log was durable when it landed.
type pageWrite struct {
	page    storage.PageID
	data    []byte
	durable wal.LSN
}

// walGuardStore records every page write with the log's durable LSN at
// that instant, so a test can check each write against the log records
// that carry the written image.
type walGuardStore struct {
	pageStore
	durable func() wal.LSN

	mu     sync.Mutex
	writes []pageWrite
}

func (s *walGuardStore) Write(id storage.PageID, data []byte) error {
	w := pageWrite{page: id, data: bytes.Clone(data), durable: s.durable()}
	s.mu.Lock()
	s.writes = append(s.writes, w)
	s.mu.Unlock()
	return s.pageStore.Write(id, data)
}

func (s *walGuardStore) Sync() error {
	if f, ok := s.pageStore.(interface{ Sync() error }); ok {
		return f.Sync()
	}
	return nil
}

func (s *walGuardStore) Close() error {
	if c, ok := s.pageStore.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

func (s *walGuardStore) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.writes)
}

// openGuarded opens a DataDir engine whose one table, "t", writes
// through a walGuardStore.
func openGuarded(t *testing.T, dir string, pool int, walCfg WALConfig) (*Engine, *Table, *walGuardStore) {
	t.Helper()
	var e *Engine
	var guard *walGuardStore
	cfg := Config{DataDir: dir, PoolPages: pool, WAL: walCfg}
	cfg.wrapStore = func(_ string, s pageStore) pageStore {
		guard = &walGuardStore{pageStore: s, durable: func() wal.LSN { return e.wal.DurableLSN() }}
		return guard
	}
	e = New(cfg)
	tb, err := e.CreateTable("t", storage.MustSchema(
		storage.Column{Name: "k", Kind: storage.KindInt64},
		storage.Column{Name: "payload", Kind: storage.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	return e, tb, guard
}

// insertRows inserts n wide rows (two to a page) as one statement.
func insertRows(tb *Table, n int) error {
	return tb.Exec(context.Background(), func(s *Stmt) error {
		for i := 0; i < n; i++ {
			tu := storage.NewTuple(storage.Int64Value(int64(i)), storage.StringValue(strings.Repeat("w", 3000)))
			if _, err := s.Insert(tu); err != nil {
				return err
			}
		}
		return nil
	})
}

// checkWriteAhead closes e and holds every recorded write to the
// write-ahead rule: some log record must produce the written image, and
// the earliest such record must have been durable when the write landed.
// A record produces an image of each page it names: its spans patched,
// in LSN order, onto the page's image after the previous record, from a
// zero page. The log holds every record since the table was created
// empty, so the zero page is each page's checkpointed image.
func checkWriteAhead(t *testing.T, e *Engine, dir string, guard *walGuardStore) {
	t.Helper()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	type image struct {
		lsn  wal.LSN
		data []byte
	}
	current := map[storage.PageID][]byte{}
	logged := map[storage.PageID][]image{}
	_, err := wal.Replay(walDir(dir), 0, func(rec *wal.Record) error {
		touched := map[storage.PageID]bool{}
		for _, im := range rec.Images {
			page := current[im.Page]
			if page == nil {
				page = make([]byte, buffer.PageSize)
				current[im.Page] = page
			}
			copy(page[im.Off:], im.Data)
			touched[im.Page] = true
		}
		for p := range touched {
			logged[p] = append(logged[p], image{rec.LSN, bytes.Clone(current[p])})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range guard.writes {
		first := wal.LSN(0)
		for _, im := range logged[w.page] {
			if bytes.Equal(im.data, w.data) {
				first = im.lsn
				break
			}
		}
		if first == 0 {
			t.Fatalf("write %d: page %d written with an image no log record carries", i, w.page)
		}
		if first > w.durable {
			t.Fatalf("write %d: page %d written while the log was durable through LSN %d; its record is LSN %d",
				i, w.page, w.durable, first)
		}
	}
}

// TestWriteAheadOnEviction holds page write-back to the write-ahead
// rule in the two places a statement's appended but uncommitted records
// meet it: evictions inside the statement itself, and a checkpoint
// flush in the window between the statement releasing the table lock
// and its commit.
func TestWriteAheadOnEviction(t *testing.T) {
	t.Run("eviction-inside-statement", func(t *testing.T) {
		dir := t.TempDir()
		e, tb, guard := openGuarded(t, dir, 3, WALConfig{SyncPolicy: wal.SyncBatch})
		// 20 rows fill 10 pages through a 3-page pool: row k's page
		// allocation evicts row j's dirty page before the one commit.
		if err := insertRows(tb, 20); err != nil {
			t.Fatal(err)
		}
		if guard.count() == 0 {
			t.Fatal("the statement evicted no dirty page; the case tests nothing")
		}
		checkWriteAhead(t, e, dir, guard)
	})

	t.Run("checkpoint-flush-before-commit", func(t *testing.T) {
		dir := t.TempDir()
		// A slow fsync holds the statement's commit open long after it
		// released the table lock.
		e, tb, guard := openGuarded(t, dir, 64, WALConfig{SyncPolicy: wal.SyncBatch, SyncDelay: 200 * time.Millisecond})
		const rows = 10
		target := e.wal.AppendedLSN() + rows
		done := make(chan error, 1)
		go func() { done <- insertRows(tb, rows) }()
		for e.wal.AppendedLSN() < target {
			time.Sleep(50 * time.Microsecond)
		}
		tb.mu.RLock() // the statement has appended every row and unlocked
		if e.wal.DurableLSN() >= target {
			tb.mu.RUnlock()
			t.Fatal("the statement committed before the flush; the case tests nothing")
		}
		var cat catalog.Catalog
		err := tb.saveMetaLocked(&cat) // a checkpoint's per-table flush
		tb.mu.RUnlock()
		if err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if guard.count() == 0 {
			t.Fatal("the flush wrote no page; the case tests nothing")
		}
		checkWriteAhead(t, e, dir, guard)
	})
}
