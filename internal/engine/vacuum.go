package engine

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/buffer"
	"repro/internal/heap"
	"repro/internal/storage"
)

// vacuumMarker is the durable commit record a file-backed vacuum writes
// just before renaming the rewritten page file into place. Until the
// catalog is republished, the marker is what tells Load that a page
// file smaller than the catalog's extent is a complete vacuumed file,
// not corruption — without it, a crash in that window would make the
// database permanently unopenable.
type vacuumMarker struct {
	Pages int `json:"pages"`
}

func vacuumMarkerPath(dataDir, table string) string {
	return filepath.Join(dataDir, table+".vacuum-commit")
}

// writeVacuumMarker persists the marker durably (fsync file, then dir).
func writeVacuumMarker(dataDir, table string, pages int) error {
	data, err := json.Marshal(vacuumMarker{Pages: pages})
	if err != nil {
		return fmt.Errorf("engine: vacuum marker: %w", err)
	}
	path := vacuumMarkerPath(dataDir, table)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("engine: vacuum marker: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = syncDirPath(dataDir)
	}
	if err != nil {
		os.Remove(path)
		return fmt.Errorf("engine: vacuum marker: %w", err)
	}
	return nil
}

// readVacuumMarker returns the marker's page count if a well-formed
// marker exists. A missing or torn marker reads as absent: the marker is
// only meaningful once fully durable, and a torn one means the crash
// happened before the file swap, when the old state was still valid.
func readVacuumMarker(dataDir, table string) (pages int, ok bool) {
	data, err := os.ReadFile(vacuumMarkerPath(dataDir, table))
	if err != nil {
		return 0, false
	}
	var m vacuumMarker
	if json.Unmarshal(data, &m) != nil || m.Pages < 0 {
		return 0, false
	}
	return m.Pages, true
}

// removeVacuumMarker retires a marker, best-effort: a marker that
// outlives its catalog update is ignored by Load's consistency check
// and swept on the next successful recovery.
func removeVacuumMarker(dataDir, table string) {
	if dataDir == "" {
		return
	}
	if err := os.Remove(vacuumMarkerPath(dataDir, table)); err == nil {
		_ = syncDirPath(dataDir)
	}
}

// syncDirPath fsyncs a directory so renames and removals inside it are
// durable.
func syncDirPath(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("engine: open dir for sync: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("engine: sync dir: %w", err)
	}
	return nil
}

// Vacuum rewrites the table's heap densely — live tuples packed into
// fresh pages with no dead slots — and rebuilds every partial index and
// Index Buffer against the new layout. It reclaims the space of deleted
// and relocated tuples after heavy DML.
//
// All RIDs change; external holders of RIDs must re-query. The Index
// Buffers restart empty (their entries referenced old RIDs), with
// counters initialized against the new pages — the same volatile restart
// the paper's design permits. For file-backed tables the page file is
// rewritten via a temporary file renamed into place. Vacuum returns the
// page counts before and after.
func (t *Table) Vacuum() (pagesBefore, pagesAfter int, err error) {
	// On WAL-backed engines, drain the log first: records appended
	// before the vacuum carry images of the old page layout, and redoing
	// them onto the rewritten file would smear garbage. The catalog is
	// republished after the swap; until that lands, the on-disk
	// vacuum-commit marker written just before the rename is what lets
	// Load accept the swapped file's smaller extent after a crash.
	if err := t.engine.checkpointIfWAL(); err != nil {
		return 0, 0, fmt.Errorf("engine: checkpoint before vacuum of %s: %w", t.name, err)
	}
	pagesBefore, pagesAfter, err = t.vacuum()
	if err != nil {
		return pagesBefore, pagesAfter, err
	}
	if err := t.engine.checkpointIfWAL(); err != nil {
		return pagesBefore, pagesAfter, fmt.Errorf("engine: checkpoint after vacuum of %s: %w", t.name, err)
	}
	removeVacuumMarker(t.engine.cfg.DataDir, t.name)
	return pagesBefore, pagesAfter, nil
}

func (t *Table) vacuum() (pagesBefore, pagesAfter int, err error) {
	if err := t.engine.checkOpen(); err != nil {
		return 0, 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// The whole vacuum is one seqlock write window: the store/pool/heap
	// swap and the index/buffer rebuilds below are far from atomic, and
	// a lock-free reader racing them must retry (then fall back to the
	// lock, where it waits the vacuum out like any reader did before).
	t.beginMutate()
	defer t.endMutate()

	pagesBefore = t.heap.NumPages()

	// Stage the replacement heap on a fresh store.
	var newStore pageStore
	var newFS *buffer.FileStore
	var tmpPath string
	if t.engine.cfg.DataDir != "" {
		tmpPath = filepath.Join(t.engine.cfg.DataDir, t.name+".pages.vacuum")
		fs, err := buffer.OpenFileStore(tmpPath)
		if err != nil {
			return pagesBefore, 0, err
		}
		newFS = fs
		newStore = fs
	} else {
		newStore = buffer.NewSimDisk()
	}
	if t.engine.cfg.wrapStore != nil {
		newStore = t.engine.cfg.wrapStore(t.name, newStore)
	}
	swapped := false
	defer func() {
		if !swapped && tmpPath != "" {
			newFS.Close()
			os.Remove(tmpPath)
		}
	}()

	newPool, err := t.engine.newPool(newStore)
	if err != nil {
		return pagesBefore, 0, err
	}
	newHeap := heap.NewTable(t.schema, newPool)
	err = t.heap.Scan(func(_ storage.RID, tu storage.Tuple) error {
		_, err := newHeap.Insert(tu)
		return err
	})
	if err != nil {
		return pagesBefore, 0, fmt.Errorf("engine: vacuum copy of %s: %w", t.name, err)
	}

	// Rebuild index contents and buffer counters against the new RIDs
	// before anything is swapped: until the commit below, a failure
	// leaves the table exactly as it was.
	var commit []func()
	for col, ix := range t.indexes {
		publish, err := ix.Stage(ix.Coverage(), newHeap)
		var uncovered []int
		if err == nil && t.buffers[col] != nil {
			uncovered, err = countUncovered(newHeap, col, ix.Coverage())
		}
		if err != nil {
			return pagesBefore, 0, fmt.Errorf("engine: vacuum reindex of %s: %w", t.name, err)
		}
		commit = append(commit, func() {
			publish()
			if t.buffers[col] != nil {
				t.resetBuffer(col, uncovered)
			}
		})
	}

	// For file-backed tables, persist the staged pages and move the file
	// into place; the old store stays open until the swap succeeded.
	if tmpPath != "" {
		if err := newPool.FlushAll(); err != nil {
			return pagesBefore, 0, err
		}
		if err := newFS.Sync(); err != nil {
			return pagesBefore, 0, err
		}
		// Commit point: once the marker is durable, a crash anywhere up
		// to the catalog republication resolves cleanly at Load — file
		// still old (marker ignored) or file swapped (marker names its
		// complete extent).
		if err := writeVacuumMarker(t.engine.cfg.DataDir, t.name, newHeap.NumPages()); err != nil {
			return pagesBefore, 0, err
		}
		final := filepath.Join(t.engine.cfg.DataDir, t.name+".pages")
		if err := os.Rename(tmpPath, final); err != nil {
			return pagesBefore, 0, fmt.Errorf("engine: vacuum swap of %s: %w", t.name, err)
		}
	}

	// Swap the heap in, publish the rebuilt indexes and fresh buffers,
	// and only then release the old store.
	old := t.store
	t.store, t.pool, t.heap, swapped = newStore, newPool, newHeap, true
	for _, c := range commit {
		c()
	}
	t.publishReadLocked() // readers must resolve against the new heap
	if tmpPath != "" {
		if c, ok := old.(interface{ Close() error }); ok {
			_ = c.Close()
		}
		if err := syncDirPath(t.engine.cfg.DataDir); err != nil {
			return pagesBefore, newHeap.NumPages(), fmt.Errorf("engine: vacuum swap of %s: %w", t.name, err)
		}
	}
	return pagesBefore, newHeap.NumPages(), nil
}
