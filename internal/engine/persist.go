package engine

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/buffer"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/storage"
	"repro/internal/wal"
)

// saveMetaLocked flushes one table and appends its catalog entry; the
// caller holds the table's lock (shared suffices: the pool is internally
// synchronized and the schema/index set cannot change underneath).
func (t *Table) saveMetaLocked(cat *catalog.Catalog) error {
	n := t.name
	if err := t.pool.FlushAll(); err != nil {
		return fmt.Errorf("engine: flushing %s: %w", n, err)
	}
	if s, ok := t.store.(interface{ Sync() error }); ok {
		if err := s.Sync(); err != nil {
			return fmt.Errorf("engine: syncing %s: %w", n, err)
		}
	}
	tm := catalog.TableMeta{Name: n, NumPages: t.heap.NumPages()}
	if t.tenant != nil {
		tm.Tenant = t.tenant.Name()
	}
	for c := 0; c < t.schema.NumColumns(); c++ {
		col := t.schema.Column(c)
		kind, err := catalog.EncodeKind(col.Kind)
		if err != nil {
			return err
		}
		tm.Columns = append(tm.Columns, catalog.ColumnMeta{Name: col.Name, Kind: kind})
	}
	cols := make([]int, 0, len(t.indexes))
	for c := range t.indexes {
		cols = append(cols, c)
	}
	sort.Ints(cols)
	for _, c := range cols {
		cov, err := catalog.EncodeCoverage(t.indexes[c].Coverage())
		if err != nil {
			return fmt.Errorf("engine: index on %s column %d: %w", n, c, err)
		}
		tm.Indexes = append(tm.Indexes, catalog.IndexMeta{Column: c, Coverage: cov})
	}
	cat.Tables = append(cat.Tables, tm)
	return nil
}

// loadingTable is one table mid-recovery: its store is open (and
// repaired) but redo has not finished, so pool/heap/indexes do not
// exist yet.
type loadingTable struct {
	tm     catalog.TableMeta
	tenant *core.Tenant // owner, resolved from tm.Tenant
	schema *storage.Schema
	fs     *buffer.FileStore
	pages  int // heap page count after redo (starts at tm.NumPages)
}

// Load opens a previously saved database from cfg.DataDir, registering
// tenants before any table is reattached so each table (and its rebuilt
// Index Buffers) is bound to the owner its catalog entry records. A
// cataloged owner missing from tenants fails with ErrTenantUnknown.
// Recovery is ARIES-style redo, physical variant:
//
//  1. Each table's page file is reopened, repairing a torn trailing
//     partial page and truncating any whole pages past the catalog's
//     checkpointed extent (either tail is an append that was never
//     acknowledged — keeping it would leave garbage for redo to build
//     on).
//  2. The log is replayed from the catalog's checkpoint LSN, patching
//     each record's byte spans onto the page files: read the page (a
//     zero page past the file's end), copy the spans in, write it back.
//     Every byte changed since the checkpoint ends with the last value
//     the log holds for it, and every other byte has the same value in
//     every durable version of the page, torn write-backs included, so
//     redo is idempotent regardless of which dirty pages the buffer
//     pool had flushed before the crash (DESIGN.md §14). A torn record
//     at the log's tail is repaired the way a torn page tail is.
//  3. Heaps are reattached at their post-redo extents and the partial
//     indexes rebuilt by scanning, with fresh, empty Index Buffers —
//     volatile by design (paper §III); live traffic re-warms them. The
//     log holds only DML, so there is nothing else to recover.
//
// A post-recovery checkpoint then makes the redone state durable and
// truncates the log. On any error every file opened so far is closed
// before returning. RecoveryStats reports what recovery did.
func Load(cfg Config, tenants ...TenantSpec) (*Engine, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("engine: Load requires a DataDir")
	}
	cat, err := catalog.Load(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	// Vet every cataloged name before any page file is opened: a name
	// could reach outside DataDir, and a repeated one would open (and
	// leak) a second store over the same file.
	seen := make(map[string]bool, len(cat.Tables))
	for _, tm := range cat.Tables {
		base := tm.Name
		if tm.Tenant != "" {
			base = strings.TrimPrefix(tm.Name, tm.Tenant+":")
			if base == tm.Name {
				return nil, fmt.Errorf("engine: catalog table %q of tenant %q: %w", tm.Name, tm.Tenant, ErrInvalidTableName)
			}
		}
		if err := checkTableName(base); err != nil {
			return nil, err
		}
		if seen[tm.Name] {
			return nil, fmt.Errorf("engine: catalog names table %q twice: %w", tm.Name, ErrDuplicateTable)
		}
		seen[tm.Name] = true
	}
	e := newEngine(cfg)
	e.recovery.CheckpointLSN = cat.CheckpointLSN
	for _, ts := range tenants {
		if _, err := e.CreateTenant(ts.Name, ts.Quota, ts.Strict); err != nil {
			return nil, err
		}
	}

	// Phase 1: reattach and repair page files. Track every opened store
	// so any failure below releases them all (nothing leaks on a partial
	// Load).
	loading := make([]*loadingTable, 0, len(cat.Tables))
	byName := make(map[string]*loadingTable, len(cat.Tables))
	closeAll := func() {
		for _, lt := range loading {
			lt.fs.Close()
		}
	}
	for _, tm := range cat.Tables {
		owner, err := e.TenantFor(tm.Tenant)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("engine: loading %s: %w", tm.Name, err)
		}
		cols := make([]storage.Column, len(tm.Columns))
		for i, cm := range tm.Columns {
			kind, err := catalog.DecodeKind(cm.Kind)
			if err != nil {
				closeAll()
				return nil, err
			}
			cols[i] = storage.Column{Name: cm.Name, Kind: kind}
		}
		schema, err := storage.NewSchema(cols...)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("engine: loading %s: %w", tm.Name, err)
		}
		fs, torn, err := buffer.RecoverFileStore(filepath.Join(cfg.DataDir, tm.Name+".pages"))
		if err != nil {
			closeAll()
			return nil, err
		}
		// A vacuum-commit marker means a vacuum crashed after swapping
		// its rewritten page file into place but before republishing the
		// catalog. The swapped file is complete and synced at exactly the
		// marker's extent; accept it rather than refusing (smaller file)
		// or truncating a vacuumed file as surplus (larger catalog
		// count). A marker whose count does not match the file predates
		// the swap and is ignored.
		if mp, ok := readVacuumMarker(cfg.DataDir, tm.Name); ok && fs.NumPages() == mp && tm.NumPages != mp {
			tm.NumPages = mp
			e.recovery.VacuumRepairs++
		}
		lt := &loadingTable{tm: tm, tenant: owner, schema: schema, fs: fs, pages: tm.NumPages}
		loading = append(loading, lt)
		byName[tm.Name] = lt
		e.recovery.TornPageBytes += torn
		if fs.NumPages() < tm.NumPages {
			closeAll()
			return nil, fmt.Errorf("engine: table %s: catalog says %d pages, file has %d", tm.Name, tm.NumPages, fs.NumPages())
		}
		if surplus := fs.NumPages() - tm.NumPages; surplus > 0 {
			// The file ran past the checkpointed extent: pages allocated
			// by operations that never reached a durable checkpoint or
			// log record. Drop them — redo below re-extends the file for
			// every logged allocation.
			if err := fs.Truncate(tm.NumPages); err != nil {
				closeAll()
				return nil, fmt.Errorf("engine: table %s: %w", tm.Name, err)
			}
			e.recovery.TruncatedPages += surplus
		}
	}

	// Phase 2: redo. Replay every record past the checkpoint, patching
	// its spans onto the stores (pools do not exist yet).
	page := make([]byte, buffer.PageSize)
	info, err := wal.Replay(walDir(cfg.DataDir), wal.LSN(cat.CheckpointLSN), func(rec *wal.Record) error {
		lt := byName[rec.Table]
		if lt == nil {
			// DDL forces a checkpoint, so post-checkpoint DML always
			// names a cataloged table; anything else is corruption.
			return fmt.Errorf("engine: redo record %d names unknown table %q", rec.LSN, rec.Table)
		}
		// The heap extent first: the record's page count may include a
		// page that none of its spans names.
		if err := extendStore(lt.fs, rec.Pages); err != nil {
			return err
		}
		for i := 0; i < len(rec.Images); {
			n, err := redoPage(lt.fs, rec.Images[i:], page)
			if err != nil {
				return err
			}
			i += n
			e.recovery.RedoPages++
		}
		lt.pages = rec.Pages
		e.recovery.RedoRecords++
		return nil
	})
	if err != nil {
		closeAll()
		return nil, fmt.Errorf("engine: redo: %w", err)
	}
	e.recovery.TornWALBytes = info.TornBytes

	w, err := wal.Open(walDir(cfg.DataDir), walOptions(cfg), info.Next)
	if err != nil {
		closeAll()
		return nil, err
	}
	e.wal = w

	// Phase 3: reattach heaps at their post-redo extents and rebuild
	// indexes and (empty, volatile) Index Buffers.
	fail := func(err error) (*Engine, error) {
		e.wal.Close()
		closeAll()
		return nil, err
	}
	for _, lt := range loading {
		var store pageStore = lt.fs
		if cfg.wrapStore != nil {
			store = cfg.wrapStore(lt.tm.Name, store)
		}
		pool, err := e.newPool(store)
		if err != nil {
			return fail(err)
		}
		hp, err := heap.OpenTable(lt.schema, pool, lt.pages)
		if err != nil {
			return fail(fmt.Errorf("engine: reopening heap %s: %w", lt.tm.Name, err))
		}
		t := e.newTable(lt.tm.Name, lt.tenant, lt.schema, store, pool, hp)
		e.tables[lt.tm.Name] = t

		for _, im := range lt.tm.Indexes {
			cov, err := im.Coverage.DecodeCoverage()
			if err != nil {
				return fail(fmt.Errorf("engine: index on %s column %d: %w", lt.tm.Name, im.Column, err))
			}
			// createPartialIndex rebuilds the tree by scanning and wires
			// up a fresh, empty Index Buffer with new counters — the
			// buffer is volatile and never survives a restart.
			if err := t.createPartialIndex(im.Column, cov); err != nil {
				return fail(fmt.Errorf("engine: rebuilding index on %s column %d: %w", lt.tm.Name, im.Column, err))
			}
		}
	}

	// Make the recovered state durable and reclaim the log; the
	// checkpoint also publishes the repairs made above — truncated tails,
	// vacuum-commit extents — rather than leaving the next Load to
	// re-derive (or refuse) them.
	if err := e.checkpoint(); err != nil {
		_ = e.Close()
		return nil, fmt.Errorf("engine: post-recovery checkpoint: %w", err)
	}
	e.startCheckpointer()
	// The catalog now names every table's true extent; retire any
	// vacuum-commit markers (consumed above, or stale from a vacuum
	// whose catalog update did land).
	for _, lt := range loading {
		removeVacuumMarker(cfg.DataDir, lt.tm.Name)
	}
	return e, nil
}

// extendStore grows fs with zero pages to at least pages pages.
func extendStore(fs *buffer.FileStore, pages int) error {
	for fs.NumPages() < pages {
		if _, err := fs.Allocate(); err != nil {
			return err
		}
	}
	return nil
}

// redoPage patches the leading spans of ims that name one page onto
// that page of fs, using buf as the page image, and returns how many it
// applied. A page past the file's end is allocated, as zeros, first; a
// full image is written without reading the page.
func redoPage(fs *buffer.FileStore, ims []wal.PageImage, buf []byte) (int, error) {
	p := ims[0].Page
	n := 1
	for n < len(ims) && ims[n].Page == p {
		n++
	}
	if err := extendStore(fs, int(p)+1); err != nil {
		return 0, err
	}
	if n > 1 || ims[0].Off != 0 || len(ims[0].Data) != len(buf) {
		if err := fs.Read(p, buf); err != nil {
			return 0, err
		}
	}
	for _, im := range ims[:n] {
		copy(buf[im.Off:], im.Data)
	}
	return n, fs.Write(p, buf)
}
