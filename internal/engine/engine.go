// Package engine assembles the substrates into a small database engine:
// heap tables on a simulated disk behind a buffer pool, at most one
// partial secondary index per column, and an Index Buffer Space shared by
// every partial index. It exposes the DML and query surface the paper's
// experiments run against.
//
// Concurrency model (see DESIGN.md for the full treatment): the engine
// holds no global operation lock. A catalog RWMutex guards only table
// creation and lookup; each table carries its own RWMutex. Queries
// answered by the partial index or by a plain full scan take the table
// lock shared — they read the heap and advance only internally
// synchronized state (LRU-K histories, tracer) — so index-covered reads
// on different tables, and on different columns of the same table, run
// fully in parallel. Indexing scans (which mutate C[p] counters and
// insert buffer entries, paper Algorithms 1/2) and all DML take the
// table lock exclusive — but concurrent misses on the same table and
// column do not each run their own scan: a per-table admission layer
// coalesces them into one shared Algorithm-1 pass (see sharedscan.go).
// Lock order: Engine.mu → Table.mu → scanAdmission.mu → Space.mu →
// IndexBuffer.mu → History.mu.
package engine

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/flight"
	"repro/internal/heap"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/timeline"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Config configures a new engine.
type Config struct {
	// PoolPages is the buffer-pool capacity in pages per table. The
	// default (256 = 2 MiB) is far below the experiment table sizes, so
	// scans are disk-bound as in the paper. Zero means the default.
	PoolPages int

	// Space configures the Index Buffer Space (I^MAX, P, K, L, rand); see
	// core.Config.
	Space core.Config

	// ScanParallelism bounds the page-reading workers of every table scan
	// (indexing scans and full scans): 1 reads on the calling goroutine,
	// n > 1 fans page-range chunks out to at most n goroutines, 0
	// defaults to GOMAXPROCS. Every setting runs the same two-phase pass,
	// so results and Index Buffer state are identical across settings;
	// see exec's parallel.go. Scans pin one pool page per worker, so
	// PoolPages should comfortably exceed the parallelism.
	ScanParallelism int

	// DisableIndexBuffer turns the Index Buffer machinery off: partial
	// index misses degrade to full table scans. This is the paper's
	// baseline system.
	DisableIndexBuffer bool

	// DisableEpochReadPath forces every query through the table-lock
	// read path, turning the seqlock-validated lock-free hit path off. It
	// is the reference arm the epoch oracle and convoy tests compare the
	// lock-free path against; results are identical either way (see
	// readpath.go).
	DisableEpochReadPath bool

	// DataDir, when non-empty, backs each table with a real file
	// (<DataDir>/<table>.pages) instead of the in-memory simulated disk.
	// The files are truncated on creation; Close releases them.
	DataDir string

	// ReadLatency, when positive, charges each simulated device read with
	// a sleep so the figure runners' wall-clock curves take a real
	// device's shape. Ignored for file-backed tables (they have real
	// latency).
	ReadLatency time.Duration

	// WAL configures crash-consistent durability for DataDir-backed
	// engines; see WALConfig. Ignored without a DataDir.
	WAL WALConfig

	// wrapStore, when set, wraps every table's page store as it is
	// created or reopened — the crash-test hook for interposing a
	// buffer.FaultStore. The string is the table name.
	wrapStore func(string, pageStore) pageStore
}

const defaultPoolPages = 256

// Engine is the top-level database object. Safe for concurrent use.
type Engine struct {
	mu       sync.RWMutex // catalog lock: guards tables (create/lookup only)
	closed   atomic.Bool
	cfg      Config
	space    *core.Space
	tables   map[string]*Table
	tracer   *trace.Tracer
	timeline *timeline.Recorder
	flight   *flight.Recorder
	started  time.Time

	// Lock-free read path (readpath.go) counters.
	fastHits      atomic.Uint64
	fastFallbacks atomic.Uint64

	sharedScans   metrics.SharedScanCounters
	parallelScans metrics.ParallelScanCounters

	// Durability (nil / zero for in-memory engines).
	wal      *wal.Writer
	walErr   error         // WAL failed to initialize; DML refuses
	ckptMu   sync.Mutex    // serializes checkpoints
	lastCkpt atomic.Uint64 // LSN of the last completed checkpoint
	ckptStop chan struct{} // periodic checkpointer lifecycle
	ckptDone chan struct{}

	// Checkpoint telemetry: completions, last duration, last completion
	// instant, and the last periodic tick that found nothing to
	// checkpoint (both unix nanos; 0 until the first happens).
	ckptCount     atomic.Uint64
	ckptLastNanos atomic.Int64
	ckptLastEnd   atomic.Int64
	ckptIdleAt    atomic.Int64

	recovery RecoveryStats
}

// ParallelScanStats reads the engine-wide parallel-scan counters: how
// many table-scan stages fanned out to more than one worker and the
// total workers they used.
func (e *Engine) ParallelScanStats() metrics.ParallelScanStats {
	return e.parallelScans.Snapshot()
}

// noteScanWorkers attributes one executed scan's fan-out to the
// engine-wide counters. Scans that did not fan out (0 or 1 workers) are
// not counted.
func (e *Engine) noteScanWorkers(stats exec.QueryStats) {
	if stats.ScanWorkers > 1 {
		e.parallelScans.Scans.Add(1)
		e.parallelScans.Workers.Add(uint64(stats.ScanWorkers))
	}
}

// SharedScanStats reads the engine-wide scan-sharing counters: how many
// miss queries entered the admission layer, how many Algorithm-1 passes
// actually ran, and how many queries rode along on another's scan.
func (e *Engine) SharedScanStats() metrics.SharedScanStats {
	return e.sharedScans.Snapshot()
}

// traceCapacity is the span ring size of the built-in tracer.
const traceCapacity = 512

// flightRecentCap and flightSlowCap size the flight recorder's rings:
// the recent ring matches the tracer's span ring, the slow ring is
// smaller because slow captures are meant to survive much longer than
// their surrounding traffic.
const (
	flightRecentCap = 512
	flightSlowCap   = 128
)

// New creates an empty engine. With a DataDir, a fresh write-ahead log
// is initialized under <DataDir>/wal — any existing segments there are
// cleared, mirroring how table page files are truncated on creation. A
// WAL that fails to initialize does not fail New (its signature
// predates durability); instead the engine refuses DML with the
// initialization error, so nothing runs silently non-durable.
func New(cfg Config) *Engine {
	e := newEngine(cfg)
	if cfg.DataDir != "" {
		w, err := wal.Create(walDir(cfg.DataDir), walOptions(cfg))
		if err != nil {
			e.walErr = err
		} else {
			e.wal = w
			e.startCheckpointer()
		}
	}
	return e
}

// newEngine builds the engine skeleton shared by New and Load; it never
// touches the WAL directory (Load must replay it before a writer may
// start a new segment).
func newEngine(cfg Config) *Engine {
	if cfg.PoolPages <= 0 {
		cfg.PoolPages = defaultPoolPages
	}
	e := &Engine{
		cfg:      cfg,
		space:    core.NewSpace(cfg.Space),
		tables:   make(map[string]*Table),
		tracer:   trace.New(traceCapacity),
		timeline: timeline.New(timeline.DefaultCapacity, timeline.DefaultTarget),
		flight:   flight.NewRecorder(flightRecentCap, flightSlowCap),
		started:  time.Now(),
	}
	return e
}

// Tracer exposes the engine's query monitor.
func (e *Engine) Tracer() *trace.Tracer { return e.tracer }

// Flight exposes the engine's per-statement flight recorder. Recording
// is off by default and costs one atomic load per gated site while off.
func (e *Engine) Flight() *flight.Recorder { return e.flight }

// Timeline exposes the engine's adaptation-timeline recorder. Enable it
// with Timeline().Enable(true); sampling is off by default and costs
// one atomic load per query while off.
func (e *Engine) Timeline() *timeline.Recorder { return e.timeline }

// Convergence returns the timeline's convergence verdicts — queries to
// the configured coverage target per (table, column), regression flags
// — sorted by buffer name. Empty until the timeline is enabled and
// queries run.
func (e *Engine) Convergence() []timeline.Convergence {
	return e.timeline.Convergence()
}

// SetTelemetrySink streams structured telemetry — every trace span and
// every timeline sample — to s as JSONL, enabling span recording and
// timeline sampling as a side effect. A nil s detaches the sink and
// leaves recording on (turn it off via Tracer().EnableSpans and
// Timeline().Enable if desired).
func (e *Engine) SetTelemetrySink(s *timeline.Sink) {
	if s == nil {
		e.tracer.SetSpanSink(nil)
		e.timeline.SetSink(nil)
		e.flight.SetSink(nil)
		return
	}
	e.timeline.SetSink(s)
	e.tracer.SetSpanSink(s.WriteSpan)
	// Completed flight records ride the same stream (the recorder still
	// gates: nothing completes while it is disabled).
	e.flight.SetSink(s.WriteFlight)
	e.tracer.EnableSpans(true)
	e.timeline.Enable(true)
}

// Space exposes the Index Buffer Space for inspection (entry counts,
// stats). Callers must not mutate it.
func (e *Engine) Space() *core.Space { return e.space }

// checkOpen fails with ErrClosed once Close has run.
func (e *Engine) checkOpen() error {
	if e.closed.Load() {
		return fmt.Errorf("engine: %w", ErrClosed)
	}
	return nil
}

// Close flushes every table's buffer pool and closes file-backed stores.
// Subsequent operations fail with ErrClosed. Close waits for in-flight
// operations by taking every table's exclusive lock; it is a no-op for
// the stores of purely in-memory engines. WAL-backed engines take a
// final checkpoint first, so a clean shutdown leaves an empty log and
// the next Load has no redo work.
func (e *Engine) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil // already closed
	}
	var first error
	if e.wal != nil {
		e.stopCheckpointer()
		first = e.checkpoint()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, t := range e.tables {
		t.mu.Lock()
		if err := t.pool.FlushAll(); err != nil && first == nil {
			first = err
		}
		if c, ok := t.store.(interface{ Close() error }); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
		t.mu.Unlock()
	}
	if e.wal != nil {
		if err := e.wal.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// pageStore is the store surface the engine needs: device ops plus the
// logical I/O counters both backends expose.
type pageStore interface {
	buffer.Store
	Stats() buffer.IOStats
}

// Table is one heap table with its indexes and Index Buffers.
//
// The table's RWMutex is the unit of isolation for everything hanging
// off the table: DML, index DDL, vacuum, and indexing scans take it
// exclusive; index-hit queries, full scans, explains and raw scans take
// it shared. The Index Buffer and Space carry their own locks underneath
// because displacement on behalf of *another* table's scan may reach
// into this table's buffers without holding this table's lock.
type Table struct {
	engine *Engine
	name   string // qualified catalog name ("<tenant>:<table>" for tenant tables)
	tenant *core.Tenant
	schema *storage.Schema

	mu      sync.RWMutex
	store   pageStore
	pool    *buffer.Pool
	heap    *heap.Table
	indexes map[int]*index.Partial    // by column ordinal
	buffers map[int]*core.IndexBuffer // by column ordinal

	// Lock-free read path (readpath.go): seq is the table's seqlock —
	// even at rest, odd strictly while a mutator changes reader-visible
	// in-memory state (never across a WAL fsync); read is the published
	// copy-on-write access-path state lock-free readers resolve against.
	seq  atomic.Uint64
	read atomic.Pointer[readState]

	scans scanAdmission // per-column batching of concurrent miss queries
}

// CreateTable registers a new empty table under the default tenant.
// On WAL-backed engines every DDL statement ends with a synchronous
// checkpoint, so the log never carries schema changes — recovery
// replays DML against a catalog that already reflects all DDL.
func (e *Engine) CreateTable(name string, schema *storage.Schema) (*Table, error) {
	t, err := e.createTable(nil, name, schema)
	if err != nil {
		return nil, err
	}
	if err := e.checkpointIfWAL(); err != nil {
		return nil, fmt.Errorf("engine: checkpoint after creating %s: %w", name, err)
	}
	return t, nil
}

// checkTableName rejects an unqualified table name that is empty or
// contains a path separator, '.' or ':'. A table's pages live at
// <DataDir>/<name>.pages, so a separator or a "." or ".." name could
// reach a file outside DataDir; and a table's buffer, tracer and
// timeline key is "<table>.<column>" and a tenant table's catalog key
// "<tenant>:<table>", so a '.' or ':' would let two tables share a key.
func checkTableName(name string) error {
	if name == "" || strings.ContainsAny(name, "./:"+string(filepath.Separator)) {
		return fmt.Errorf("engine: table %q: %w", name, ErrInvalidTableName)
	}
	return nil
}

// createTable registers a table under its qualified catalog name; tn is
// the owning tenant (nil = default) and name the unqualified name.
func (e *Engine) createTable(tn *core.Tenant, name string, schema *storage.Schema) (*Table, error) {
	if err := e.checkOpen(); err != nil {
		return nil, err
	}
	if err := checkTableName(name); err != nil {
		return nil, err
	}
	name = qualifiedName(tn, name)
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.tables[name]; dup {
		return nil, fmt.Errorf("engine: table %q: %w", name, ErrDuplicateTable)
	}
	var store pageStore
	if e.cfg.DataDir != "" {
		fs, err := buffer.OpenFileStore(filepath.Join(e.cfg.DataDir, name+".pages"))
		if err != nil {
			return nil, err
		}
		store = fs
	} else {
		sd := buffer.NewSimDisk()
		sd.SetReadLatency(e.cfg.ReadLatency)
		store = sd
	}
	if e.cfg.wrapStore != nil {
		store = e.cfg.wrapStore(name, store)
	}
	pool, err := e.newPool(store)
	if err != nil {
		return nil, err
	}
	t := &Table{
		engine:  e,
		name:    name,
		tenant:  tn,
		schema:  schema,
		store:   store,
		pool:    pool,
		heap:    heap.NewTable(schema, pool),
		indexes: make(map[int]*index.Partial),
		buffers: make(map[int]*core.IndexBuffer),
	}
	t.publishReadLocked() // t is unshared until the map insert below
	e.tables[name] = t
	return t, nil
}

// Table returns the named table, or nil.
func (e *Engine) Table(name string) *Table {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.tables[name]
}

// TableNames returns all table names, sorted.
func (e *Engine) TableNames() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.tables))
	for n := range e.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *storage.Schema { return t.schema }

// NumPages returns the heap page count.
func (t *Table) NumPages() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.heap.NumPages()
}

// DiskStats returns device-level I/O counters for the table's store.
func (t *Table) DiskStats() buffer.IOStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.store.Stats()
}

// PoolStats returns the table's buffer-pool counters.
func (t *Table) PoolStats() buffer.PoolStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.pool.Stats()
}

// Index returns the partial index on the column, or nil.
func (t *Table) Index(column int) *index.Partial {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.indexes[column]
}

// Buffer returns the Index Buffer on the column, or nil.
func (t *Table) Buffer(column int) *core.IndexBuffer {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.buffers[column]
}

// checkColumn validates a column ordinal.
func (t *Table) checkColumn(column int) error {
	if column < 0 || column >= t.schema.NumColumns() {
		return fmt.Errorf("engine: table %s column %d: %w", t.name, column, ErrNoColumn)
	}
	return nil
}

// bufferName is the Index Buffer's key in the Space.
func (t *Table) bufferName(column int) string {
	return fmt.Sprintf("%s.%s", t.name, t.schema.Column(column).Name)
}

// CreatePartialIndex builds a partial index over the column with the
// given coverage, scanning the table once. Unless the engine disables
// Index Buffers, it also creates the column's Index Buffer and
// initializes the page counters — "the number of tuples in the page minus
// the tuples covered by the partial index" (paper §III). Like all DDL
// it ends with a checkpoint on WAL-backed engines.
func (t *Table) CreatePartialIndex(column int, cov index.Coverage) error {
	if err := t.createPartialIndex(column, cov); err != nil {
		return err
	}
	if err := t.engine.checkpointIfWAL(); err != nil {
		return fmt.Errorf("engine: checkpoint after indexing %s: %w", t.name, err)
	}
	return nil
}

func (t *Table) createPartialIndex(column int, cov index.Coverage) error {
	if err := t.engine.checkOpen(); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkColumn(column); err != nil {
		return err
	}
	if _, dup := t.indexes[column]; dup {
		return fmt.Errorf("engine: column %d of %s: %w", column, t.name, ErrDuplicateIndex)
	}
	ix := index.NewPartial(t.bufferName(column), column, cov)
	if _, err := ix.Rebuild(cov, t.heap); err != nil {
		return fmt.Errorf("engine: building index: %w", err)
	}
	// Register the buffer before attaching anything, so a failure leaves
	// the table as it was.
	var b *core.IndexBuffer
	if !t.engine.cfg.DisableIndexBuffer {
		uncovered, err := countUncovered(t.heap, column, ix.Coverage())
		if err != nil {
			return fmt.Errorf("engine: building index on %s: %w", t.bufferName(column), err)
		}
		if b, err = t.engine.space.CreateBufferFor(t.bufferName(column), uncovered, t.tenant); err != nil {
			return err
		}
	}
	t.beginMutate()
	defer t.endMutate()
	defer t.publishReadLocked()
	t.indexes[column] = ix
	if b != nil {
		t.buffers[column] = b
	}
	return nil
}

// DropIndex removes the column's partial index and its Index Buffer,
// releasing the buffer's Index Buffer Space.
func (t *Table) DropIndex(column int) error {
	if err := t.dropIndex(column); err != nil {
		return err
	}
	if err := t.engine.checkpointIfWAL(); err != nil {
		return fmt.Errorf("engine: checkpoint after dropping index on %s: %w", t.name, err)
	}
	return nil
}

func (t *Table) dropIndex(column int) error {
	if err := t.engine.checkOpen(); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.indexes[column] == nil {
		return fmt.Errorf("engine: column %d of %s: %w", column, t.name, ErrNoIndex)
	}
	t.beginMutate()
	defer t.endMutate()
	delete(t.indexes, column)
	if t.buffers[column] != nil {
		t.dropBuffer(column)
		delete(t.buffers, column)
	}
	t.publishReadLocked()
	return nil
}

// RedefineIndex changes the partial index's coverage (the expensive
// disk-side adaptation step). The column's Index Buffer is discarded and
// recreated with counters matching the new coverage, since its contents
// were defined relative to the old predicate.
func (t *Table) RedefineIndex(column int, cov index.Coverage) error {
	if err := t.redefineIndex(column, cov); err != nil {
		return err
	}
	if err := t.engine.checkpointIfWAL(); err != nil {
		return fmt.Errorf("engine: checkpoint after redefining index on %s: %w", t.name, err)
	}
	return nil
}

func (t *Table) redefineIndex(column int, cov index.Coverage) error {
	if err := t.engine.checkOpen(); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ix := t.indexes[column]
	if ix == nil {
		return fmt.Errorf("engine: column %d of %s: %w", column, t.name, ErrNoIndex)
	}
	// Both scans run before anything changes and Rebuild publishes only
	// on success, so a failure leaves the old index and buffer in place.
	var uncovered []int
	if t.buffers[column] != nil {
		var err error
		if uncovered, err = countUncovered(t.heap, column, cov); err != nil {
			return err
		}
	}
	t.beginMutate()
	defer t.endMutate()
	defer t.publishReadLocked()
	if _, err := ix.Rebuild(cov, t.heap); err != nil {
		return err
	}
	if t.buffers[column] != nil {
		t.resetBuffer(column, uncovered)
	}
	return nil
}

// countUncovered returns, per page of h, the number of live tuples whose
// column value cov does not cover — an Index Buffer's initial page
// counters (paper §III).
func countUncovered(h *heap.Table, column int, cov index.Coverage) ([]int, error) {
	uncovered := make([]int, h.NumPages())
	err := h.Scan(func(rid storage.RID, tu storage.Tuple) error {
		if !cov.Covers(tu.Value(column)) {
			uncovered[rid.Page]++
		}
		return nil
	})
	return uncovered, err
}

// Stmt is one DML statement's exclusive section, handed to the
// function Exec runs. Its Insert, Delete and Update apply one row each
// and append that row's log record; the statement's one commit waits
// for the last record after Exec releases the table lock. A Stmt is
// valid only inside its Exec call.
type Stmt struct {
	t       *Table
	fa      *flight.Active
	last    wal.LSN       // the statement's last record; 0 until one is logged
	walTime time.Duration // append time so far, for the flight record
}

// Exec runs fn as one DML statement: it takes the table lock once, lets
// fn apply any number of rows through the Stmt, releases the lock, and
// then commits the statement's log records with one Commit. On
// WAL-backed engines every row fn applied is durable when Exec returns
// (per the sync policy), rows applied before fn's error included; a
// failed commit is joined to that error. Waiting for the fsync outside
// the lock lets concurrent statements share group-commit fsyncs instead
// of queueing behind each other's. A flight-recorded statement in ctx
// gets the append and commit time and the group-commit batch. Rows do
// not honor cancellation: a started mutation always completes and
// commits.
func (t *Table) Exec(ctx context.Context, fn func(*Stmt) error) error {
	s, err := t.begin(ctx)
	if err != nil {
		return err
	}
	return s.end(fn(&s))
}

// begin opens a statement: it refuses a closed engine or a failed WAL,
// then takes the table lock exclusive. Every begin is paired with end.
func (t *Table) begin(ctx context.Context) (Stmt, error) {
	if err := t.engine.checkOpen(); err != nil {
		return Stmt{}, err
	}
	if err := t.engine.walError(); err != nil {
		return Stmt{}, err
	}
	fa := t.engine.flightActive(ctx)
	t.mu.Lock()
	return Stmt{t: t, fa: fa}, nil
}

// end closes the statement: it releases the table lock, then commits
// the rows applied, joining a commit failure to err.
func (s *Stmt) end(err error) error {
	s.t.mu.Unlock()
	if cerr := s.commit(); cerr != nil {
		err = errors.Join(err, cerr)
	}
	return err
}

// Insert adds a tuple, maintaining every index and Index Buffer. On
// WAL-backed engines the operation is durable when Insert returns (per
// the sync policy): the record carries the dirtied page's full image,
// and the commit blocks until the log reaches stable storage.
// It is a one-row Exec.
func (t *Table) Insert(tu storage.Tuple) (storage.RID, error) {
	s, err := t.begin(context.Background())
	if err != nil {
		return storage.InvalidRID, err
	}
	rid, err := s.Insert(tu)
	return rid, s.end(err)
}

// Get fetches the tuple at rid.
func (t *Table) Get(rid storage.RID) (storage.Tuple, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.heap.Get(rid)
}

// Delete removes the tuple at rid, maintaining indexes and buffers.
// Durable on return for WAL-backed engines, like Insert.
func (t *Table) Delete(rid storage.RID) error {
	s, err := t.begin(context.Background())
	if err != nil {
		return err
	}
	return s.end(s.Delete(rid))
}

// Update replaces the tuple at rid, returning the possibly relocated RID
// and maintaining indexes and buffers per the paper's Table I. Durable
// on return for WAL-backed engines.
func (t *Table) Update(rid storage.RID, tu storage.Tuple) (storage.RID, error) {
	s, err := t.begin(context.Background())
	if err != nil {
		return storage.InvalidRID, err
	}
	newRID, err := s.Update(rid, tu)
	return newRID, s.end(err)
}

// Insert adds one row of the statement; see Table.Insert.
func (s *Stmt) Insert(tu storage.Tuple) (storage.RID, error) {
	t := s.t
	t.beginMutate()
	rid, err := t.heap.Insert(tu)
	if err != nil {
		t.endMutate()
		return storage.InvalidRID, err
	}
	for col, ix := range t.indexes {
		v := tu.Value(col)
		inIX := ix.Covers(v)
		if inIX {
			ix.Add(v, rid)
		}
		if b := t.buffers[col]; b != nil {
			b.MaintainInsert(v, rid, inIX)
		}
	}
	// The seqlock window closes here, before the WAL append: the heap,
	// indexes and buffers already carry the final state, so lock-free
	// readers may proceed while the statement waits out its fsync —
	// exactly the reader/writer convoy the lock-free read path removes.
	t.endMutate()
	// The dirtied page is still resident (nothing fetched since the heap
	// write), so the image capture is a pool hit; see Stmt.log for why
	// the record must precede any eviction of that page.
	if err := s.log(wal.KindInsert, rid, storage.InvalidRID, rid.Page); err != nil {
		return rid, err
	}
	return rid, nil
}

// Delete removes one row of the statement; see Table.Delete.
func (s *Stmt) Delete(rid storage.RID) error {
	t := s.t
	old, err := t.heap.Get(rid)
	if err != nil {
		return err
	}
	t.beginMutate()
	if err := t.heap.Delete(rid); err != nil {
		t.endMutate()
		return err
	}
	for col, ix := range t.indexes {
		v := old.Value(col)
		wasInIX := ix.Covers(v)
		if wasInIX {
			ix.Remove(v, rid)
		}
		if b := t.buffers[col]; b != nil {
			b.MaintainDelete(v, rid, wasInIX)
		}
	}
	t.endMutate() // before the WAL append; see Stmt.Insert
	return s.log(wal.KindDelete, rid, storage.InvalidRID, rid.Page)
}

// Update replaces one row of the statement; see Table.Update.
func (s *Stmt) Update(rid storage.RID, tu storage.Tuple) (storage.RID, error) {
	t := s.t
	old, err := t.heap.Get(rid)
	if err != nil {
		return storage.InvalidRID, err
	}
	// Pin the pre-image page until the row is logged. A relocating
	// update dirties the old page and then allocates into others;
	// without the pin those fetches could evict the dirty old page —
	// writing it to the store before its log record exists, a window the
	// frame-LSN guard cannot cover (a crash in it would lose the tuple:
	// gone from the old page, never logged into the new one).
	if t.engine.wal != nil {
		oldFrame, err := t.pool.Fetch(rid.Page)
		if err != nil {
			return storage.InvalidRID, err
		}
		defer t.pool.Unpin(oldFrame)
	}
	t.beginMutate()
	newRID, err := t.heap.Update(rid, tu)
	if err != nil {
		t.endMutate()
		return storage.InvalidRID, err
	}
	for col, ix := range t.indexes {
		oldV, newV := old.Value(col), tu.Value(col)
		oldIn, newIn := ix.Covers(oldV), ix.Covers(newV)
		ix.Update(oldV, newV, rid, newRID)
		if b := t.buffers[col]; b != nil {
			b.MaintainUpdate(oldV, newV, rid, newRID, oldIn, newIn)
		}
	}
	t.endMutate() // before the WAL append; see Stmt.Insert
	if err := s.log(wal.KindUpdate, newRID, rid, rid.Page, newRID.Page); err != nil {
		return newRID, err
	}
	return newRID, nil
}

// Scan iterates every live tuple (a raw full scan, no buffer effects).
func (t *Table) Scan(fn func(storage.RID, storage.Tuple) error) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.heap.Scan(fn)
}

// Count returns the live tuple count.
func (t *Table) Count() (int, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	err := t.heap.Scan(func(storage.RID, storage.Tuple) error { n++; return nil })
	return n, err
}

// QueryEqual answers column = key: the range query [key, key].
func (t *Table) QueryEqual(column int, key storage.Value) ([]exec.Match, exec.QueryStats, error) {
	return t.QueryRangeCtx(context.Background(), column, key, key)
}

// QueryEqualCtx is QueryEqual honoring ctx.
func (t *Table) QueryEqualCtx(ctx context.Context, column int, key storage.Value) ([]exec.Match, exec.QueryStats, error) {
	return t.QueryRangeCtx(ctx, column, key, key)
}

// QueryRange answers lo <= column <= hi through the best available
// access path, maintaining the Index Buffer machinery as a side effect.
// The partial index serves the query only when its predicate covers the
// whole interval.
func (t *Table) QueryRange(column int, lo, hi storage.Value) ([]exec.Match, exec.QueryStats, error) {
	return t.QueryRangeCtx(context.Background(), column, lo, hi)
}

// QueryRangeCtx is QueryRange honoring ctx: a long indexing or full scan
// checks for cancellation between page reads and returns ctx.Err().
//
// Locking: a partial-index hit is first tried on the lock-free read path
// (readpath.go). Otherwise the query is planned under the table's read
// lock, and a hit or a plain full scan executes right there — multiple
// such readers run in parallel, and no engine-wide exclusive lock is
// taken. Only a buffer miss that needs an indexing scan (a mutation of
// the Index Buffer) goes through the scan-sharing admission layer, where
// it either leads its own exclusive-lock scan or attaches to one already
// forming on the same column (see queryShared); the plan is implicitly
// re-validated because exec.ExecuteShared re-dispatches on the state it
// finds under the write lock.
func (t *Table) QueryRangeCtx(ctx context.Context, column int, lo, hi storage.Value) ([]exec.Match, exec.QueryStats, error) {
	if err := t.engine.checkOpen(); err != nil {
		return nil, exec.QueryStats{}, err
	}
	if err := t.checkKeys(column, lo, hi); err != nil {
		return nil, exec.QueryStats{}, err
	}

	// Epoch-based lock-free hit path first; only probes the immutable
	// snapshots cannot answer fall through to the lock (readpath.go).
	if !t.engine.cfg.DisableEpochReadPath {
		if m, stats, ok := t.fastQuery(ctx, column, lo, hi); ok {
			return m, stats, nil
		}
	}

	t.mu.RLock()
	a, err := t.accessLocked(ctx, column)
	if err != nil {
		t.mu.RUnlock()
		return nil, exec.QueryStats{}, err
	}
	if !a.NeedsIndexingScanRange(lo, hi) {
		defer t.mu.RUnlock()
		return t.runRange(ctx, a, column, lo, hi)
	}
	if degrade, err := t.admitMiss(&a); err != nil {
		t.mu.RUnlock()
		return nil, exec.QueryStats{}, err
	} else if degrade {
		defer t.mu.RUnlock()
		return t.runRange(ctx, a, column, lo, hi)
	}
	t.mu.RUnlock()

	return t.queryShared(ctx, column, lo, hi)
}

func (t *Table) runRange(ctx context.Context, a exec.Access, column int, lo, hi storage.Value) ([]exec.Match, exec.QueryStats, error) {
	matches, stats, err := exec.Range(ctx, a, lo, hi)
	if err == nil {
		t.engine.noteScanWorkers(stats)
		t.observe(ctx, column, stats, false, a.Buffer)
	}
	return matches, stats, err
}

// ExplainRange plans lo <= column <= hi (a point query is [k, k])
// without executing or mutating state.
func (t *Table) ExplainRange(column int, lo, hi storage.Value) (exec.Plan, error) {
	if err := t.checkKeys(column, lo, hi); err != nil {
		return exec.Plan{}, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	a, err := t.accessLocked(context.Background(), column)
	if err != nil {
		return exec.Plan{}, err
	}
	return exec.ExplainRange(a, lo, hi), nil
}

// checkKeys validates a query's column and the kinds of its bounds
// against the schema, as Schema.Validate checks an inserted tuple: a key
// of the wrong type can match no row, and must not run a scan that
// indexes pages on the way to an empty answer.
func (t *Table) checkKeys(column int, lo, hi storage.Value) error {
	if err := t.checkColumn(column); err != nil {
		return err
	}
	c := t.schema.Column(column)
	for _, v := range [...]storage.Value{lo, hi} {
		if v.Kind() != c.Kind {
			return fmt.Errorf("engine: column %q: query value is %v, schema wants %v", c.Name, v.Kind(), c.Kind)
		}
	}
	return nil
}

func (t *Table) accessLocked(ctx context.Context, column int) (exec.Access, error) {
	if err := t.checkColumn(column); err != nil {
		return exec.Access{}, err
	}
	a := exec.Access{
		Table:       t.heap,
		Column:      column,
		Index:       t.indexes[column],
		Buffer:      t.buffers[column],
		Space:       t.engine.space,
		Parallelism: t.engine.cfg.ScanParallelism,
	}
	if tap := t.spanTap(t.engine.flightActive(ctx), column); tap != nil {
		a.Span = tap.span
	}
	return a, nil
}
