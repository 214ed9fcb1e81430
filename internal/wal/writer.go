package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// SyncPolicy selects how Commit makes appended records durable.
type SyncPolicy int

const (
	// SyncBatch is group commit: Commit forces the log through its
	// record. Committers that arrive while an fsync is in flight queue
	// behind it; the first to get its turn fsyncs every record appended
	// so far and the rest find their record already durable, so the
	// fsync cost amortizes over the commit concurrency while a lone
	// committer pays one fsync per commit.
	SyncBatch SyncPolicy = iota
	// SyncNever leaves syncing to the OS and to Force (checkpoints and
	// the write-ahead rule always force). Commit returns as soon as the
	// record is in the OS page cache; an OS crash can lose the tail.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncBatch:
		return "batch"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Options configures a Writer. The zero value is usable: group commit,
// 4 MiB segments, no artificial sync latency.
type Options struct {
	// Policy selects the Commit durability protocol.
	Policy SyncPolicy
	// SegmentBytes rotates to a fresh segment file once the current one
	// exceeds this size. Zero means DefaultSegmentBytes.
	SegmentBytes int
	// SyncDelay, when positive, charges every fsync with an additional
	// sleep — the same simulated-device convention as buffer.SimDisk's
	// latencies, so group-commit benchmarks take a real device's shape
	// even on a RAM-backed filesystem.
	SyncDelay time.Duration
}

// DefaultSegmentBytes is the segment rotation threshold.
const DefaultSegmentBytes = 4 << 20

// Stats is a snapshot of writer activity.
type Stats struct {
	Appends  uint64 // records appended
	Commits  uint64 // Commit calls
	Syncs    uint64 // fsyncs issued
	Bytes    uint64 // payload+frame bytes appended
	Segments uint64 // segment files created
	Removed  uint64 // segment files removed by TruncateTo
}

// Telemetry is the writer's full observability snapshot: the raw
// counters plus the latency/batch distributions and the health facts
// the /healthz and /metrics surfaces expose.
type Telemetry struct {
	Stats
	// ActiveSegments is the number of live segment files (the open one
	// plus any not yet reclaimed by TruncateTo) — the segment backlog a
	// stalled checkpointer lets grow.
	ActiveSegments int
	// AppendedLSN / DurableLSN bound the records appended but not yet
	// durable: under SyncBatch, the group waiting for the next fsync;
	// under SyncNever, everything since the last Force.
	AppendedLSN LSN
	DurableLSN  LSN
	// LastBatch is the size (in records) of the most recent durable
	// advance — the latest group-commit batch.
	LastBatch uint64
	// FsyncLatency summarizes the distribution of fsync wall times
	// (including any simulated SyncDelay). Count matches Stats.Syncs.
	FsyncLatency metrics.HistogramStats
	// CommitBatch summarizes the group-commit batch sizes: records made
	// durable per fsync-driven watermark advance.
	CommitBatch metrics.HistogramStats
	// SyncErr is the sticky sync error, if any ("" when healthy). Once
	// set the writer refuses further syncs; commits fail fast.
	SyncErr string
}

// Writer appends records to the segmented log. It is safe for
// concurrent use: Append serializes on an internal mutex, Commit blocks
// only on durability (per the policy), and fsyncs never hold the append
// lock, so appends proceed while a sync is in flight — the property
// group commit is built on.
type Writer struct {
	dir  string
	opts Options

	mu       sync.Mutex // guards the fields below: append order, rotation
	f        segFile
	buf      *bufio.Writer
	segBytes int
	nextLSN  LSN
	appended LSN
	scratch  []byte
	segs     []segment // live segments, oldest first; last is open
	closed   bool

	// syncQ serializes fsyncs and is the group-commit queue: a one-slot
	// channel, taken by sending into it and freed by releaseSync. A
	// release hands the slot to the longest waiter, where a sync.Mutex
	// would let the committer that just released it barge back in, fsync
	// its next record alone and leave earlier waiters, already covered,
	// queued for up to the mutex's 1 ms starvation threshold. Taken
	// before mu, never after it.
	syncQ   chan struct{}
	durable atomic.Uint64
	// syncErr is the sticky sync error, set only through fail. It is
	// atomic so SyncError never waits behind an fsync in flight.
	syncErr atomic.Pointer[error]

	appends  atomic.Uint64
	commits  atomic.Uint64
	syncs    atomic.Uint64
	bytes    atomic.Uint64
	segsMade atomic.Uint64
	removed  atomic.Uint64

	// lastBatch is the record count of the most recent durable advance;
	// fsyncLat (ns) and batchSize (records) are the lock-free histograms
	// feeding the aib_wal_* summary families.
	lastBatch atomic.Uint64
	fsyncLat  metrics.Histogram
	batchSize metrics.Histogram
}

// segFile is the writer's view of an open segment file.
type segFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// openSegFile opens a segment file for appending. Tests replace it to
// inject device faults.
var openSegFile = func(path string) (segFile, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// errClosed is returned by every operation on a closed writer.
var errClosed = errors.New("wal: writer is closed")

// segment is one live log file.
type segment struct {
	path  string
	first LSN // LSN of the first record the segment may contain
}

const segPrefix = "wal-"
const segSuffix = ".seg"

func segName(first LSN) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, uint64(first), segSuffix)
}

// parseSegName extracts the first-LSN from a segment file name.
func parseSegName(name string) (LSN, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return LSN(v), true
}

// listSegments returns dir's segment files sorted by first LSN.
func listSegments(dir string) ([]segment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: list segments: %w", err)
	}
	var segs []segment
	for _, e := range ents {
		if first, ok := parseSegName(e.Name()); ok {
			segs = append(segs, segment{path: filepath.Join(dir, e.Name()), first: first})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Create initializes a fresh log in dir, removing any existing
// segments — the "new database" path, mirroring how table page files
// are truncated on creation.
func Create(dir string, opts Options) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	old, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for _, s := range old {
		if err := os.Remove(s.path); err != nil {
			return nil, fmt.Errorf("wal: clear stale segment: %w", err)
		}
	}
	return newWriter(dir, opts, 1)
}

// Open attaches a writer to an existing log directory, appending from
// next (one past the last replayed LSN). A fresh segment is started;
// earlier segments stay in place until a checkpoint truncates them.
func Open(dir string, opts Options, next LSN) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open dir: %w", err)
	}
	if next < 1 {
		next = 1
	}
	return newWriter(dir, opts, next)
}

func newWriter(dir string, opts Options, next LSN) (*Writer, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	w := &Writer{
		dir:     dir,
		opts:    opts,
		nextLSN: next,
		syncQ:   make(chan struct{}, 1),
	}
	w.appended = next - 1
	w.durable.Store(uint64(next - 1))
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	// Drop tail segments that start at or past the resume point: they
	// hold no acknowledged records (replay advances next past every
	// valid LSN, so anything left in them is a torn tail). Reusing the
	// same first-LSN file would also put a duplicate entry in w.segs,
	// which TruncateTo would read as a successor and unlink the live
	// segment — the crash / reopen-with-no-appends / crash loop case.
	for len(segs) > 0 && segs[len(segs)-1].first >= next {
		s := segs[len(segs)-1]
		if err := os.Remove(s.path); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("wal: remove stale tail segment: %w", err)
		}
		segs = segs[:len(segs)-1]
	}
	w.segs = segs
	if err := w.openSegmentLocked(next); err != nil {
		return nil, err
	}
	return w, nil
}

// openSegmentLocked starts a fresh segment whose first record will be
// first. Caller holds mu (or is the constructor).
func (w *Writer) openSegmentLocked(first LSN) error {
	path := filepath.Join(w.dir, segName(first))
	f, err := openSegFile(path)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.buf = bufio.NewWriterSize(f, 64<<10)
	w.segBytes = 0
	w.segs = append(w.segs, segment{path: path, first: first})
	w.segsMade.Add(1)
	return nil
}

// syncDir fsyncs a directory so file creations and removals inside it
// are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir for sync: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// Append encodes the record, assigns it the next LSN and writes it to
// the current segment (buffered; durability comes from Commit or Force).
// The assigned LSN is returned and also stored in rec.LSN.
func (w *Writer) Append(rec *Record) (LSN, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, errClosed
	}
	if w.segBytes >= w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	rec.LSN = w.nextLSN
	payload, err := encodePayload(w.scratch[:0], rec)
	if err != nil {
		return 0, err
	}
	w.scratch = payload // reuse the grown buffer next time
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], crc32.Checksum(payload, crcTable))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	if _, err := w.buf.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	if _, err := w.buf.Write(payload); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	w.nextLSN++
	w.appended = rec.LSN
	w.segBytes += len(hdr) + len(payload)
	w.appends.Add(1)
	w.bytes.Add(uint64(len(hdr) + len(payload)))
	return rec.LSN, nil
}

// rotateLocked finishes the current segment (flushed and fsynced, so
// the durable watermark never points past un-synced bytes in an
// abandoned file) and opens the next one. A failed fsync is sticky: a
// retried fsync can report success after the kernel dropped the dirty
// pages, and a later Force would then call lost records durable. So is
// a failure to start the next segment, which leaves no open file.
func (w *Writer) rotateLocked() error {
	if err := w.buf.Flush(); err != nil {
		return fmt.Errorf("wal: rotate flush: %w", err)
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return w.fail(fmt.Errorf("wal: rotate sync: %w", err))
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("wal: rotate close: %w", err)
	}
	w.syncs.Add(1)
	w.fsyncLat.Observe(uint64(time.Since(start)))
	if err := w.openSegmentLocked(w.nextLSN); err != nil {
		return w.fail(err)
	}
	return nil
}

// Commit blocks until the record at lsn is durable per the policy:
// under SyncBatch it is Force(lsn), under SyncNever a flush to the OS.
func (w *Writer) Commit(lsn LSN) error {
	w.commits.Add(1)
	if w.opts.Policy != SyncNever {
		return w.Force(lsn)
	}
	// No fsync, but the policy's contract is "in the OS page cache":
	// push the user-space buffer out so only an OS crash — not a mere
	// process crash — can lose the record.
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errClosed
	}
	if err := w.buf.Flush(); err != nil {
		return fmt.Errorf("wal: commit flush: %w", err)
	}
	return nil
}

// Force makes the log durable through lsn whatever the policy; it is
// group commit and the write-ahead rule's entry point (a page logged by
// the record at lsn may reach its store only once Force returns). It is
// not a Commit and leaves the commit counter alone. Callers that arrive
// while an fsync is in flight queue on syncQ; the first to get it
// fsyncs every record appended so far, and the rest return without an
// fsync when that one covered them.
func (w *Writer) Force(lsn LSN) error {
	if LSN(w.durable.Load()) >= lsn {
		return nil
	}
	w.syncQ <- struct{}{}
	defer w.releaseSync()
	return w.forceLocked(lsn)
}

// releaseSync frees the fsync slot. When a waiter has taken it over,
// the caller yields its processor so that the new leader issues its
// fsync now rather than whenever the caller next blocks; otherwise the
// log device idles between back-to-back fsyncs for as long as the
// waiter takes to be scheduled.
func (w *Writer) releaseSync() {
	<-w.syncQ
	if len(w.syncQ) > 0 {
		runtime.Gosched()
	}
}

// forceLocked is Force's body; the caller holds syncQ.
func (w *Writer) forceLocked(lsn LSN) error {
	if LSN(w.durable.Load()) >= lsn {
		return nil
	}
	if err := w.SyncError(); err != nil {
		return err
	}

	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return errClosed
	}
	target := w.appended
	err := w.buf.Flush()
	f := w.f
	w.mu.Unlock()

	rotated := false
	start := time.Now()
	if err == nil {
		if serr := f.Sync(); serr != nil {
			if errors.Is(serr, os.ErrClosed) {
				// A concurrent Append rotated this segment away after mu
				// was released. rotateLocked flushes and fsyncs before
				// closing, and our own buffered bytes were flushed into f
				// under mu above, so everything up to target is already
				// durable — not a fault, and it must not poison syncErr.
				// (Close holds syncQ, so it cannot be the closer.)
				rotated = true
			} else {
				err = serr
			}
		}
	}
	if err != nil {
		return w.fail(fmt.Errorf("wal: sync: %w", err))
	}
	if !rotated {
		w.syncs.Add(1)
		if d := w.opts.SyncDelay; d > 0 {
			time.Sleep(d)
		}
		// SyncDelay is part of the simulated device, so it belongs in the
		// observed latency just as it does in the benchmark's shape.
		w.fsyncLat.Observe(uint64(time.Since(start)))
	}
	// Monotonic advance; no other fsync is concurrent (syncQ).
	if prev := LSN(w.durable.Load()); prev < target {
		w.durable.Store(uint64(target))
		batch := uint64(target - prev)
		w.lastBatch.Store(batch)
		w.batchSize.Observe(batch)
	}
	return nil
}

// fail records err as the sticky sync error unless one is already set,
// and returns the sticky error. Every fsync failure goes through it.
func (w *Writer) fail(err error) error {
	w.syncErr.CompareAndSwap(nil, &err)
	return *w.syncErr.Load()
}

// AppendedLSN returns the last appended LSN (0 if none).
func (w *Writer) AppendedLSN() LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended
}

// DurableLSN returns the last LSN known to be on stable storage.
func (w *Writer) DurableLSN() LSN { return LSN(w.durable.Load()) }

// TruncateTo removes segments that contain only records at or below
// lsn — the checkpoint's log-reclamation step. The open segment is
// never removed.
func (w *Writer) TruncateTo(lsn LSN) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	kept := w.segs[:0]
	for i, s := range w.segs {
		// Segment i holds LSNs in [s.first, nextSeg.first); disposable
		// when every one of them is <= lsn. The last (open) segment has
		// no successor and always stays.
		if i+1 < len(w.segs) && w.segs[i+1].first <= lsn+1 {
			if err := os.Remove(s.path); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("wal: truncate: %w", err)
			}
			w.removed.Add(1)
			continue
		}
		kept = append(kept, s)
	}
	w.segs = append([]segment(nil), kept...)
	return syncDir(w.dir)
}

// Stats returns a snapshot of writer counters.
func (w *Writer) Stats() Stats {
	return Stats{
		Appends:  w.appends.Load(),
		Commits:  w.commits.Load(),
		Syncs:    w.syncs.Load(),
		Bytes:    w.bytes.Load(),
		Segments: w.segsMade.Load(),
		Removed:  w.removed.Load(),
	}
}

// SyncError returns the sticky sync error, or nil while the writer is
// healthy. Once set it never clears: the log can no longer promise
// durability, and health surfaces should go unhealthy.
func (w *Writer) SyncError() error {
	if p := w.syncErr.Load(); p != nil {
		return *p
	}
	return nil
}

// LastBatch returns the record count of the most recent group-commit
// durable advance (0 before the first fsync-driven advance).
func (w *Writer) LastBatch() uint64 { return w.lastBatch.Load() }

// Telemetry returns the full observability snapshot.
func (w *Writer) Telemetry() Telemetry {
	w.mu.Lock()
	segs := len(w.segs)
	appended := w.appended
	w.mu.Unlock()
	t := Telemetry{
		Stats:          w.Stats(),
		ActiveSegments: segs,
		AppendedLSN:    appended,
		DurableLSN:     LSN(w.durable.Load()),
		LastBatch:      w.lastBatch.Load(),
		FsyncLatency:   w.fsyncLat.Stats().Scaled(1e-9), // ns to s
		CommitBatch:    w.batchSize.Stats(),
	}
	if err := w.SyncError(); err != nil {
		t.SyncErr = err.Error()
	}
	return t
}

// Close forces the last appended record and releases the segment
// file. Further Appends, Commits and Forces fail with errClosed.
func (w *Writer) Close() error {
	// Holding syncQ across the close keeps any fsync from running on
	// the closed file, where os.ErrClosed would read as a rotation.
	w.syncQ <- struct{}{}
	defer w.releaseSync()
	err := w.forceLocked(w.AppendedLSN())
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return err
}
