package engine

import (
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"repro/internal/buffer"
	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/wal"
)

// WALConfig configures the engine's write-ahead log. Every
// DataDir-backed engine runs one; in-memory engines have nothing
// durable to log.
type WALConfig struct {
	// SyncPolicy selects the Commit durability protocol (group commit by
	// default); see wal.SyncPolicy.
	SyncPolicy wal.SyncPolicy

	// SegmentBytes overrides the log segment rotation threshold.
	SegmentBytes int

	// SyncDelay charges every log fsync with an extra sleep, the same
	// simulated-device convention as Config.ReadLatency, so the
	// group-commit and convoy tests keep a real device's shape on fast
	// filesystems.
	SyncDelay time.Duration

	// CheckpointEvery, when positive, runs a background checkpoint loop
	// at this period. Zero means checkpoints happen only on DDL, vacuum,
	// Close, and explicit Checkpoint calls.
	CheckpointEvery time.Duration
}

// walSubdir is the log's directory under DataDir.
const walSubdir = "wal"

func walDir(dataDir string) string { return filepath.Join(dataDir, walSubdir) }

func walOptions(cfg Config) wal.Options {
	return wal.Options{
		Policy:       cfg.WAL.SyncPolicy,
		SegmentBytes: cfg.WAL.SegmentBytes,
		SyncDelay:    cfg.WAL.SyncDelay,
	}
}

// RecoveryStats describes what Load's recovery pass did.
type RecoveryStats struct {
	// CheckpointLSN is the catalog's checkpoint position redo started
	// from.
	CheckpointLSN uint64 `json:"checkpoint_lsn"`
	// RedoRecords counts replayed DML records; RedoPages counts the
	// pages they patched, one per page a record wrote.
	RedoRecords int `json:"redo_records"`
	RedoPages   int `json:"redo_pages"`
	// TruncatedPages counts heap pages dropped because the page file ran
	// past the catalog's extent — an append that never reached a durable
	// checkpoint or log record.
	TruncatedPages int `json:"truncated_pages"`
	// VacuumRepairs counts tables whose extent was taken from a
	// vacuum-commit marker: a vacuum swapped its rewritten page file in
	// but crashed before republishing the catalog.
	VacuumRepairs int `json:"vacuum_repairs"`
	// TornPageBytes counts partial-page bytes trimmed from page files;
	// TornWALBytes counts bytes of a mid-write log record truncated from
	// the final segment.
	TornPageBytes int64 `json:"torn_page_bytes"`
	TornWALBytes  int64 `json:"torn_wal_bytes"`
}

// RecoveryStats returns what the Load that produced this engine did
// during redo. Zero for engines created with New.
func (e *Engine) RecoveryStats() RecoveryStats { return e.recovery }

// WALStats returns log-writer counters, or zeros for an engine with no
// log (in-memory, or a WAL that failed to initialize).
func (e *Engine) WALStats() wal.Stats {
	if e.wal == nil {
		return wal.Stats{}
	}
	return e.wal.Stats()
}

// WALTelemetry returns the log writer's full observability snapshot;
// ok is false when there is no log (in-memory engines, or a WAL that
// failed to initialize).
func (e *Engine) WALTelemetry() (wal.Telemetry, bool) {
	if e.wal == nil {
		return wal.Telemetry{}, false
	}
	return e.wal.Telemetry(), true
}

// CheckpointStats is the checkpoint-telemetry snapshot.
type CheckpointStats struct {
	// Completed counts finished checkpoints over the engine's lifetime.
	Completed uint64 `json:"completed"`
	// LastDuration is the wall time of the most recent checkpoint (0
	// before the first completes).
	LastDuration time.Duration `json:"last_duration_ns"`
	// Age is the time since the last checkpoint completed — or since the
	// engine started, when none has.
	Age time.Duration `json:"age_ns"`
}

// CheckpointStats returns the engine's checkpoint telemetry (zero Age
// basis is engine start for engines that never checkpointed).
func (e *Engine) CheckpointStats() CheckpointStats {
	s := CheckpointStats{
		Completed:    e.ckptCount.Load(),
		LastDuration: time.Duration(e.ckptLastNanos.Load()),
	}
	if end := e.ckptLastEnd.Load(); end > 0 {
		s.Age = time.Since(time.Unix(0, end))
	} else {
		s.Age = time.Since(e.started)
	}
	return s
}

// checkpointStallFactor: with a periodic checkpointer configured, an
// age beyond this many periods while log work is pending means the
// loop is stuck (wedged fsync, starved goroutine) — the health surface
// flips unhealthy rather than letting the segment backlog grow quietly.
const checkpointStallFactor = 4

// DurabilityHealth is the WAL/checkpoint health summary `/healthz`
// serves — and the condition under which it returns 503.
type DurabilityHealth struct {
	// WALEnabled is false for in-memory engines — every DataDir-backed
	// engine runs the WAL; all other fields are zero then and the engine
	// counts as healthy (there is no durability to be unhealthy about).
	// A DataDir engine whose WAL failed to initialize reports false with
	// WALInitError set and is unhealthy.
	WALEnabled bool   `json:"wal_enabled"`
	SyncPolicy string `json:"sync_policy,omitempty"`
	// SyncError is the writer's sticky fsync error ("" while healthy).
	SyncError string `json:"sync_error,omitempty"`
	// WALInitError reports a WAL that failed to initialize (the engine
	// is refusing DML).
	WALInitError string `json:"wal_init_error,omitempty"`

	AppendedLSN   uint64 `json:"appended_lsn"`
	DurableLSN    uint64 `json:"durable_lsn"`
	CheckpointLSN uint64 `json:"checkpoint_lsn"`
	// SegmentBacklog is the live segment-file count; it grows while
	// checkpoints stall.
	SegmentBacklog int `json:"segment_backlog"`

	Checkpoints          uint64  `json:"checkpoints"`
	LastCheckpointMillis float64 `json:"last_checkpoint_ms"`
	CheckpointAgeSeconds float64 `json:"checkpoint_age_seconds"`
	// CheckpointStalled is set when a periodic checkpointer is
	// configured, log work is pending, and the checkpointer has neither
	// completed a checkpoint nor found nothing to checkpoint for more
	// than checkpointStallFactor periods.
	CheckpointStalled bool `json:"checkpoint_stalled,omitempty"`

	// Healthy is false on a sticky sync error, a failed WAL init, or a
	// stalled checkpointer; Reason names the first failing condition.
	Healthy bool   `json:"healthy"`
	Reason  string `json:"reason,omitempty"`
}

// DurabilityHealth evaluates the engine's durability health.
func (e *Engine) DurabilityHealth() DurabilityHealth {
	h := DurabilityHealth{Healthy: true}
	if e.walErr != nil {
		h.WALInitError = e.walErr.Error()
		h.Healthy = false
		h.Reason = "wal failed to initialize"
		return h
	}
	if e.wal == nil {
		return h
	}
	h.WALEnabled = true
	h.SyncPolicy = e.cfg.WAL.SyncPolicy.String()
	h.AppendedLSN = uint64(e.wal.AppendedLSN())
	h.DurableLSN = uint64(e.wal.DurableLSN())
	h.CheckpointLSN = e.lastCkpt.Load()
	t := e.wal.Telemetry()
	h.SegmentBacklog = t.ActiveSegments
	ck := e.CheckpointStats()
	h.Checkpoints = ck.Completed
	h.LastCheckpointMillis = float64(ck.LastDuration) / float64(time.Millisecond)
	h.CheckpointAgeSeconds = ck.Age.Seconds()
	if err := e.wal.SyncError(); err != nil {
		h.SyncError = err.Error()
		h.Healthy = false
		h.Reason = "wal sync error: " + err.Error()
		return h
	}
	if every := e.cfg.WAL.CheckpointEvery; every > 0 && h.AppendedLSN > h.CheckpointLSN {
		if age := e.checkpointerAge(); age > checkpointStallFactor*every {
			h.CheckpointStalled = true
			h.Healthy = false
			h.Reason = fmt.Sprintf("checkpointer stalled: %.1fs without catching up (period %s)",
				age.Seconds(), every)
		}
	}
	return h
}

// checkpointerAge is how long the periodic checkpointer has gone
// without catching up: the time since the later of the last completed
// checkpoint and the last tick that found nothing to checkpoint (engine
// start when neither has happened). An idle spell therefore does not
// age it, while a checkpoint that keeps failing does.
func (e *Engine) checkpointerAge() time.Duration {
	last := max(e.ckptLastEnd.Load(), e.ckptIdleAt.Load())
	if last == 0 {
		return time.Since(e.started)
	}
	return time.Since(time.Unix(0, last))
}

// walError surfaces a WAL that failed to initialize: the engine stays
// queryable but refuses DML rather than silently running non-durable.
func (e *Engine) walError() error {
	if e.walErr != nil {
		return fmt.Errorf("engine: wal unavailable: %w", e.walErr)
	}
	return nil
}

// newPool creates a table's buffer pool. On a WAL-backed engine it
// installs the write-ahead rule: a dirty page is written back only
// once the log is durable through the record that last logged it. A
// statement commits after it releases the table lock, so its own later
// rows, other statements' fetches, and checkpoint flushes can all reach
// a page whose record is appended but not yet durable.
func (e *Engine) newPool(store pageStore) (*buffer.Pool, error) {
	pool, err := buffer.NewPool(store, e.cfg.PoolPages)
	if err != nil {
		return nil, err
	}
	if w := e.wal; w != nil {
		pool.SetWriteAhead(func(lsn uint64) error { return w.Force(wal.LSN(lsn)) })
	}
	return pool, nil
}

// log appends one DML record — logical fields plus, for each dirtied
// page, the byte spans the heap wrote on it since a record last took
// them — and notes its LSN on each logged frame, so write-back of those
// pages waits for the log (see newPool). Durability comes from the
// statement's commit. Called with the table lock exclusive, after the
// heap operation and index maintenance succeeded. Pages may repeat (an
// in-place update names the same page twice); duplicates are logged
// once. The heap keeps span offsets; the bytes are read here, from
// whichever frame holds the page now: a lock-free reader may have
// evicted the dirtied frame since the heap write, and the reload holds
// the bytes the write-back wrote. A page with no tracked spans is
// logged as a full image. A failed append leaves the spans with the
// heap, for the page's next record.
func (s *Stmt) log(kind wal.Kind, rid, oldRID storage.RID, pages ...storage.PageID) error {
	t := s.t
	w := t.engine.wal
	if w == nil {
		return nil
	}
	var start time.Time
	if s.fa != nil {
		start = time.Now()
	}
	rec := &t.logRec
	*rec = wal.Record{
		Kind:   kind,
		Table:  t.name,
		Pages:  t.heap.NumPages(),
		RID:    rid,
		OldRID: oldRID,
		Images: rec.Images[:0],
	}
	var frames [2]*buffer.Frame
	pinned := frames[:0]
	defer func() {
		for _, f := range pinned {
			t.pool.Unpin(f)
		}
		clear(rec.Images) // drop the references to frame images
	}()
	for _, p := range pages {
		if slices.ContainsFunc(pinned, func(f *buffer.Frame) bool { return f.ID() == p }) {
			continue
		}
		f, err := t.pool.Fetch(p)
		if err != nil {
			return fmt.Errorf("%w of %s page %d: %w", errWALImage, t.name, p, err)
		}
		pinned = append(pinned, f)
		data := f.Data()
		t.logSpans = t.heap.Spans(p, t.logSpans[:0])
		if len(t.logSpans) == 0 {
			rec.Images = append(rec.Images, wal.PageImage{Page: p, Data: data})
		}
		for _, sp := range t.logSpans {
			rec.Images = append(rec.Images, wal.PageImage{Page: p, Off: sp.Off, Data: data[sp.Off:sp.End]})
		}
	}
	lsn, err := w.Append(rec)
	if err != nil {
		return fmt.Errorf("engine: wal append: %w", err)
	}
	for _, f := range pinned {
		t.heap.SpansLogged(f.ID())
		f.SetLSN(uint64(lsn))
	}
	s.last = lsn
	if s.fa != nil {
		s.walTime += time.Since(start)
	}
	return nil
}

// commit makes the statement's records durable per the sync policy:
// one Commit, after the table lock is released. The flight record gets
// the statement's append and commit time and the group-commit batch
// the covering fsync made durable with it.
func (s *Stmt) commit() error {
	w := s.t.engine.wal
	if w == nil || s.last == 0 {
		return nil
	}
	var start time.Time
	if s.fa != nil {
		start = time.Now()
	}
	if err := w.Commit(s.last); err != nil {
		return fmt.Errorf("engine: wal commit: %w", err)
	}
	if s.fa != nil {
		s.fa.WAL(s.walTime+time.Since(start), w.LastBatch())
	}
	return nil
}

// Checkpoint is the persistence call: it flushes every table's dirty
// pages, writes a catalog consistent with them, and truncates the log
// up to the captured position. Index Buffers are not persisted — they
// are volatile by design (paper §III) and start empty after Load.
// Readers are not blocked: only shared table locks are taken
// (the pool is internally synchronized), so queries proceed while the
// checkpoint runs; DML on a table briefly waits for that table's flush.
func (e *Engine) Checkpoint() error {
	if err := e.checkOpen(); err != nil {
		return err
	}
	if e.wal == nil {
		return fmt.Errorf("engine: Checkpoint requires a WAL-backed engine")
	}
	return e.checkpoint()
}

// checkpointIfWAL checkpoints when a WAL is active — the DDL epilogue.
// DDL forcing a synchronous checkpoint keeps the log free of schema
// records: everything in the log is DML against a catalog that already
// reflects all DDL.
func (e *Engine) checkpointIfWAL() error {
	if e.wal == nil {
		return nil
	}
	return e.checkpoint()
}

// checkpoint is the internal variant without the closed check, used by
// Close for the final checkpoint. Ordering is the write-ahead rule run
// backwards: capture the log position, make the log durable up to it,
// then flush pages, then publish a catalog naming the position, then
// reclaim the log. Records appended mid-checkpoint are beyond the
// captured position and simply replay on top after a crash — redo of
// the byte spans written since the checkpoint is idempotent.
func (e *Engine) checkpoint() error {
	start := time.Now()
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	e.mu.RLock()
	defer e.mu.RUnlock()

	lsn := e.wal.AppendedLSN()
	if err := e.wal.Force(lsn); err != nil {
		return err
	}

	var cat catalog.Catalog
	names := make([]string, 0, len(e.tables))
	for n := range e.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := e.tables[n]
		t.mu.RLock()
		err := t.saveMetaLocked(&cat)
		t.mu.RUnlock()
		if err != nil {
			return err
		}
	}
	cat.CheckpointLSN = uint64(lsn)
	if err := catalog.Save(e.cfg.DataDir, cat); err != nil {
		return err
	}
	e.lastCkpt.Store(uint64(lsn))
	if err := e.wal.TruncateTo(lsn); err != nil {
		return err
	}
	e.ckptCount.Add(1)
	e.ckptLastNanos.Store(int64(time.Since(start)))
	e.ckptLastEnd.Store(time.Now().UnixNano())
	return nil
}

// startCheckpointer launches the periodic checkpoint loop when
// configured.
func (e *Engine) startCheckpointer() {
	if e.wal == nil || e.cfg.WAL.CheckpointEvery <= 0 {
		return
	}
	e.ckptStop = make(chan struct{})
	e.ckptDone = make(chan struct{})
	go func() {
		defer close(e.ckptDone)
		tick := time.NewTicker(e.cfg.WAL.CheckpointEvery)
		defer tick.Stop()
		for {
			select {
			case <-e.ckptStop:
				return
			case <-tick.C:
				// Skip when nothing was logged since the last checkpoint;
				// the checkpointer is caught up, which the stall check
				// counts like a completed checkpoint.
				if uint64(e.wal.AppendedLSN()) == e.lastCkpt.Load() {
					e.ckptIdleAt.Store(time.Now().UnixNano())
					continue
				}
				_ = e.checkpoint() // surfaced again by the Close checkpoint
			}
		}
	}()
}

// stopCheckpointer halts the periodic loop and waits for it.
func (e *Engine) stopCheckpointer() {
	if e.ckptStop == nil {
		return
	}
	close(e.ckptStop)
	<-e.ckptDone
	e.ckptStop = nil
}
