package engine

import (
	"context"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/heap"
	"repro/internal/index"
	"repro/internal/storage"
)

// This file is the lock-free read path: partial-index hits — the hot
// case once the Index Buffer has adapted — answered without touching
// the table's RWMutex at all. The classic convoy this removes: a DML
// statement holds the table lock exclusive across every row it applies
// and logs, so under the old protocol every index-covered read on the
// table stalled behind every write. Now a read resolves the probe
// against immutable snapshots (the partial index's atomic
// coverage+tree state, the heap via the published readState), and
// validates a per-table sequence counter; only probes the snapshots
// cannot answer — buffer misses needing an indexing scan, torn reads —
// fall back to the locked path.
//
// The protocol is a seqlock over immutable snapshots:
//
//   - Table.seq is even at rest and odd strictly while a mutator is
//     changing reader-visible in-memory state. DML makes its window as
//     small as possible: seq goes even again *before* the row's WAL
//     append, which is safe because the log write publishes nothing a
//     reader can observe — the heap, indexes and buffers already carry
//     the final state. The statement's fsync waits after it releases
//     the table lock, so it sits inside no window a reader or another
//     statement waits on.
//   - Table.read holds the readState: the heap handle and the
//     index/buffer sets, republished (atomically, copy-on-write) by
//     every DDL, vacuum and Load — never by DML, which mutates in
//     place behind seq.
//   - A reader loads seq (retrying while odd), loads the readState and
//     the index snapshot, resolves the probe, then re-checks seq. An
//     unchanged even seq proves no mutator ran concurrently, so the
//     probe is identical to one executed under the read lock — at
//     which point the side effects (probe counter, LRU-K history,
//     tracer, timeline, flight record) are applied exactly once,
//     through the same internally synchronized structures the locked
//     path uses.
//   - The seqlock gives atomicity; Go's garbage collector gives
//     lifetime. A reader keeps whatever readState, heap and index
//     snapshot it loaded reachable for as long as it holds them, so a
//     republish never frees memory under it. The one resource a
//     republish does release is a vacuumed heap's page store: a probe
//     against it either fails (and falls back) or is discarded because
//     vacuum's window moved seq.
//
// The serial-oracle guarantee is preserved: for a serially driven
// stream the fast path performs the same probes and the same side
// effects in the same order as the locked path, so results and every
// counter are bit-identical (parallel_oracle_test.go checks exactly
// this with the fast path enabled against a disabled oracle).

// readState is the copy-on-write table state the lock-free read path
// resolves against. All fields are immutable after publication: DDL
// builds a fresh readState rather than mutating the published one. The
// heap and pool are internally synchronized, so DML mutating the
// current heap's pages in place is safe to race with readers — the
// seqlock validation decides whether what a reader saw was consistent.
type readState struct {
	heap    *heap.Table
	indexes map[int]*index.Partial
	buffers map[int]*core.IndexBuffer
}

// publishReadLocked snapshots the table's access-path state into a
// fresh readState. Called under t.mu (exclusive) by every DDL path,
// vacuum, and table construction.
func (t *Table) publishReadLocked() {
	rs := &readState{
		heap:    t.heap,
		indexes: make(map[int]*index.Partial, len(t.indexes)),
		buffers: make(map[int]*core.IndexBuffer, len(t.buffers)),
	}
	for c, ix := range t.indexes {
		rs.indexes[c] = ix
	}
	for c, b := range t.buffers {
		rs.buffers[c] = b
	}
	t.read.Store(rs)
}

// beginMutate opens a seqlock write window (seq goes odd). Callers hold
// t.mu exclusive; the window must span exactly the in-memory mutations
// of reader-visible state — in particular, DML closes it before the WAL
// append so readers never wait out an fsync.
func (t *Table) beginMutate() { t.seq.Add(1) }

// endMutate closes the seqlock write window (seq goes even).
func (t *Table) endMutate() { t.seq.Add(1) }

// fastAttempts bounds the fast path's probe retries — restarts after a
// mutator overlapped the probe — before giving up and taking the locked
// path; a table under sustained DML makes the locked path the right
// place to wait anyway.
const fastAttempts = 8

// fastSpins bounds how long the fast path waits out an odd seq before
// falling back. It is deliberately much larger than fastAttempts: a
// DML mutator's in-memory window is microseconds (the window closes
// before the row's WAL append), so re-reading is vastly cheaper than
// the fallback, which queues on the table lock the statement still
// holds across its remaining rows — the convoy this path exists to
// avoid. Only
// a long writer window (DDL, vacuum) exhausts the budget, and waiting
// on the lock is then correct.
const fastSpins = 4096

// spinYieldEvery paces the odd-seq wait: mostly busy re-reads (matching
// the microsecond scale of a DML window), with an occasional yield so a
// GOMAXPROCS=1 mutator can finish its window. The wait must not lean on
// runtime.Gosched every iteration — when every P is running a reader, a
// yielded goroutine sits in the run queue for whole scheduler slices
// (~10ms), turning a microsecond wait into a worse stall than the lock.
const spinYieldEvery = 1024

// awaitEven spins until the seq is even, returning false once the spin
// budget says the window is long and the lock is the right wait.
func (t *Table) awaitEven(spins *int) bool {
	*spins++
	if *spins > fastSpins {
		return false
	}
	if *spins%spinYieldEvery == 0 {
		runtime.Gosched()
	}
	return true
}

// EpochStats reports the lock-free read path's engine-wide counters.
type EpochStats struct {
	// FastHits counts queries fully served by the lock-free path.
	FastHits uint64 `json:"fast_hits"`
	// Fallbacks counts queries that attempted the lock-free path and
	// fell back to the locked path for a reason other than needing an
	// indexing scan (seqlock contention, heap fault).
	Fallbacks uint64 `json:"fallbacks"`
}

// EpochStats returns the engine's lock-free read-path counters.
func (e *Engine) EpochStats() EpochStats {
	return EpochStats{FastHits: e.fastHits.Load(), Fallbacks: e.fastFallbacks.Load()}
}

// fastQuery attempts lo <= column <= hi (a point query is [k, k]) on the
// lock-free read path. ok reports success; on false the caller runs the
// locked path, which also owns all error reporting (the fast path never
// surfaces errors — a validated heap fault falls back so the locked path
// reproduces it under the lock). The hit itself is exec.FetchHit, the
// function the locked path's ExecuteShared calls; the empty range is
// answered for free, mirroring ExecuteShared's early continue (stats
// carry only the key, no history advance, no probe).
func (t *Table) fastQuery(ctx context.Context, column int, lo, hi storage.Value) (m []exec.Match, stats exec.QueryStats, ok bool) {
	e := t.engine
	start := time.Now()
	for attempt, spins := 0, 0; attempt < fastAttempts; {
		s1 := t.seq.Load()
		if s1&1 != 0 {
			if !t.awaitEven(&spins) {
				break // long window (DDL, vacuum): wait on the lock
			}
			continue
		}
		rs := t.read.Load()
		if rs == nil {
			return nil, exec.QueryStats{}, false
		}
		if hi.Compare(lo) < 0 {
			if t.seq.Load() != s1 {
				attempt++
				continue
			}
			stats := exec.QueryStats{Key: lo, EmptyRange: true, Duration: time.Since(start)}
			t.observe(ctx, column, stats, false, rs.buffers[column])
			e.fastHits.Add(1)
			return nil, stats, true
		}
		ix := rs.indexes[column]
		if ix == nil {
			return nil, exec.QueryStats{}, false // no index: the locked path decides
		}
		snap := ix.Snapshot()
		if !snap.CoversRange(lo, hi) {
			return nil, exec.QueryStats{}, false // miss: needs the indexing-scan machinery
		}
		matches, stats, err := exec.FetchHit(exec.Access{Table: rs.heap, Column: column}, snap, lo, hi)
		if t.seq.Load() != s1 {
			attempt++
			continue // a mutator overlapped the probe; everything read is suspect
		}
		if err != nil {
			// Validated fault (e.g. vacuum closed the store between
			// publications): no side effects were applied, so the locked
			// path re-executes and reports cleanly.
			e.fastFallbacks.Add(1)
			return nil, exec.QueryStats{}, false
		}
		t.commitFastHit(ctx, column, &stats, snap, rs, start)
		return matches, stats, true
	}
	e.fastFallbacks.Add(1)
	return nil, exec.QueryStats{}, false
}

// commitFastHit applies a validated hit's side effects — exactly the
// ones the locked hit path performs, through the same internally
// synchronized structures, exactly once.
func (t *Table) commitFastHit(ctx context.Context, column int, stats *exec.QueryStats, snap index.Snapshot, rs *readState, start time.Time) {
	e := t.engine
	snap.NoteProbe()
	buf := rs.buffers[column]
	e.space.OnQuery(buf, true) // Table II: a hit only advances the query clock
	stats.Duration = time.Since(start)
	t.observe(ctx, column, *stats, false, buf)
	e.fastHits.Add(1)
}
