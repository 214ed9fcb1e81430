package engine

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/flight"
	"repro/internal/storage"
)

// This file is the admission layer of scan sharing. A query that misses
// the partial index needs an indexing scan — the one execution path that
// mutates the Index Buffer and therefore takes the table lock exclusive.
// Under a miss burst those scans would serialize, each re-reading the
// same heap. Instead, misses on the same table and column form batches:
// the first miss becomes the batch leader and queues for the write lock;
// every miss arriving while the leader waits attaches its predicate to
// the batch (the attach window). Once the leader holds the lock it seals
// the batch and runs one exec.ExecuteShared pass for all attached
// predicates; later misses start a fresh batch behind it.
//
// scanAdmission.mu sits below Table.mu in the lock order: attach is
// called with no table lock held, seal under the table's write lock, and
// the admission lock is never held while waiting on anything.

// scanAdmission groups a table's concurrent miss queries into per-column
// batches. The zero value is ready to use.
type scanAdmission struct {
	mu      sync.Mutex
	pending map[int]*scanBatch // forming batch by column ordinal
}

// scanBatch is one forming (then executing) shared scan.
type scanBatch struct {
	queries []*attachedQuery
	done    chan struct{} // closed by the leader after results are written
}

// attachedQuery is one query riding a batch. The result fields are
// written by the leader before it closes done and read by the owning
// goroutine after <-done; the channel close orders the two.
type attachedQuery struct {
	ctx    context.Context
	lo, hi storage.Value

	// canceled is set by a follower that gave up on ctx cancellation; the
	// leader then skips observing the query's outcome (its caller already
	// returned an error and never saw the result).
	canceled atomic.Bool

	out   []exec.Match
	stats exec.QueryStats
	err   error
}

// attach joins q to the column's forming batch, creating one if none is
// pending. It reports whether q created the batch — that query is the
// leader and must run the scan and close done.
func (s *scanAdmission) attach(column int, q *attachedQuery) (*scanBatch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b := s.pending[column]; b != nil {
		b.queries = append(b.queries, q)
		return b, false
	}
	if s.pending == nil {
		s.pending = make(map[int]*scanBatch)
	}
	b := &scanBatch{queries: []*attachedQuery{q}, done: make(chan struct{})}
	s.pending[column] = b
	return b, true
}

// seal closes the batch's attach window: no later miss can join, and the
// next miss on the column starts a fresh batch that queues behind this
// one. Returns the attached queries. Called by the leader with the
// table's write lock held.
func (s *scanAdmission) seal(column int, b *scanBatch) []*attachedQuery {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending[column] == b {
		delete(s.pending, column)
	}
	return b.queries
}

// queryShared answers one miss query through the scan-sharing admission
// layer. The caller has planned the query under the read lock and found
// it needs an indexing scan; no lock is held on entry.
//
// Cancellation: a follower whose ctx expires stops waiting immediately
// and returns ctx.Err() — the scan drops its demux slot at the next page
// boundary and keeps serving the rest of the batch. The leader cannot
// abandon the wait for the write lock, but its own predicate is dropped
// the same way once the scan starts, and the scan aborts early only if
// every attached query is canceled.
func (t *Table) queryShared(ctx context.Context, column int, lo, hi storage.Value) ([]exec.Match, exec.QueryStats, error) {
	counters := &t.engine.sharedScans
	counters.Misses.Add(1)
	tp := t.spanTap(t.engine.flightActive(ctx), column)
	tp.span(flight.SpanMissAdmit, "", -1, 0)

	q := &attachedQuery{ctx: ctx, lo: lo, hi: hi}
	batch, leader := t.scans.attach(column, q)
	if !leader {
		counters.Attached.Add(1)
		tp.span(flight.SpanScanAttach, "", -1, 0)
		select {
		case <-batch.done:
			return q.out, q.stats, q.err
		case <-ctx.Done():
			q.canceled.Store(true)
			return nil, exec.QueryStats{}, ctx.Err()
		}
	}

	// Leader: the wait for the write lock below IS the attach window —
	// misses arriving while we queue here join the batch for free.
	t.mu.Lock()
	attached := t.scans.seal(column, batch)
	// Re-resolve the access path under the write lock: an index
	// redefinition may have slipped in between planning and execution.
	// ExecuteShared re-dispatches per query on the state it finds, so
	// attached predicates the new index covers are served as hits.
	a, err := t.accessLocked(ctx, column)
	if err != nil {
		for _, aq := range attached {
			aq.err = err
		}
	} else {
		counters.Scans.Add(1)
		tp.span(flight.SpanScanLead, "", -1, len(attached))
		t.runShared(a, column, attached)
	}
	t.mu.Unlock()
	close(batch.done)
	return q.out, q.stats, q.err
}

// runShared executes one shared pass for the sealed batch, publishes
// each query's outcome and observes it under the query's own context.
// Runs with the table's write lock held.
func (t *Table) runShared(a exec.Access, column int, attached []*attachedQuery) {
	qs := make([]exec.SharedQuery, len(attached))
	for i, aq := range attached {
		qs[i] = exec.SharedQuery{Lo: aq.lo, Hi: aq.hi, Ctx: aq.ctx}
	}
	outs := exec.ExecuteShared(a, qs)
	// The batch's first scanning query carries the scan-stage fan-out.
	for _, o := range outs {
		if o.Stats.ScanWorkers > 0 {
			t.engine.noteScanWorkers(o.Stats)
			break
		}
	}
	for i, aq := range attached {
		o := outs[i]
		aq.out, aq.stats, aq.err = o.Matches, o.Stats, o.Err
		if o.Err == nil && !aq.canceled.Load() {
			// attached[0] is the query that created the batch — the leader
			// whose wall time is the scan itself. Followers spent their time
			// waiting on the leader, so their latency is tracked under a
			// separate mechanism to keep the scan histograms honest.
			t.observe(aq.ctx, column, o.Stats, i != 0, a.Buffer)
		}
	}
}
