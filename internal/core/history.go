package core

import (
	"sync"
	"sync/atomic"
)

// History is the LRU-K access history of one Index Buffer (paper §IV,
// Table II; O'Neil, O'Neil & Weikum's LRU-K). It records the lengths of
// the last K access intervals, where an interval is the number of
// queries between two uses of the buffer.
//
// Per Table II, the history of the queried column's buffer advances to
// a new interval only when the query actually *uses* the buffer (a
// partial-index miss); every other query — hits on the queried column
// and all queries on other columns — just lengthens the running
// interval.
//
// The running interval is not stored: it is derived from a global query
// clock shared by every history of one Space. "This query lengthens
// every unused buffer's running interval" then costs a single atomic
// increment of the clock instead of a per-buffer mutex walk, which is
// what lets the lock-free read path record its queries without
// taking any lock (Space.OnQuery). Only an actual use — rare, and
// already serialized per buffer by the owning table's write lock —
// touches the history's mutex. The observable values (Mean, Snapshot)
// are identical to the stored-intervals formulation: with lastUse the
// clock value of the buffer's most recent use, the running interval is
// clock−lastUse, and the interval closed by a use at clock g is
// g−lastUse−1 (the queries strictly between the two using queries,
// which are the ones that would have Ticked it).
type History struct {
	clock *atomic.Uint64 // shared query clock; owned by the Space (or private)

	mu      sync.Mutex
	k       int
	lastUse uint64 // clock value of the most recent use
	closed  []int  // k-1 most recently closed intervals, [0] newest
}

// NewHistory creates a standalone history of depth k (k >= 1) with its
// own query clock. All intervals start at zero: a fresh buffer looks
// recently used, which front-loads benefit to new index information —
// exactly the "quickly of help" goal the management strategy balances
// (§IV). Buffers created inside a Space share the Space's clock instead
// (newHistory).
func NewHistory(k int) *History {
	return newHistory(k, new(atomic.Uint64))
}

// newHistory creates a history on an existing clock, starting its
// running interval now.
func newHistory(k int, clock *atomic.Uint64) *History {
	if k < 1 {
		k = 1
	}
	return &History{clock: clock, k: k, lastUse: clock.Load(), closed: make([]int, k-1)}
}

// K returns the history depth.
func (h *History) K() int { return h.k }

// Tick lengthens the running interval by one query — the buffer was not
// used by this query. On a shared clock this advances every sibling
// history's running interval too, exactly as one Space-level query
// would; standalone histories keep the old per-history semantics.
func (h *History) Tick() { h.clock.Add(1) }

// Use records one query that used the buffer: the running interval
// closes and a new one starts.
func (h *History) Use() { h.useAt(h.clock.Add(1)) }

// useAt closes the running interval against a use at clock value g.
// The closed interval excludes both using queries; the oldest interval
// falls out of the window.
func (h *History) useAt(g uint64) {
	h.mu.Lock()
	if g > h.lastUse {
		run := int(g - h.lastUse - 1)
		if len(h.closed) > 0 {
			copy(h.closed[1:], h.closed)
			h.closed[0] = run
		}
		h.lastUse = g
	}
	h.mu.Unlock()
}

// Mean returns the mean access interval T_B = K⁻¹ · Σ H_B[i], floored
// at 1 so that benefit values b = X / T_B stay finite for buffers used
// on consecutive queries.
func (h *History) Mean() float64 {
	g := h.clock.Load()
	h.mu.Lock()
	defer h.mu.Unlock()
	sum := 0
	if g > h.lastUse {
		sum = int(g - h.lastUse)
	}
	for _, v := range h.closed {
		sum += v
	}
	m := float64(sum) / float64(h.k)
	if m < 1 {
		return 1
	}
	return m
}

// Snapshot returns a copy of the intervals, running interval first.
func (h *History) Snapshot() []int {
	g := h.clock.Load()
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]int, h.k)
	if g > h.lastUse {
		out[0] = int(g - h.lastUse)
	}
	copy(out[1:], h.closed)
	return out
}
