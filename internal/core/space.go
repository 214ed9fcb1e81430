package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Space is the Index Buffer Space (paper §IV): the bounded share of the
// database buffer that holds all Index Buffers. It owns the entry budget,
// the LRU-K bookkeeping across buffers (Table II), and the page-selection
// / displacement policy (Algorithm 2).
//
// Concurrency: the Space's mutex guards the buffer registry and
// serializes displacement (Select), which is the only path that reaches
// across buffers. The entry budget is an atomic counter so
// buffers can charge and release it under their own locks without
// touching the Space's mutex — the lock order is strictly
// Space.mu → IndexBuffer.mu → History.mu, never the reverse.
type Space struct {
	cfg  Config
	used atomic.Int64 // total entries across all buffers

	// clock is the global query clock behind every buffer's LRU-K
	// history (see History): one atomic increment per query replaces
	// the old under-mutex walk of every buffer, so OnQuery is safe from
	// the engine's lock-free read path.
	clock atomic.Uint64

	mu      sync.Mutex
	buffers map[string]*IndexBuffer
	order   []string // creation order, for deterministic iteration
	stats   SpaceStats

	tenants     map[string]*Tenant
	tenantOrder []string

	// Algorithm 2's scratch, reused by every Select under mu: the
	// candidate pages, the counting sort's table and its output.
	candBuf, sortedBuf []cand
	countBuf           []int
}

// SpaceStats counts management activity. CrossTenantEntriesDropped is
// the subset of EntriesDropped taken from a tenant other than the
// displacing scan's — the global spill of the two-level competition; it
// stays zero as long as every tenant fits its quota.
type SpaceStats struct {
	PartitionsDropped         uint64
	EntriesDropped            uint64
	CrossTenantEntriesDropped uint64
	PagesSelected             uint64
}

// NewSpace creates an Index Buffer Space with the given configuration.
func NewSpace(cfg Config) *Space {
	return &Space{cfg: cfg.withDefaults(), buffers: make(map[string]*IndexBuffer)}
}

// Config returns the effective configuration (defaults applied).
func (s *Space) Config() Config { return s.cfg }

// Used returns the total number of entries currently held.
func (s *Space) Used() int { return int(s.used.Load()) }

// addUsed adjusts the entry budget; called by buffers under their own
// locks, hence atomic rather than guarded by s.mu.
func (s *Space) addUsed(delta int) { s.used.Add(int64(delta)) }

// Free returns the remaining entry budget n_F. It is negative when
// maintenance inserts pushed usage past the limit (only scans trigger
// displacement, per §IV); unlimited spaces report a huge value.
func (s *Space) Free() int {
	if s.cfg.SpaceLimit <= 0 {
		return math.MaxInt / 2
	}
	return s.cfg.SpaceLimit - s.Used()
}

// Stats returns a snapshot of the management counters.
func (s *Space) Stats() SpaceStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// CreateBuffer registers a new Index Buffer. uncovered[p] must hold, for
// each table page, the number of live tuples not covered by the partial
// index — the paper's counter initialization at partial-index creation
// (§III). The name must be unique.
func (s *Space) CreateBuffer(name string, uncovered []int) (*IndexBuffer, error) {
	return s.CreateBufferFor(name, uncovered, nil)
}

// CreateBufferFor is CreateBuffer with the buffer attributed to a budget
// domain: its entries charge tenant's quota alongside the global budget,
// and displacement scopes its competition accordingly. A nil tenant is
// the default domain (global budget only).
func (s *Space) CreateBufferFor(name string, uncovered []int, tenant *Tenant) (*IndexBuffer, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.buffers[name]; dup {
		return nil, fmt.Errorf("core: buffer %q already exists", name)
	}
	return s.addBufferLocked(name, uncovered, tenant), nil
}

func (s *Space) addBufferLocked(name string, uncovered []int, tenant *Tenant) *IndexBuffer {
	b := &IndexBuffer{
		name:      name,
		space:     s,
		cfg:       &s.cfg,
		tenant:    tenant,
		uncovered: make([]int32, len(uncovered)),
		hist:      newHistory(s.cfg.K, &s.clock),
	}
	for p, n := range uncovered {
		b.uncovered[p] = int32(n)
	}
	s.buffers[name] = b
	s.order = append(s.order, name)
	return b
}

// removeBufferLocked unregisters the named buffer and returns it with
// the number of entries it held (nil, 0 when no buffer has the name).
func (s *Space) removeBufferLocked(name string) (*IndexBuffer, int) {
	b, ok := s.buffers[name]
	if !ok {
		return nil, 0
	}
	delete(s.buffers, name)
	for i, n := range s.order {
		if n == name {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	return b, b.EntryCount()
}

// DropBuffer removes a buffer and releases its entries (partial index
// dropped), returning how many entries it held (0 when no buffer has
// the name).
func (s *Space) DropBuffer(name string) int {
	s.mu.Lock()
	b, released := s.removeBufferLocked(name)
	s.mu.Unlock()
	if b != nil {
		b.Reset()
	}
	return released
}

// ReplaceBuffer swaps the registered buffer b for a fresh, empty one
// with the same name and tenant whose page counters are uncovered
// (partial index redefined or its table vacuumed). It is DropBuffer and
// CreateBufferFor in one step under the Space lock, so no other caller
// can take the name in between and the swap cannot fail. It returns the
// new buffer and the number of entries b held.
func (s *Space) ReplaceBuffer(b *IndexBuffer, uncovered []int) (*IndexBuffer, int) {
	s.mu.Lock()
	_, released := s.removeBufferLocked(b.name)
	nb := s.addBufferLocked(b.name, uncovered, b.tenant)
	s.mu.Unlock()
	b.Reset()
	return nb, released
}

// Buffer returns the named buffer, or nil.
func (s *Space) Buffer(name string) *IndexBuffer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buffers[name]
}

// Buffers returns all buffers in creation order.
func (s *Space) Buffers() []*IndexBuffer {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*IndexBuffer, 0, len(s.order))
	for _, n := range s.order {
		out = append(out, s.buffers[n])
	}
	return out
}

// OnQuery advances every buffer's LRU-K history for one query, per the
// paper's Table II. queried is the buffer of the queried column (nil when
// the column has no buffer); partialHit reports whether the partial index
// answered the query. Only an actual buffer use — a miss on the queried
// column — closes that buffer's running interval.
//
// The common case — a hit, or a query on an unbuffered column — is one
// atomic increment of the shared query clock and takes no lock at all
// (every history derives its running interval from the clock), which is
// what the engine's lock-free read path relies on. A use additionally
// touches the used buffer's History mutex; uses are misses, which hold
// the owning table's write lock anyway.
func (s *Space) OnQuery(queried *IndexBuffer, partialHit bool) {
	g := s.clock.Add(1)
	if queried != nil && !partialHit {
		queried.hist.useAt(g)
	}
}

// PinForScan marks the buffer as the subject of an in-flight indexing
// scan and returns the release function. A pinned buffer is never chosen
// as a displacement victim: the scan's skip decisions (C[p] == 0) and its
// already-collected buffer matches assume the buffer's partitions stay
// put, so a concurrent displacement on behalf of another table's scan
// could otherwise duplicate or lose results — the same scan/displacement
// conflict Graefe et al. resolve with latches in "Concurrency Control for
// Adaptive Indexing". The engine pins before Select and releases after
// the scan's last page.
func (s *Space) PinForScan(b *IndexBuffer) (release func()) {
	s.mu.Lock()
	b.scanPins++
	s.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			b.scanPins--
			s.mu.Unlock()
		})
	}
}
