package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/epoch"
	"repro/internal/storage"
)

// Space is the Index Buffer Space (paper §IV): the bounded share of the
// database buffer that holds all Index Buffers. It owns the entry budget,
// the LRU-K bookkeeping across buffers (Table II), and the page-selection
// / displacement policy (Algorithm 2).
//
// Concurrency: the Space's mutex guards the buffer registry and
// serializes displacement (SelectPagesForBuffer), which is the only path
// that reaches across buffers. The entry budget is an atomic counter so
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

	// epochs, when set, receives the counter snapshots that buffer
	// mutations displace (publishCountersLocked); nil means retired
	// snapshots are simply dropped for the garbage collector. Set once
	// at engine construction, before any traffic.
	epochs *epoch.Domain

	mu      sync.Mutex
	buffers map[string]*IndexBuffer
	order   []string // creation order, for deterministic iteration
	stats   SpaceStats
	obs     Observer // optional management-event sink; may be nil

	tenants     map[string]*Tenant
	tenantOrder []string
}

// Observer receives buffer-management span events from the Space. The
// kinds mirror internal/trace's span constants (this package cannot
// import trace without a cycle): "page-select" after Algorithm 2 chose
// the page set I (buffer = target, n = |I|), "displace" for each
// victim partition dropped (buffer = victim's owner, n = entries
// released), and "buffer-reset" when a buffer is dropped wholesale
// (partial index dropped or redefined; n = entries released) — a new
// buffer under the same name starts a fresh adaptation episode.
// Implementations are called with Space.mu held and must not call back
// into the Space or its buffers.
type Observer interface {
	SpaceEvent(kind, buffer string, page, n int)
}

// SetObserver attaches the management-event sink (nil detaches). The
// engine points it at the tracer's span ring; emission is gated there,
// so an attached observer costs one interface call per indexing scan.
func (s *Space) SetObserver(o Observer) {
	s.mu.Lock()
	s.obs = o
	s.mu.Unlock()
}

// SetEpochDomain attaches the epoch-reclamation domain that receives
// retired counter snapshots. Must be called before any buffer traffic
// (the engine does it at construction); the field is read without
// synchronization afterwards.
func (s *Space) SetEpochDomain(d *epoch.Domain) { s.epochs = d }

// EpochDomain returns the attached epoch domain, nil when none.
func (s *Space) EpochDomain() *epoch.Domain { return s.epochs }

// PinEpoch pins the Space's epoch domain and returns the unpin
// function. Any reader that holds a CounterSnap (or other
// epoch-retired object) across more than one instant must bracket the
// use with PinEpoch — an indexing scan consulting its scan-start
// snapshot page by page, the engine's lock-free probe path — or
// reclamation may nil the snapshot out from under it. A no-op when no
// domain is attached.
func (s *Space) PinEpoch() func() {
	if s.epochs == nil {
		return func() {}
	}
	g := s.epochs.Pin()
	return g.Unpin
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
	b := &IndexBuffer{
		name:      name,
		space:     s,
		cfg:       &s.cfg,
		tenant:    tenant,
		uncovered: append([]int(nil), uncovered...),
		hist:      newHistory(s.cfg.K, &s.clock),
	}
	b.publishCountersLocked() // b is unshared here; no lock needed yet
	s.buffers[name] = b
	s.order = append(s.order, name)
	return b, nil
}

// DropBuffer removes a buffer and releases its entries (partial index
// dropped or redefined).
func (s *Space) DropBuffer(name string) {
	s.mu.Lock()
	b, ok := s.buffers[name]
	if ok {
		delete(s.buffers, name)
		for i, n := range s.order {
			if n == name {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		if s.obs != nil {
			s.obs.SpaceEvent("buffer-reset", name, -1, b.EntryCount())
		}
	}
	s.mu.Unlock()
	if b != nil {
		b.Reset()
	}
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
// what the engine's epoch-based read path relies on. A use additionally
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
// Adaptive Indexing". The engine pins before SelectPagesForBuffer and
// releases after the scan's last page.
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

// SelectPagesForBuffer implements Algorithm 2. For an indexing scan on
// behalf of buffer target, it chooses the set I of pages to index this
// scan — pages with the smallest non-zero counters first, bounded by
// I^MAX and by available space — and displaces victim partitions from
// *other* buffers exactly when the new information's benefit b_I = |I|/T
// exceeds the victims' summed benefit. It performs the drops and returns
// I sorted ascending.
//
// candidates is the scan range R as counter-bearing pages; callers pass
// every table page (the scan range of the query). The Space's mutex is
// held throughout, serializing displacement globally; per-buffer locks
// are taken underneath it for the actual reads and drops.
func (s *Space) SelectPagesForBuffer(target *IndexBuffer, numPages int) []storage.PageID {
	return s.SelectPagesForBufferObserved(target, numPages, nil)
}

// SelectPagesForBufferObserved is SelectPagesForBuffer with a per-call
// observer: perQuery (when non-nil) receives this selection's
// management events — "displace" and "page-select" — in addition to the
// Space-wide observer, so the caller can attribute them to the query
// whose indexing scan triggered the selection. perQuery runs with
// Space.mu held and must honor the Observer contract.
func (s *Space) SelectPagesForBufferObserved(target *IndexBuffer, numPages int, perQuery Observer) []storage.PageID {
	s.mu.Lock()
	defer s.mu.Unlock()

	// Candidate pages: C[p] > 0, ascending counter — cheapest pages
	// first, maximizing skippable pages per buffer entry (§III: pages
	// with many already-indexed tuples are more valuable).
	type cand struct {
		page storage.PageID
		n    int // entries the page would add == C[p]
	}
	var cands []cand
	target.mu.Lock()
	target.growPagesLocked(numPages)
	for p := 0; p < numPages; p++ {
		pg := storage.PageID(p)
		if c := target.counterLocked(pg); c > 0 {
			cands = append(cands, cand{pg, c})
		}
	}
	target.mu.Unlock()
	switch s.cfg.Selection {
	case DescendingCounter:
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].n != cands[j].n {
				return cands[i].n > cands[j].n
			}
			return cands[i].page < cands[j].page
		})
	case RandomOrder:
		// The shuffle draws from its own derived stream, never from the
		// victim-selection stream, so switching policies does not perturb
		// displacement replay.
		s.cfg.selRand.Shuffle(len(cands), func(i, j int) {
			cands[i], cands[j] = cands[j], cands[i]
		})
	default: // AscendingCounter — the paper's policy
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].n != cands[j].n {
				return cands[i].n < cands[j].n
			}
			return cands[i].page < cands[j].page
		})
	}
	if len(cands) > s.cfg.IMax {
		cands = cands[:s.cfg.IMax]
	}
	if len(cands) == 0 {
		return nil
	}

	// fit returns how many candidate pages fit into the given entry
	// budget (prefix of the ascending-counter order, capped by IMax).
	fit := func(budget int) (count, entries int) {
		for _, c := range cands {
			if entries+c.n > budget {
				break
			}
			entries += c.n
			count++
		}
		return count, entries
	}

	tTarget := target.hist.Mean()
	benefitOf := func(pages int) float64 { return float64(pages) / tTarget }

	// Iteratively grow the victim set D while the enlarged page set I is
	// strictly more beneficial than the partitions it displaces. With
	// tenants the scan's entry budget is the tighter of the global pool
	// and the target tenant's quota headroom, and the victim competition
	// runs in two arenas: as long as the tenant's own budget is the
	// binding constraint, victims come from the tenant's own buffers (a
	// tenant never grows past its quota by evicting someone else); only
	// when the global pool is what binds does the competition spill to
	// every buffer — the paper's original global two-stage selection,
	// which resolves quota overcommit. Same-tenant drops refund both
	// ledgers, cross-tenant drops only the global one.
	var victims []victimRef
	victimGlobal := 0 // entries freed toward the global budget (all victims)
	victimTenant := 0 // entries freed toward the tenant budget (same-tenant victims)
	victimBenefit := 0.0
	excluded := map[*Partition]bool{}

	gFree, tFree := s.Free(), tenantFree(target)
	accepted, _ := fit(min(gFree, tFree))
	for accepted < len(cands) {
		intraTenant := target.tenant != nil && tFree+victimTenant <= gFree+victimGlobal
		v := s.selectNextVictim(target, excluded, intraTenant)
		if v == nil {
			break
		}
		excluded[v.part] = true
		nextGlobal := victimGlobal + v.entries
		nextTenant := victimTenant
		if v.owner.tenant == target.tenant {
			nextTenant += v.entries
		}
		nextBenefit := victimBenefit + v.benefit
		nextAccepted, _ := fit(min(gFree+nextGlobal, tFree+nextTenant))
		if benefitOf(nextAccepted) <= nextBenefit || nextAccepted == accepted {
			break // the paper's until-condition: reject the enlargement
		}
		victims = append(victims, *v)
		victimGlobal, victimTenant = nextGlobal, nextTenant
		victimBenefit = nextBenefit
		accepted = nextAccepted
	}

	if accepted == 0 && target.tenant != nil {
		// Candidates exist but not even the cheapest fits what the tenant
		// can muster (headroom plus intra-tenant victims the benefit
		// competition was willing to give up): latch exhaustion so the
		// tenant's next miss degrades at admission rather than re-running
		// this fruitless selection. charge() clears the latch on release.
		minCost := cands[0].n
		for _, c := range cands[1:] {
			if c.n < minCost {
				minCost = c.n
			}
		}
		if minCost > tFree+victimTenant {
			target.tenant.exhausted.Store(true)
		}
	}

	// Perform the accepted drops.
	for _, v := range victims {
		s.stats.PartitionsDropped++
		s.stats.EntriesDropped += uint64(v.entries)
		if v.owner.tenant != target.tenant {
			s.stats.CrossTenantEntriesDropped += uint64(v.entries)
			if v.owner.tenant != nil {
				v.owner.tenant.evicted.Add(uint64(v.entries))
			}
		}
		v.owner.dropPartition(v.part)
		if s.obs != nil {
			s.obs.SpaceEvent("displace", v.owner.name, -1, v.entries)
		}
		if perQuery != nil {
			perQuery.SpaceEvent("displace", v.owner.name, -1, v.entries)
		}
	}

	out := make([]storage.PageID, 0, accepted)
	for _, c := range cands[:accepted] {
		out = append(out, c.page)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	s.stats.PagesSelected += uint64(len(out))
	if s.obs != nil {
		s.obs.SpaceEvent("page-select", target.name, -1, len(out))
	}
	if perQuery != nil {
		perQuery.SpaceEvent("page-select", target.name, -1, len(out))
	}
	return out
}

// victimRef pairs a chosen victim partition with its owning buffer during
// SelectPagesForBuffer, along with the size and benefit observed at
// selection time (read under the owner's lock).
type victimRef struct {
	part    *Partition
	owner   *IndexBuffer
	entries int
	benefit float64
}

// selectNextVictim implements the paper's two-staged victim selection:
// stage 1 picks a buffer other than the target, randomly weighted by
// inverse benefit (low-benefit buffers are likelier); stage 2 picks that
// buffer's incomplete partition first, then complete partitions in
// descending entry count. Partitions in excluded are already chosen.
// Buffers pinned by an in-flight indexing scan are never victims. When
// sameTenant is set, stage 1 only considers buffers of the target's own
// tenant — the intra-tenant arena of the two-level competition.
// Called with s.mu held.
func (s *Space) selectNextVictim(target *IndexBuffer, excluded map[*Partition]bool, sameTenant bool) *victimRef {
	type choice struct {
		buf    *IndexBuffer
		weight float64
	}
	var choices []choice
	total := 0.0
	for _, n := range s.order {
		b := s.buffers[n]
		if b == target || b.scanPins > 0 {
			continue
		}
		if sameTenant && b.tenant != target.tenant {
			continue
		}
		if !b.hasDroppable(excluded) {
			continue
		}
		w := 1.0
		if s.cfg.Victims == BenefitWeighted {
			if ben := b.Benefit(); ben > 0 {
				w = 1.0 / ben
			} else {
				// A zero-benefit buffer (only excluded/empty partitions
				// left would have been filtered) is the cheapest possible
				// victim.
				w = math.MaxFloat64 / 4
			}
		}
		choices = append(choices, choice{b, w})
		total += w
	}
	if len(choices) == 0 {
		return nil
	}
	r := s.cfg.Rand.Float64() * total
	var picked *IndexBuffer
	for _, c := range choices {
		r -= c.weight
		if r <= 0 {
			picked = c.buf
			break
		}
	}
	if picked == nil {
		picked = choices[len(choices)-1].buf
	}
	picked.mu.RLock()
	part := picked.pickVictimPartitionLocked(excluded, &s.cfg)
	var entries int
	var benefit float64
	if part != nil {
		entries = part.EntryCount()
		benefit = part.benefit(picked.hist.Mean())
	}
	picked.mu.RUnlock()
	if part == nil {
		return nil
	}
	return &victimRef{part: part, owner: picked, entries: entries, benefit: benefit}
}

// hasDroppable reports whether the buffer has a partition not yet chosen.
func (b *IndexBuffer) hasDroppable(excluded map[*Partition]bool) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for _, p := range b.parts {
		if !excluded[p] {
			return true
		}
	}
	return false
}

// pickVictimPartitionLocked applies stage 2: the incomplete partition
// (X_p < P) has the lowest benefit and goes first; complete partitions
// follow in descending size n_p (equal benefit, so free the most space).
// With probability cfg.DisplacementJitter the deterministic order is
// replaced by a uniform pick over the droppable partitions — an
// adversary that triggers displacement right after every scan would
// otherwise kill the same frontier partition every round and starve
// convergence indefinitely. Callers hold b.mu; the Space's mutex is
// also held (selectNextVictim), which serializes the jitter stream.
func (b *IndexBuffer) pickVictimPartitionLocked(excluded map[*Partition]bool, cfg *Config) *Partition {
	if j := cfg.DisplacementJitter; j > 0 && cfg.jitterRand.Float64() < j {
		var droppable []*Partition
		for _, p := range b.parts {
			if !excluded[p] {
				droppable = append(droppable, p)
			}
		}
		if len(droppable) == 0 {
			return nil
		}
		return droppable[cfg.jitterRand.Intn(len(droppable))]
	}
	var incomplete *Partition
	var best *Partition
	for _, p := range b.parts {
		if excluded[p] {
			continue
		}
		if !p.complete(cfg.P) {
			if incomplete == nil || p.PageCount() < incomplete.PageCount() {
				incomplete = p
			}
			continue
		}
		if best == nil || p.EntryCount() > best.EntryCount() {
			best = p
		}
	}
	if incomplete != nil {
		return incomplete
	}
	return best
}
