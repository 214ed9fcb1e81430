package core

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/storage"
)

// Plan is Algorithm 2's decision for one indexing scan: the page set I
// to index and the set D of victim partitions displaced to make room.
type Plan struct {
	// Pages is I, ascending. It is nil when the target has no candidate
	// page (every C[p] is 0), so there was nothing to decide, and empty
	// when candidates exist but none fits.
	Pages []storage.PageID
	// Drops is D, in pick order.
	Drops []Drop
	// Exhausted reports that candidates exist but the target's tenant
	// cannot afford even the cheapest; the plan latches the tenant
	// exhausted (see Tenant.OverQuota).
	Exhausted bool
}

// Drop is one victim partition of a Plan.
type Drop struct {
	Buffer    string // the owning buffer's name
	Entries   int    // entries the drop releases
	Partition *Partition
}

// SelectPagesForBuffer is Select reduced to the page set I.
func (s *Space) SelectPagesForBuffer(target *IndexBuffer, numPages int) []storage.PageID {
	return s.Select(target, numPages).Pages
}

// Select implements Algorithm 2 for an indexing scan on behalf of buffer
// target over the table pages [0, numPages). It chooses the set I of
// pages to index this scan — pages with the smallest non-zero counters
// first, bounded by I^MAX and by available space — and the victim
// partitions D of *other* buffers to displace, exactly when the new
// information's benefit b_I = |I|/T exceeds the victims' summed benefit.
//
// Deciding and applying are one Space.mu section, which serializes
// displacement globally: plan decides over snapshots of the candidates
// and, only when a victim is needed, of the other buffers; applyLocked
// performs the drops. The caller reports the Plan after the lock is gone.
func (s *Space) Select(target *IndexBuffer, numPages int) Plan {
	s.mu.Lock()
	defer s.mu.Unlock()
	cands := s.candidatesLocked(target, numPages)
	if len(cands) == 0 {
		return Plan{}
	}
	gFree, tFree := s.Free(), tenantFree(target)
	var view []victimBuf
	if fit(cands, min(gFree, tFree)) < len(cands) {
		view = s.victimViewLocked(target)
	}
	p := plan(cands, gFree, tFree, target.hist.Mean(), target.tenant, view, &s.cfg)
	s.applyLocked(target, p)
	return p
}

// cand is one candidate page of I.
type cand struct {
	page storage.PageID
	n    int // entries the page would add == C[p]
}

// candidatesLocked returns the scan range's candidate pages — C[p] > 0 —
// in ascending-counter order (shuffled under RandomOrder), capped at
// I^MAX. The paper's order puts the cheapest pages first, maximizing
// skippable pages per buffer entry (§III: pages with many
// already-indexed tuples are more valuable). Callers hold s.mu, which
// serializes the shuffle stream and guards the scratch slices the
// result lives in until the next call.
func (s *Space) candidatesLocked(target *IndexBuffer, numPages int) []cand {
	cands := s.candBuf[:0]
	lo, hi := math.MaxInt, math.MinInt
	target.mu.Lock()
	target.growPagesLocked(numPages)
	target.eachNonZeroLocked(numPages, func(p storage.PageID, c int) {
		cands = append(cands, cand{p, c})
		lo, hi = min(lo, c), max(hi, c)
	})
	target.mu.Unlock()
	s.candBuf = cands
	if s.cfg.Selection == RandomOrder {
		// The shuffle draws from its own derived stream, never from the
		// victim-selection stream, so switching policies does not perturb
		// displacement replay.
		s.cfg.selRand.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		return cands[:min(len(cands), s.cfg.IMax)]
	}
	return s.ascendingLocked(cands, lo, hi)
}

// maxCountSpan bounds the counter span ascendingLocked sorts by
// counting. A page holds at most a few hundred tuples, so only a
// synthetic buffer's counters span more.
const maxCountSpan = 1 << 16

// ascendingLocked orders cands, which are in ascending page order with
// counters in [lo, hi], by (counter, page) and returns the first I^MAX.
// It is a counting sort: stable, so the pages of one counter stay in
// page order, and it places only the pages it keeps. Callers hold s.mu.
func (s *Space) ascendingLocked(cands []cand, lo, hi int) []cand {
	if len(cands) == 0 || hi-lo >= maxCountSpan {
		slices.SortFunc(cands, func(a, b cand) int {
			return cmp.Or(cmp.Compare(a.n, b.n), cmp.Compare(a.page, b.page))
		})
		return cands[:min(len(cands), s.cfg.IMax)]
	}
	// next[c-lo] is where the next page of counter c goes.
	next := slices.Grow(s.countBuf[:0], hi-lo+1)[:hi-lo+1]
	clear(next)
	for _, c := range cands {
		next[c.n-lo]++
	}
	at := 0
	for i, n := range next {
		next[i], at = at, at+n
	}
	k := min(len(cands), s.cfg.IMax)
	out := slices.Grow(s.sortedBuf[:0], k)[:k]
	for _, c := range cands {
		if i := next[c.n-lo]; i < len(out) {
			out[i] = c
		}
		next[c.n-lo]++
	}
	s.countBuf, s.sortedBuf = next, out
	return out
}

// fit returns how many candidate pages, taken in order, fit into the
// given entry budget.
func fit(cands []cand, budget int) int {
	count, entries := 0, 0
	for _, c := range cands {
		if entries+c.n > budget {
			break
		}
		entries += c.n
		count++
	}
	return count
}

// victimBuf is one displaceable buffer as read under its read lock;
// parts holds its partitions not chosen yet, in the buffer's order.
type victimBuf struct {
	name   string
	tenant *Tenant
	weight float64 // stage-1 weight: 1/b_B
	parts  []victimPart
}

// victimPart is one partition of a victimBuf.
type victimPart struct {
	part    *Partition
	pages   int     // X_p
	entries int     // n_p
	benefit float64 // b_p
}

// victimViewLocked snapshots every buffer that may lose partitions to
// target's scan: every buffer but target that holds a partition and is
// not pinned by an in-flight indexing scan, in creation order. Callers
// hold s.mu.
func (s *Space) victimViewLocked(target *IndexBuffer) []victimBuf {
	var view []victimBuf
	for _, n := range s.order {
		b := s.buffers[n]
		if b == target || b.scanPins > 0 {
			continue
		}
		v := victimBuf{name: b.name, tenant: b.tenant}
		benefit := 0.0
		b.mu.RLock()
		t := b.hist.Mean()
		for _, p := range b.parts {
			bp := p.benefit(t)
			benefit += bp
			v.parts = append(v.parts, victimPart{part: p, pages: p.PageCount(), entries: p.EntryCount(), benefit: bp})
		}
		b.mu.RUnlock()
		if len(v.parts) == 0 {
			continue
		}
		if benefit > 0 {
			v.weight = 1.0 / benefit
		} else {
			// A zero-benefit buffer is the cheapest possible victim.
			v.weight = math.MaxFloat64 / 4
		}
		view = append(view, v)
	}
	return view
}

// plan is Algorithm 2's decision over snapshots: cands (ordered, capped
// at I^MAX), the global and tenant entry headroom, the target's mean
// access interval, its tenant and the victim view. It reads no shared
// state and takes no lock; it only draws from cfg's victim and jitter
// streams, in the order the victims are picked.
//
// It grows the victim set D while the enlarged page set I is strictly
// more beneficial than the partitions it displaces. With tenants the
// scan's entry budget is the tighter of the global pool and the target
// tenant's quota headroom, and the victim competition runs in two
// arenas: as long as the tenant's own budget is the binding constraint,
// victims come from the tenant's own buffers (a tenant never grows past
// its quota by evicting someone else); only when the global pool is
// what binds does the competition spill to every buffer — the paper's
// original global two-stage selection, which resolves quota overcommit.
// Same-tenant drops refund both ledgers, cross-tenant drops only the
// global one.
func plan(cands []cand, gFree, tFree int, tTarget float64, tenant *Tenant, view []victimBuf, cfg *Config) Plan {
	var p Plan
	freedGlobal := 0 // entries D frees toward the global budget (all victims)
	freedTenant := 0 // entries D frees toward the tenant budget (same-tenant victims)
	lost := 0.0      // D's summed benefit
	accepted := fit(cands, min(gFree, tFree))
	for accepted < len(cands) {
		b := pickVictimBuffer(view, tenant, tenant != nil && tFree+freedTenant <= gFree+freedGlobal, cfg)
		if b == nil {
			break
		}
		v := b.takePartition(cfg)
		g, t := freedGlobal+v.entries, freedTenant
		if b.tenant == tenant {
			t += v.entries
		}
		n := fit(cands, min(gFree+g, tFree+t))
		if float64(n)/tTarget <= lost+v.benefit || n == accepted {
			break // the paper's until-condition: reject the enlargement
		}
		p.Drops = append(p.Drops, Drop{Buffer: b.name, Entries: v.entries, Partition: v.part})
		freedGlobal, freedTenant, lost, accepted = g, t, lost+v.benefit, n
	}

	if accepted == 0 && tenant != nil {
		// Candidates exist but not even the cheapest fits the tenant's
		// headroom (no drop was accepted, so no victim refunds it): latch
		// exhaustion so the tenant's next miss degrades at admission
		// rather than re-running this fruitless selection. charge()
		// clears the latch on release.
		p.Exhausted = slices.MinFunc(cands, func(a, b cand) int { return cmp.Compare(a.n, b.n) }).n > tFree
	}

	p.Pages = make([]storage.PageID, 0, accepted)
	for _, c := range cands[:accepted] {
		p.Pages = append(p.Pages, c.page)
	}
	slices.Sort(p.Pages)
	return p
}

// pickVictimBuffer is stage 1 of the paper's two-staged victim
// selection: a buffer with a partition left, randomly weighted by
// inverse benefit (low-benefit buffers are likelier). When sameTenant is
// set only the target tenant's buffers compete — the intra-tenant arena
// of the two-level competition. It returns nil when no buffer qualifies.
func pickVictimBuffer(view []victimBuf, tenant *Tenant, sameTenant bool, cfg *Config) *victimBuf {
	var choices []*victimBuf
	total := 0.0
	for i := range view {
		b := &view[i]
		if len(b.parts) == 0 || (sameTenant && b.tenant != tenant) {
			continue
		}
		choices = append(choices, b)
		total += b.weight
	}
	if len(choices) == 0 {
		return nil
	}
	r := cfg.victimRand.Float64() * total
	for _, b := range choices {
		r -= b.weight
		if r <= 0 {
			return b
		}
	}
	return choices[len(choices)-1]
}

// takePartition is stage 2: it removes and returns the buffer's next
// victim partition. The incomplete partition (X_p < P) has the lowest
// benefit and goes first; complete partitions follow in descending size
// n_p (equal benefit, so free the most space). With probability
// cfg.DisplacementJitter the deterministic order is replaced by a
// uniform pick — an adversary that triggers displacement right after
// every scan would otherwise kill the same frontier partition every
// round and starve convergence indefinitely. b must have a partition
// left.
func (b *victimBuf) takePartition(cfg *Config) victimPart {
	var i int
	if j := cfg.DisplacementJitter; j > 0 && cfg.jitterRand.Float64() < j {
		i = cfg.jitterRand.Intn(len(b.parts))
	} else {
		incomplete, best := -1, -1
		for k, p := range b.parts {
			if p.pages < cfg.P {
				if incomplete < 0 || p.pages < b.parts[incomplete].pages {
					incomplete = k
				}
			} else if best < 0 || p.entries > b.parts[best].entries {
				best = k
			}
		}
		i = best
		if incomplete >= 0 {
			i = incomplete
		}
	}
	v := b.parts[i]
	b.parts = slices.Delete(b.parts, i, i+1)
	return v
}

// applyLocked performs p for target's scan: it drops D's partitions,
// counts them — in the Space's stats and the owner's churn, and a drop
// from another tenant also on the victim tenant's evicted ledger — and
// latches the tenant's exhaustion. Callers hold s.mu, which keeps every
// victim registered since the view was taken.
func (s *Space) applyLocked(target *IndexBuffer, p Plan) {
	for _, d := range p.Drops {
		owner := s.buffers[d.Buffer]
		s.stats.PartitionsDropped++
		s.stats.EntriesDropped += uint64(d.Entries)
		owner.displacements.Add(1)
		owner.displacedEntries.Add(uint64(d.Entries))
		if owner.tenant != target.tenant {
			s.stats.CrossTenantEntriesDropped += uint64(d.Entries)
			if owner.tenant != nil {
				owner.tenant.evicted.Add(uint64(d.Entries))
			}
		}
		owner.dropPartition(d.Partition)
	}
	if p.Exhausted {
		target.tenant.exhausted.Store(true)
	}
	s.stats.PagesSelected += uint64(len(p.Pages))
}
