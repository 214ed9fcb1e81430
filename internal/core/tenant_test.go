package core

import (
	"testing"
)

func TestCreateTenantValidation(t *testing.T) {
	s := NewSpace(Config{IMax: 10, P: 10})
	if _, err := s.CreateTenant("", 10, false); err == nil {
		t.Error("empty tenant name accepted")
	}
	tn, err := s.CreateTenant("acme", 10, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTenant("acme", 20, false); err == nil {
		t.Error("duplicate tenant name accepted")
	}
	if got := s.Tenant("acme"); got != tn {
		t.Error("Tenant lookup returned a different value")
	}
	if got := s.Tenant("nope"); got != nil {
		t.Errorf("unknown tenant lookup = %v, want nil", got)
	}
	if _, err := s.CreateTenant("beta", 0, true); err != nil {
		t.Fatal(err)
	}
	names := []string{}
	for _, tn := range s.Tenants() {
		names = append(names, tn.Name())
	}
	if len(names) != 2 || names[0] != "acme" || names[1] != "beta" {
		t.Errorf("Tenants() order = %v, want [acme beta]", names)
	}
}

// TestTenantQuotaCapsSelection pins the hard invariant for query
// traffic: page selection never grows a tenant past its quota, and once
// the headroom cannot fit a single page the tenant latches exhausted so
// admission degrades instead of re-running fruitless scans.
func TestTenantQuotaCapsSelection(t *testing.T) {
	s := NewSpace(Config{IMax: 100, P: 10, SpaceLimit: 100})
	tn, err := s.CreateTenant("acme", 5, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.CreateBufferFor("acme:t.a", []int{3, 3, 3}, tn)
	if err != nil {
		t.Fatal(err)
	}

	got := s.SelectPagesForBuffer(b, 3)
	if len(got) != 1 {
		t.Fatalf("selected %d pages, want 1 (quota 5, 3 entries per page)", len(got))
	}
	indexPages(t, b, got)
	if tn.Used() != 3 || s.Used() != 3 {
		t.Errorf("tenant used=%d space used=%d, want 3/3", tn.Used(), s.Used())
	}
	if tn.OverQuota() {
		t.Error("tenant over quota at 3/5 before any fruitless scan")
	}

	// 2 entries of headroom, every page costs 3, no intra-tenant victim
	// worth taking: selection is empty and the exhaustion latch flips.
	if got := s.SelectPagesForBuffer(b, 3); len(got) != 0 {
		t.Fatalf("selected %v past the quota", got)
	}
	if tn.Used() != 3 {
		t.Errorf("tenant used=%d after empty selection, want 3", tn.Used())
	}
	if !tn.Exhausted() || !tn.OverQuota() {
		t.Error("tenant not latched exhausted after a fruitless selection")
	}

	// Releasing entries clears the latch: the next miss may scan again.
	b.Reset()
	if tn.Used() != 0 {
		t.Errorf("tenant used=%d after Reset, want 0", tn.Used())
	}
	if tn.Exhausted() || tn.OverQuota() {
		t.Error("exhaustion latch survived the release of every entry")
	}
}

// TestTenantIntraDisplacement pins the two-level competition: while the
// tenant budget is the binding constraint, victims come from the
// tenant's own buffers — never from other tenants or the default pool.
func TestTenantIntraDisplacement(t *testing.T) {
	s := NewSpace(Config{IMax: 100, P: 2, K: 2, SpaceLimit: 100,
		Seed: 42})
	tn, err := s.CreateTenant("acme", 4, false)
	if err != nil {
		t.Fatal(err)
	}
	other, err := s.CreateTenant("other", 100, false)
	if err != nil {
		t.Fatal(err)
	}

	cold, _ := s.CreateBufferFor("acme:t.cold", []int{2, 2}, tn)
	target, _ := s.CreateBufferFor("acme:t.new", []int{2, 2}, tn)
	foreign, _ := s.CreateBufferFor("other:t.a", []int{2, 2}, other)
	deflt, _ := s.CreateBuffer("t.default", []int{2, 2})

	indexPages(t, cold, s.SelectPagesForBuffer(cold, 2))       // acme: 4/4
	indexPages(t, foreign, s.SelectPagesForBuffer(foreign, 2)) // other: 4
	indexPages(t, deflt, s.SelectPagesForBuffer(deflt, 2))     // default: 4
	if tn.Used() != 4 {
		t.Fatalf("acme used=%d, want 4 (at quota)", tn.Used())
	}

	// Age cold, make the target hot, then let it compete for space. The
	// global pool has 88 entries free — the tenant budget is what binds,
	// so the victim must be acme's own cold buffer.
	for i := 0; i < 50; i++ {
		s.OnQuery(foreign, false)
	}
	s.OnQuery(target, false)
	s.OnQuery(target, false)

	got := s.SelectPagesForBuffer(target, 2)
	if len(got) == 0 {
		t.Fatal("no pages selected despite an intra-tenant victim")
	}
	indexPages(t, target, got)
	if tn.Used() > 4 {
		t.Errorf("acme used=%d, quota 4 breached", tn.Used())
	}
	if cold.EntryCount() >= 4 {
		t.Errorf("cold kept %d entries; expected intra-tenant displacement", cold.EntryCount())
	}
	if foreign.EntryCount() != 4 || deflt.EntryCount() != 4 {
		t.Errorf("foreign=%d default=%d entries; cross-tenant displacement leaked",
			foreign.EntryCount(), deflt.EntryCount())
	}
	if n := s.Stats().CrossTenantEntriesDropped; n != 0 {
		t.Errorf("CrossTenantEntriesDropped = %d, want 0", n)
	}
	if other.Evicted() != 0 {
		t.Errorf("other tenant recorded %d evictions", other.Evicted())
	}
}

// TestTenantOvercommitSpillsGlobally pins the other arena: when quotas
// overcommit SpaceLimit, the global pool binds and the competition may
// displace another tenant — counted on both ledgers.
func TestTenantOvercommitSpillsGlobally(t *testing.T) {
	s := NewSpace(Config{IMax: 100, P: 2, K: 2, SpaceLimit: 4,
		Seed: 7})
	a, _ := s.CreateTenant("a", 4, false)
	bT, _ := s.CreateTenant("b", 4, false) // 4+4 quota > SpaceLimit 4

	victim, _ := s.CreateBufferFor("a:t.x", []int{2, 2}, a)
	target, _ := s.CreateBufferFor("b:t.y", []int{2, 2}, bT)
	indexPages(t, victim, s.SelectPagesForBuffer(victim, 2)) // fills the space

	// Age the victim, heat the target: the global pool is full, tenant b
	// has full quota headroom, so the spill arena must evict tenant a.
	for i := 0; i < 50; i++ {
		s.OnQuery(target, false)
	}
	s.OnQuery(target, false)

	got := s.SelectPagesForBuffer(target, 2)
	if len(got) == 0 {
		t.Fatal("no pages selected despite a cross-tenant victim under overcommit")
	}
	indexPages(t, target, got)
	if s.Used() > 4 {
		t.Errorf("space used=%d, SpaceLimit 4 breached", s.Used())
	}
	if n := s.Stats().CrossTenantEntriesDropped; n == 0 {
		t.Error("overcommit displacement not counted in CrossTenantEntriesDropped")
	}
	if a.Evicted() == 0 {
		t.Error("victim tenant's Evicted counter not bumped")
	}
}
