package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/storage"
)

// goldenDrop is one displaced partition as the trace sees it.
type goldenDrop struct {
	buffer  string
	entries int
}

// goldenSelect runs one Algorithm-2 selection and reports the page set I
// and the displaced partitions in pick order.
func goldenSelect(s *Space, b *IndexBuffer, numPages int) ([]storage.PageID, []goldenDrop) {
	p := s.Select(b, numPages)
	var drops []goldenDrop
	for _, d := range p.Drops {
		drops = append(drops, goldenDrop{d.Buffer, d.Entries})
	}
	return p.Pages, drops
}

// goldenDigests are the per-run trace digests of TestSelectGoldenTrace.
// They pin Algorithm 2's observable behaviour — every selected page set,
// every displaced partition in pick order, the management counters and
// the tenant latches — bit for bit, so a refactor of the selection code
// must replay each run exactly.
var goldenDigests = map[string]uint64{
	"ascending/1":     0x58c2c2bdbaaa272a,
	"ascending/2":     0x7107364265eae09e,
	"ascending/3":     0xbd3995ec36db2e62,
	"random/1":        0x5d7104273afece0b,
	"random/2":        0xeefe4e71aee3dac4,
	"random/3":        0x569a14693ada24aa,
	"random+jitter/1": 0x76f417c25954e043,
	"random+jitter/2": 0x5b092bc9252e6231,
	"random+jitter/3": 0xf8521b7ba020c9b,
}

// TestSelectGoldenTrace replays a few hundred selections over four
// buffers in two tenants plus the default domain, under each candidate
// order and with full displacement jitter, and hashes every step's
// outcome into one digest per run. The quotas overcommit the global
// limit, so some steps are bound by the global pool and others by a
// tenant's quota; the test checks that both happen.
func TestSelectGoldenTrace(t *testing.T) {
	arms := []struct {
		name   string
		sel    SelectionOrder
		jitter float64
	}{
		{"ascending", AscendingCounter, 0},
		{"random", RandomOrder, 0},
		{"random+jitter", RandomOrder, 1},
	}
	var globalBound, tenantBound, drops, latched int
	for _, arm := range arms {
		for seed := int64(1); seed <= 3; seed++ {
			key := fmt.Sprintf("%s/%d", arm.name, seed)
			d, st := goldenRun(t, arm.sel, arm.jitter, seed)
			globalBound += st.globalBound
			tenantBound += st.tenantBound
			drops += st.drops
			latched += st.latched
			want, ok := goldenDigests[key]
			if !ok {
				t.Errorf("%s: digest %#x not recorded", key, d)
				continue
			}
			if d != want {
				t.Errorf("%s: digest %#x, want %#x", key, d, want)
			}
		}
	}
	if globalBound == 0 || tenantBound == 0 || drops == 0 || latched == 0 {
		t.Errorf("trace does not exercise both arenas: global-bound=%d tenant-bound=%d drops=%d latched=%d",
			globalBound, tenantBound, drops, latched)
	}
}

type goldenStats struct{ globalBound, tenantBound, drops, latched int }

func goldenRun(t *testing.T, sel SelectionOrder, jitter float64, seed int64) (uint64, goldenStats) {
	t.Helper()
	s := NewSpace(Config{IMax: 4, P: 3, K: 2, SpaceLimit: 60, Seed: seed, Selection: sel, DisplacementJitter: jitter})
	acme, _ := s.CreateTenant("acme", 36, false)
	beta, _ := s.CreateTenant("beta", 30, false)
	drv := rand.New(rand.NewSource(1000 + seed))
	const pages = 24
	counters := func() []int {
		c := make([]int, pages)
		for i := range c {
			c[i] = 1 + drv.Intn(5)
		}
		return c
	}
	var bufs []*IndexBuffer
	for _, spec := range []struct {
		name   string
		tenant *Tenant
	}{{"acme:t.a", acme}, {"acme:t.b", acme}, {"beta:u.a", beta}, {"v.a", nil}} {
		b, err := s.CreateBufferFor(spec.name, counters(), spec.tenant)
		if err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, b)
	}
	// Skewed use so the buffers' benefits differ.
	weights := []int{5, 1, 3, 2}

	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	var st goldenStats
	for step := 0; step < 240; step++ {
		w := drv.Intn(11)
		i := 0
		for ; w >= weights[i]; i++ {
			w -= weights[i]
		}
		target := bufs[i]
		for q := drv.Intn(3); q >= 0; q-- {
			s.OnQuery(target, false)
		}
		var release func()
		if step%7 == 3 { // an in-flight scan elsewhere shields its buffer
			release = s.PinForScan(bufs[(i+1)%len(bufs)])
		}
		gFree, tFree := s.Free(), tenantFree(target)
		got, dropped := goldenSelect(s, target, pages)
		if release != nil {
			release()
		}
		if len(dropped) > 0 || len(got) == 0 {
			if target.tenant != nil && tFree < gFree {
				st.tenantBound++
			} else {
				st.globalBound++
			}
		}
		st.drops += len(dropped)

		h.Write([]byte(target.name))
		put(uint64(len(got)))
		for _, p := range got {
			put(uint64(p))
		}
		put(uint64(len(dropped)))
		for _, d := range dropped {
			h.Write([]byte(d.buffer))
			put(uint64(d.entries))
		}
		ss := s.Stats()
		put(ss.PartitionsDropped)
		put(ss.EntriesDropped)
		put(ss.CrossTenantEntriesDropped)
		put(ss.PagesSelected)
		for _, tn := range []*Tenant{acme, beta} {
			var x uint64
			if tn.Exhausted() {
				x = 1
				st.latched++
			}
			put(x)
			put(tn.Evicted())
		}
		indexPages(t, target, got)
	}
	return h.Sum64(), st
}
