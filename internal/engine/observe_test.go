package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/index"
	"repro/internal/storage"
)

// stmt runs one range query as a flight-recorded statement and returns
// its record.
func stmt(t *testing.T, e *Engine, tb *Table, traceID string, column int, lo, hi storage.Value) flight.Record {
	t.Helper()
	fa, ctx := e.Flight().Begin(flight.WithTrace(context.Background(), traceID), "", "query")
	_, _, err := tb.QueryRangeCtx(ctx, column, lo, hi)
	e.Flight().Complete(fa, err)
	if err != nil {
		t.Fatalf("%s: %v", traceID, err)
	}
	recs := e.Flight().Find(traceID, "", 0, 1)
	if len(recs) != 1 {
		t.Fatalf("%s: %d flight records", traceID, len(recs))
	}
	return recs[0]
}

// TestObservationViewsAgree drives a seeded stream through every
// observation site — lock-free and locked hits, an empty range, a
// coalesced miss batch (followers), plain indexing misses, full scans of
// an unindexed column and quota-degraded misses — with spans, the
// timeline and the flight recorder all on, then checks that the three
// monitors tell the same story: per column the same query count, per
// mechanism the same latency count as flight records, and a timeline
// query mix matching the flight records (a degraded scan counts as a
// full scan there).
func TestObservationViewsAgree(t *testing.T) {
	e, tb := newABC(t, Config{Space: core.Config{IMax: 100, P: 100, SpaceLimit: 10000}}, 1500, 100)
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 50)); err != nil {
		t.Fatal(err)
	}
	tn, err := e.CreateTenant("tiny", 3, false)
	if err != nil {
		t.Fatal(err)
	}
	tiny := newTenantTable(t, e, tn, 200, 50, 5)
	e.Tracer().EnableSpans(true)
	e.Timeline().Enable(true)
	e.Flight().Enable(time.Hour)

	rng := rand.New(rand.NewSource(1))
	n := 0
	next := func() string { n++; return fmt.Sprintf("q%d", n) }
	point := func(tb *Table, column int, k int64) flight.Record {
		return stmt(t, e, tb, next(), column, iv(k), iv(k))
	}

	// Lock-free hits and an empty range, then the same on the locked path.
	for _, locked := range []bool{false, true} {
		e.cfg.DisableEpochReadPath = locked // serial phase: no reader races the flip
		before := e.EpochStats().FastHits
		for i := 0; i < 20; i++ {
			point(tb, 0, 1+rng.Int63n(50))
		}
		stmt(t, e, tb, next(), 0, iv(10), iv(5))
		if fast := e.EpochStats().FastHits - before; (fast > 0) == locked {
			t.Fatalf("locked=%v: %d fast hits", locked, fast)
		}
	}
	e.cfg.DisableEpochReadPath = false

	// A coalesced miss batch: the blocker holds the column's batch open so
	// every miss attaches as a follower, and the test performs the
	// leader's duty. The blocker is no statement, so it is marked canceled
	// to keep its outcome out of every view.
	blocker := &attachedQuery{ctx: context.Background(), lo: iv(60), hi: iv(60)}
	blocker.canceled.Store(true)
	batch, leader := tb.scans.attach(0, blocker)
	if !leader {
		t.Fatal("fresh table already has a pending batch")
	}
	const followers = 6
	var wg sync.WaitGroup
	for g := 0; g < followers; g++ {
		wg.Add(1)
		id := next()
		go func(k int64) {
			defer wg.Done()
			fa, ctx := e.Flight().Begin(flight.WithTrace(context.Background(), id), "", "query")
			_, _, err := tb.QueryEqualCtx(ctx, 0, iv(k))
			e.Flight().Complete(fa, err)
			if err != nil {
				t.Error(err)
			}
		}(int64(61 + g))
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.SharedScanStats().Attached != followers {
		if time.Now().After(deadline) {
			t.Fatalf("batch never assembled: %+v", e.SharedScanStats())
		}
		time.Sleep(time.Millisecond)
	}
	tb.mu.Lock()
	attached := tb.scans.seal(0, batch)
	a, err := tb.accessLocked(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	e.sharedScans.Scans.Add(1)
	tb.runShared(a, 0, attached)
	tb.mu.Unlock()
	close(batch.done)
	wg.Wait()

	// Indexing misses, full scans of the unindexed column c, and misses
	// of a tenant past its quota.
	for i := 0; i < 15; i++ {
		point(tb, 0, 51+rng.Int63n(50))
		point(tb, 2, 1+rng.Int63n(100))
	}
	for k := int64(6); k <= 30; k++ {
		point(tiny, 0, k)
	}

	type col struct{ table, column string }
	queries := map[col]int{}
	mix := map[col]map[string]int{}
	mechs := map[string]int{}
	recs := e.Flight().Recent(0)
	if len(recs) != n {
		t.Fatalf("%d flight records for %d statements", len(recs), n)
	}
	for _, r := range recs {
		c := col{r.Table, r.Column}
		queries[c]++
		if mix[c] == nil {
			mix[c] = map[string]int{}
		}
		mix[c][r.Mechanism]++
		mechs[r.Mechanism]++
	}
	for _, m := range []string{"hit", "indexing-scan", "shared-follower", "full-scan", "degraded-scan"} {
		if mechs[m] == 0 {
			t.Errorf("stream never produced a %s outcome: %v", m, mechs)
		}
	}

	tracer := map[col]int{}
	for _, a := range e.Tracer().Aggregates() {
		tracer[col{a.Table, a.Column}] = int(a.Queries)
	}
	if !reflect.DeepEqual(tracer, queries) {
		t.Errorf("tracer queries %v, flight records %v", tracer, queries)
	}
	timeline := map[col]int{}
	for _, c := range e.Convergence() {
		timeline[col{c.Table, c.Column}] = int(c.Queries)
	}
	if !reflect.DeepEqual(timeline, queries) {
		t.Errorf("timeline queries %v, flight records %v", timeline, queries)
	}
	latency := map[string]int{}
	for _, l := range e.Tracer().LatencyStats() {
		latency[l.Mechanism] = l.Count
	}
	if !reflect.DeepEqual(latency, mechs) {
		t.Errorf("latency counts %v, flight mechanisms %v", latency, mechs)
	}
	for _, s := range e.Timeline().Series() {
		m := mix[col{s.Table, s.Column}]
		last := s.Samples[len(s.Samples)-1]
		got := [4]uint64{last.Hits, last.IndexingScans, last.FullScans, last.Followers}
		want := [4]uint64{uint64(m["hit"]), uint64(m["indexing-scan"]), uint64(m["full-scan"] + m["degraded-scan"]), uint64(m["shared-follower"])}
		if got != want {
			t.Errorf("%s timeline mix (hits, indexing, full, followers) = %v, flight records %v", s.Buffer, got, want)
		}
	}
}

// TestTracedSpansReachGlobalStream checks that every span a traced
// statement emits — Algorithm 2's page-select and displace included —
// reaches the global stream stamped with the statement's trace ID: the
// global spans carrying the ID are exactly the flight record's spans.
// A tight space limit makes the traced misses on column b displace
// column a's partitions.
func TestTracedSpansReachGlobalStream(t *testing.T) {
	cfg := Config{Space: core.Config{
		IMax: 20, P: 5, K: 2, SpaceLimit: 400,
		Seed: 3,
	}}
	e, tb := newABC(t, cfg, 1500, 60)
	for col, hi := range map[int]int64{0: 20, 1: 30} {
		if err := tb.CreatePartialIndex(col, index.IntRange(1, hi)); err != nil {
			t.Fatal(err)
		}
	}
	for k := int64(35); k < 60; k++ { // fill the space with column a's entries
		if _, _, err := tb.QueryEqual(0, iv(k)); err != nil {
			t.Fatal(err)
		}
	}
	e.Tracer().EnableSpans(true)
	e.Flight().Enable(time.Hour)

	type span struct {
		kind, target string
		page, n      int
	}
	displaced := false
	for k := int64(35); k < 60 && !displaced; k++ {
		id := fmt.Sprintf("miss-b-%d", k)
		rec := stmt(t, e, tb, id, 1, iv(k), iv(k))
		want := map[span]int{}
		for _, sp := range rec.Spans {
			want[span{sp.Kind, sp.Target, sp.Page, sp.N}]++
			displaced = displaced || sp.Kind == flight.SpanDisplace
		}
		got := map[span]int{}
		for _, sp := range e.Tracer().Spans(1 << 20) {
			if sp.Trace == id {
				got[span{sp.Kind, sp.Target, sp.Page, sp.N}]++
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: global spans %v, flight record spans %v", id, got, want)
		}
	}
	if !displaced {
		t.Fatal("no traced miss displaced; test premise broken")
	}
}
