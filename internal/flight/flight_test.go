package flight

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// spin burns until the monotonic clock visibly advances, so a record
// completed after it has DurationNanos >= 1 without sleeping.
func spin() {
	t0 := time.Now()
	for time.Since(t0) <= 0 {
	}
}

func TestMechanismPriority(t *testing.T) {
	cases := []struct {
		empty, hit, follower, full, degraded bool
		want                                 string
	}{
		{true, true, true, true, true, "empty-range"},
		{false, true, true, true, true, "hit"},
		{false, false, true, true, true, "shared-follower"},
		{false, false, false, true, true, "full-scan"},
		{false, false, false, false, true, "degraded-scan"},
		{false, false, false, false, false, "indexing-scan"},
	}
	for _, c := range cases {
		if got := Mechanism(c.empty, c.hit, c.follower, c.full, c.degraded); got != c.want {
			t.Errorf("Mechanism(%v,%v,%v,%v,%v) = %q, want %q",
				c.empty, c.hit, c.follower, c.full, c.degraded, got, c.want)
		}
	}
}

// TestMechanismsVocabulary pins Mechanisms to exactly the labels
// Mechanism returns, in name order: the tracer indexes its latency
// histograms by position and reports them in this order.
func TestMechanismsVocabulary(t *testing.T) {
	seen := map[string]bool{}
	for flags := 0; flags < 1<<5; flags++ {
		bit := func(i int) bool { return flags&(1<<i) != 0 }
		seen[Mechanism(bit(0), bit(1), bit(2), bit(3), bit(4))] = true
	}
	if len(seen) != len(Mechanisms) {
		t.Errorf("Mechanism returns %d labels, Mechanisms lists %d", len(seen), len(Mechanisms))
	}
	for i, m := range Mechanisms {
		if !seen[m] {
			t.Errorf("Mechanisms[%d] = %q is never returned by Mechanism", i, m)
		}
		if i > 0 && Mechanisms[i-1] >= m {
			t.Errorf("Mechanisms not in name order at %q, %q", Mechanisms[i-1], m)
		}
	}
}

func TestActiveNilSafe(t *testing.T) {
	var a *Active
	a.Span(Span{Kind: "page-select", Target: "t.a", Page: 3, N: 10})
	a.Query("t", "a", "hit", 1, 2, 3, false)
	a.WAL(time.Millisecond, 4)
	if a.Trace() != "" {
		t.Error("nil Active has a trace")
	}
	if FromContext(context.Background()) != nil {
		t.Error("bare context yields an Active")
	}
	r := NewRecorder(4, 4)
	r.Complete(nil, nil) // must not panic or count
	if r.Stats().Completed != 0 {
		t.Error("nil Complete counted")
	}
}

func TestActiveAccumulation(t *testing.T) {
	r := NewRecorder(4, 4)
	r.Enable(time.Hour)
	a, ctx := r.Begin(WithTrace(context.Background(), "trace-1"), "acme", "SELECT 1")
	if got := a.Trace(); got != "trace-1" {
		t.Fatalf("Begin dropped the wire trace: %q", got)
	}
	if FromContext(ctx) != a {
		t.Fatal("Begin did not attach the Active to the context")
	}
	a.Query("t", "a", "indexing-scan", 5, 10, 2, false)
	a.Query("t", "a", "hit", 7, 3, 1, true) // last mechanism wins, pages accumulate
	a.Span(Span{Kind: "scan-lead", Target: "t.a", Page: -1, N: 2})
	a.Span(Span{Kind: "page-complete", Target: "t.a", Page: 9, N: 40})
	a.WAL(2*time.Millisecond, 3)
	a.WAL(3*time.Millisecond, 5)
	r.Complete(a, errors.New("boom"))

	recs := r.Recent(0)
	if len(recs) != 1 {
		t.Fatalf("Recent = %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Trace != "trace-1" || rec.Tenant != "acme" || rec.Stmt != "SELECT 1" {
		t.Errorf("identity fields wrong: %+v", rec)
	}
	if rec.Mechanism != "hit" || rec.Matches != 7 {
		t.Errorf("last Query should win: %+v", rec)
	}
	if rec.PagesRead != 13 || rec.PagesSkipped != 3 || !rec.QuotaDegraded {
		t.Errorf("page accounting should accumulate: %+v", rec)
	}
	if rec.WALCommitNanos != int64(5*time.Millisecond) || rec.WALBatch != 5 {
		t.Errorf("WAL accounting wrong: %+v", rec)
	}
	if len(rec.Spans) != 2 || rec.Spans[0].Kind != "scan-lead" || rec.Spans[1].Page != 9 {
		t.Errorf("span tree wrong: %+v", rec.Spans)
	}
	if rec.Error != "boom" {
		t.Errorf("error not stamped: %q", rec.Error)
	}
	if rec.Duration() < 0 {
		t.Errorf("negative duration: %v", rec.Duration())
	}
}

func TestMintIDUnique(t *testing.T) {
	r := NewRecorder(1, 1)
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := r.MintID()
		if !strings.HasPrefix(id, "aib-") {
			t.Fatalf("minted ID %q lacks the aib- prefix", id)
		}
		if seen[id] {
			t.Fatalf("duplicate minted ID %q", id)
		}
		seen[id] = true
	}
	// Begin with no wire trace mints.
	a, _ := r.Begin(context.Background(), "", "X")
	if !strings.HasPrefix(a.Trace(), "aib-") {
		t.Errorf("Begin did not mint: %q", a.Trace())
	}
}

// complete runs one Begin/Complete pair; slow forces the record over a
// 1ns threshold.
func complete(r *Recorder, trace, tenant string, slow bool) {
	a, _ := r.Begin(WithTrace(context.Background(), trace), tenant, "stmt "+trace)
	if slow {
		spin()
	}
	r.Complete(a, nil)
}

func TestRingsEvictionAndSlowCapture(t *testing.T) {
	r := NewRecorder(4, 2)
	r.Enable(time.Hour) // nothing is slow yet
	for i := 0; i < 7; i++ {
		complete(r, fmt.Sprintf("t%d", i), "", false)
	}
	recs := r.Recent(0)
	if len(recs) != 4 {
		t.Fatalf("recent ring holds %d, want capacity 4", len(recs))
	}
	for i, want := range []string{"t6", "t5", "t4", "t3"} {
		if recs[i].Trace != want {
			t.Errorf("Recent[%d].Trace = %q, want %q (newest first)", i, recs[i].Trace, want)
		}
	}
	if got := r.Recent(2); len(got) != 2 || got[0].Trace != "t6" {
		t.Errorf("Recent(2) = %+v", got)
	}
	if len(r.Slow(0)) != 0 {
		t.Error("slow ring populated below threshold")
	}

	r.Enable(1) // everything with a measurable duration is slow now
	for i := 0; i < 3; i++ {
		complete(r, fmt.Sprintf("s%d", i), "", true)
	}
	slow := r.Slow(0)
	if len(slow) != 2 {
		t.Fatalf("slow ring holds %d, want capacity 2", len(slow))
	}
	for i := 1; i < len(slow); i++ {
		if slow[i-1].DurationNanos < slow[i].DurationNanos {
			t.Errorf("Slow not sorted slowest-first: %v then %v",
				slow[i-1].DurationNanos, slow[i].DurationNanos)
		}
	}
	st := r.Stats()
	if st.Completed != 10 || st.Slow != 3 {
		t.Errorf("Stats = %+v, want Completed 10, Slow 3", st)
	}
}

func TestFindFiltersAndDedup(t *testing.T) {
	r := NewRecorder(8, 4)
	r.Enable(1)
	complete(r, "tr-a", "acme", true) // in recent AND slow: must dedup
	complete(r, "tr-b", "tiny", false)
	complete(r, "tr-b", "acme", true)

	if got := r.Find("tr-a", "", 0, 0); len(got) != 1 || got[0].Trace != "tr-a" {
		t.Errorf("Find(trace) = %+v, want exactly the deduped tr-a record", got)
	}
	if got := r.Find("", "acme", 0, 0); len(got) != 2 {
		t.Errorf("Find(tenant acme) = %d records, want 2", len(got))
	}
	got := r.Find("tr-b", "tiny", 0, 0)
	if len(got) != 1 || got[0].Tenant != "tiny" {
		t.Errorf("Find(trace+tenant) = %+v", got)
	}
	if got := r.Find("", "", time.Hour, 0); len(got) != 0 {
		t.Errorf("Find(minDur=1h) = %+v, want none", got)
	}
	all := r.Find("", "", 0, 0)
	if len(all) != 3 {
		t.Fatalf("Find(all) = %d records, want 3 after dedup", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Seq < all[i].Seq {
			t.Error("Find not newest-first")
		}
	}
	if got := r.Find("", "", 0, 2); len(got) != 2 {
		t.Errorf("Find(n=2) = %d records", len(got))
	}
}

func TestSinkReceivesCompletions(t *testing.T) {
	r := NewRecorder(2, 2)
	r.Enable(time.Hour)
	var mu sync.Mutex
	var got []Record
	r.SetSink(func(rec Record) {
		mu.Lock()
		got = append(got, rec)
		mu.Unlock()
	})
	complete(r, "tr-1", "", false)
	r.SetSink(nil)
	complete(r, "tr-2", "", false)
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0].Trace != "tr-1" {
		t.Errorf("sink saw %+v, want exactly tr-1", got)
	}
}

// TestFlightDisabledIsInert pins the overhead contract: the disabled
// gates — Recorder.Enabled (including on a nil recorder), FromContext
// and every nil-Active method — allocate nothing.
func TestFlightDisabledIsInert(t *testing.T) {
	r := NewRecorder(4, 4)
	ctx := context.Background()
	var nilRec *Recorder
	allocs := testing.AllocsPerRun(200, func() {
		if r.Enabled() || nilRec.Enabled() {
			t.Fatal("recorder enabled by default")
		}
		a := FromContext(ctx)
		a.Span(Span{Kind: "page-select", Target: "t.a", Page: 1, N: 2})
		a.Query("t", "a", "hit", 1, 1, 0, false)
		a.WAL(time.Millisecond, 1)
		_ = a.Trace()
	})
	if allocs != 0 {
		t.Errorf("disabled path allocates %v per op, want 0", allocs)
	}
	if r.Stats().Completed != 0 || len(r.Recent(0)) != 0 {
		t.Error("disabled recorder retained state")
	}
}

// TestConcurrentRecorder exercises every public surface at once under
// the race detector: writers completing records, readers snapshotting
// all three views, and threshold changes.
func TestConcurrentRecorder(t *testing.T) {
	r := NewRecorder(16, 8)
	r.Enable(1)
	const writers, perWriter, readers = 4, 200, 3
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				a, _ := r.Begin(context.Background(), fmt.Sprintf("tn%d", w), "stmt")
				a.Span(Span{Kind: "scan-lead", Target: "t.a", Page: -1, N: 1})
				a.Query("t", "a", "indexing-scan", 1, 2, 0, false)
				var err error
				if i%7 == 0 {
					err = errors.New("synthetic")
				}
				r.Complete(a, err)
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = r.Recent(8)
				_ = r.Slow(4)
				_ = r.Find("", fmt.Sprintf("tn%d", g), 0, 8)
				_ = r.Stats()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.Enable(time.Duration(1 + i%3))
		}
	}()

	// Writers finish on their own; stop the readers and the threshold
	// changer once every completion has been counted.
	for r.Stats().Completed < writers*perWriter {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if got := r.Stats().Completed; got != writers*perWriter {
		t.Errorf("Completed = %d, want %d", got, writers*perWriter)
	}
	for _, rec := range r.Recent(0) {
		if rec.Trace == "" || rec.Stmt != "stmt" {
			t.Errorf("torn record in ring: %+v", rec)
		}
	}
}
