package metrics

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestSeriesStats(t *testing.T) {
	s := NewSeries("cost")
	if s.Min() != 0 || s.Max() != 0 || s.Mean() != 0 || s.Len() != 0 {
		t.Error("empty series stats should be 0")
	}
	for _, v := range []float64{3, 1, 4, 1, 5} {
		s.Add(v)
	}
	if s.Len() != 5 {
		t.Errorf("len = %d", s.Len())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
	if s.Mean() != 2.8 {
		t.Errorf("mean = %v", s.Mean())
	}
}

func TestMeanRange(t *testing.T) {
	s := NewSeries("x")
	for i := 0; i < 10; i++ {
		s.Add(float64(i))
	}
	if got := s.MeanRange(0, 5); got != 2 {
		t.Errorf("MeanRange(0,5) = %v", got)
	}
	if got := s.MeanRange(5, 10); got != 7 {
		t.Errorf("MeanRange(5,10) = %v", got)
	}
	// Clamping and degenerate ranges.
	if got := s.MeanRange(-5, 100); got != 4.5 {
		t.Errorf("clamped = %v", got)
	}
	if got := s.MeanRange(7, 3); got != 0 {
		t.Errorf("inverted = %v", got)
	}
}

func TestWriteTSV(t *testing.T) {
	a := NewSeries("a")
	b := NewSeries("b")
	a.Add(1)
	a.Add(2)
	b.Add(10) // shorter series leaves an empty cell
	f := NewFrame("query", a, b)
	var buf bytes.Buffer
	if err := f.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d: %q", len(lines), buf.String())
	}
	if lines[0] != "query\ta\tb" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "0\t1\t10" {
		t.Errorf("row 0 = %q", lines[1])
	}
	if lines[2] != "1\t2\t" {
		t.Errorf("row 1 = %q", lines[2])
	}
}

func TestWriteTableSampling(t *testing.T) {
	s := NewSeries("v")
	for i := 0; i < 100; i++ {
		s.Add(float64(i))
	}
	f := NewFrame("q", s)
	var buf bytes.Buffer
	if err := f.WriteTable(&buf, 25); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Header + rows 0, 25, 50, 75.
	if len(lines) != 5 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.Contains(lines[0], "v") || !strings.Contains(lines[0], "q") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[2], "25") {
		t.Errorf("sampled row = %q", lines[2])
	}
}

func TestASCIIPlot(t *testing.T) {
	s := NewSeries("rising")
	for i := 0; i < 50; i++ {
		s.Add(float64(i))
	}
	f := NewFrame("q", s)
	out := f.ASCIIPlot(40, 8)
	if !strings.Contains(out, "rising") {
		t.Error("legend missing")
	}
	if !strings.Contains(out, "*") {
		t.Error("no data glyphs")
	}
	lines := strings.Split(out, "\n")
	// A rising series puts glyphs in the top line's right side and the
	// bottom data line's left side.
	top := lines[1]
	if !strings.Contains(top, "*") || strings.Index(top, "*") < 20 {
		t.Errorf("top line = %q", top)
	}
	// Empty frame.
	empty := NewFrame("q", NewSeries("none"))
	if got := empty.ASCIIPlot(20, 5); got != "(no data)\n" {
		t.Errorf("empty plot = %q", got)
	}
	// Flat series (hi == lo) must not divide by zero.
	flat := NewSeries("flat")
	flat.Add(2)
	flat.Add(2)
	_ = NewFrame("q", flat).ASCIIPlot(20, 5)
}

func TestFormatNum(t *testing.T) {
	if got := formatNum(5); got != "5" {
		t.Errorf("formatNum(5) = %q", got)
	}
	if got := formatNum(3.14159); got != "3.142" {
		t.Errorf("formatNum(pi) = %q", got)
	}
}

// quantileOf snapshots h and returns its q-quantile, the way Stats
// computes p50/p95/p99.
func quantileOf(h *Histogram, q float64) float64 {
	var counts [numBuckets]uint64
	var n uint64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		n += counts[i]
	}
	return quantile(&counts, n, q, ^h.notMin.Load(), h.max.Load())
}

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	if s := h.Stats(); s.Count != 0 || s.Mean != 0 || s.P50 != 0 {
		t.Error("empty histogram stats should be 0")
	}
	if h.Summary("ms") != "(no observations)" {
		t.Errorf("empty summary = %q", h.Summary("ms"))
	}
	for i := 1; i <= 100; i++ {
		h.Observe(uint64(i))
	}
	s := h.Stats()
	if s.Count != 100 || s.Sum != 5050 {
		t.Errorf("count=%d sum=%v", s.Count, s.Sum)
	}
	if s.Mean != 50.5 {
		t.Errorf("mean = %v", s.Mean)
	}
	if s.P50 != 50 {
		t.Errorf("p50 = %v", s.P50)
	}
	if s.P95 != 95 {
		t.Errorf("p95 = %v", s.P95)
	}
	if got := quantileOf(h, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := quantileOf(h, 1); got != 100 {
		t.Errorf("q1 = %v", got)
	}
	// Observations after a snapshot still count.
	h.Observe(1000)
	if got := quantileOf(h, 1); got != 1000 || h.Stats().Max != 1000 {
		t.Errorf("q1 after new obs = %v", got)
	}
	if !strings.Contains(h.Summary("us"), "p95=") {
		t.Errorf("summary = %q", h.Summary("us"))
	}
}

// TestHistogramConcurrent hammers observations and snapshot reads from
// parallel goroutines; under -race it checks that Observe and Stats
// share no unsynchronized state.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Observe(uint64(g*500 + i))
				_ = h.Summary("us")
				_ = h.Stats()
			}
		}(g)
	}
	wg.Wait()
	s := h.Stats()
	if s.Count != 4000 {
		t.Errorf("count = %d, want 4000", s.Count)
	}
	if s.Max != 3999 {
		t.Errorf("max = %v, want 3999", s.Max)
	}
}

// TestHistogramBucketBounds checks the bucket layout over every value
// below 2^20 and a seeded spread of the uint64 range: each value lies in
// its bucket, and a bucket is at most 1/16 of its lower edge wide. It
// then checks that quantiles of seeded exponential and uniform streams
// are within 1/16 of the exact nearest-rank values.
func TestHistogramBucketBounds(t *testing.T) {
	check := func(v uint64) {
		i := bucketOf(v)
		if i < 0 || i >= numBuckets {
			t.Fatalf("bucketOf(%d) = %d, outside [0, %d)", v, i, numBuckets)
		}
		lo, width := bucketRange(i)
		if v < lo || v-lo >= width {
			t.Fatalf("%d in bucket %d = [%d, %d+%d)", v, i, lo, lo, width)
		}
		if width > 1 && width*subBuckets > lo {
			t.Fatalf("bucket %d = [%d, %d+%d) wider than 1/16 of its edge", i, lo, lo, width)
		}
	}
	for v := uint64(0); v < 1<<20; v++ {
		check(v)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		check(rng.Uint64() >> rng.Intn(64))
	}
	check(math.MaxUint64)
	if bucketOf(math.MaxUint64) != numBuckets-1 {
		t.Errorf("MaxUint64 lands in bucket %d, want the last, %d", bucketOf(math.MaxUint64), numBuckets-1)
	}

	streams := map[string]func() uint64{
		"exponential": func() uint64 { return uint64(rng.ExpFloat64() * 1000) },
		"uniform":     func() uint64 { return uint64(rng.Int63n(1_000_000)) },
	}
	for name, next := range streams {
		h := NewHistogram()
		vals := make([]uint64, 20000)
		for i := range vals {
			vals[i] = next()
			h.Observe(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range []float64{0.01, 0.5, 0.9, 0.95, 0.99, 0.999} {
			exact := float64(vals[int(math.Ceil(q*float64(len(vals))))-1])
			if got := quantileOf(h, q); math.Abs(got-exact) > exact/subBuckets {
				t.Errorf("%s q%v = %v, exact nearest rank %v: beyond 1/16", name, q, got, exact)
			}
		}
	}
}

func TestHistogramStatsSnapshot(t *testing.T) {
	h := NewHistogram()
	if s := h.Stats(); s != (HistogramStats{}) {
		t.Errorf("empty stats = %+v", s)
	}
	for i := 1; i <= 100; i++ {
		h.Observe(uint64(i))
	}
	s := h.Stats()
	if s.Count != 100 || s.Sum != 5050 || s.Mean != 50.5 || s.Max != 100 {
		t.Errorf("stats = %+v", s)
	}
	if s.P50 != 50 || s.P95 != 95 || s.P99 != 99 {
		t.Errorf("quantiles = %+v", s)
	}
}

func TestSharedScanSnapshot(t *testing.T) {
	var c SharedScanCounters
	if s := c.Snapshot(); s != (SharedScanStats{}) {
		t.Errorf("zero counters snapshot = %+v", s)
	}
	c.Misses.Add(8)
	c.Scans.Add(3)
	c.Attached.Add(5)
	s := c.Snapshot()
	if s.Misses != 8 || s.Scans != 3 || s.Attached != 5 || s.Saved != 5 {
		t.Errorf("snapshot = %+v", s)
	}
	// Saved clamps instead of underflowing when Scans transiently leads.
	c.Scans.Add(10)
	if s := c.Snapshot(); s.Saved != 0 {
		t.Errorf("Saved = %d, want 0", s.Saved)
	}
}
