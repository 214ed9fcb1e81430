package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram accumulates non-negative integer observations in the
// caller's unit (µs for query latency, ns for fsyncs, records for
// commit batches) and reports p50/p95/p99. It is a fixed log-linear
// bucket histogram of atomic counters: each value below 16 has its own
// bucket and each power of two above is split into 16 sub-buckets, so
// a bucket is at most 1/16 of its lower edge wide. Observe takes no
// lock, allocates nothing and retains no values (~8 KB for the whole
// uint64 range). Count, Sum, Mean and Max are exact; quantiles are
// within 1/16 of the exact nearest-rank value (see quantile).
//
// It is safe for concurrent use and its zero value is ready. Stats
// reads each counter atomically but not the set: under concurrent
// Observe, Sum may hold a value no bucket shows yet.
type Histogram struct {
	// sum, max and notMin sit together, and Observe writes sum first,
	// so the two reads that follow usually find their line in cache.
	sum     atomic.Uint64
	max     atomic.Uint64
	notMin  atomic.Uint64 // ^min, so the zero value reads as "no minimum yet"
	buckets [numBuckets]atomic.Uint64
}

const (
	subBits    = 4 // 1<<subBits sub-buckets per power of two
	subBuckets = 1 << subBits
	numBuckets = (64 - subBits + 1) * subBuckets
)

// bucketOf returns the bucket holding v: v itself below subBuckets,
// else the block of v's power of two plus the subBits bits below its
// leading one.
func bucketOf(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	shift := bits.Len64(v) - subBits - 1
	return (shift+1)*subBuckets + int(v>>shift)&(subBuckets-1)
}

// bucketRange returns bucket i's lower edge and width.
func bucketRange(i int) (lo, width uint64) {
	if i < subBuckets {
		return uint64(i), 1
	}
	shift := i/subBuckets - 1
	return uint64(subBuckets+i%subBuckets) << shift, 1 << shift
}

// NewHistogram creates an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one value. The min and max are published before the
// bucket, so a reader that sees the bucket also sees bounds covering it.
func (h *Histogram) Observe(v uint64) {
	h.sum.Add(v)
	storeMax(&h.max, v)
	storeMax(&h.notMin, ^v)
	h.buckets[bucketOf(v)].Add(1)
}

// storeMax raises a to v if v is larger.
func storeMax(a *atomic.Uint64, v uint64) {
	for cur := a.Load(); v > cur && !a.CompareAndSwap(cur, v); cur = a.Load() {
	}
}

// HistogramStats is a point-in-time snapshot of a histogram's summary
// statistics, in the unit of its observations.
type HistogramStats struct {
	Count          int
	Sum, Mean, Max float64
	P50, P95, P99  float64
}

// Stats snapshots count (the bucket total), sum, mean, max and the
// p50/p95/p99 quantiles.
func (h *Histogram) Stats() HistogramStats {
	var counts [numBuckets]uint64
	var n uint64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		n += counts[i]
	}
	if n == 0 {
		return HistogramStats{}
	}
	sum, lo, hi := h.sum.Load(), ^h.notMin.Load(), h.max.Load()
	return HistogramStats{
		Count: int(n), Sum: float64(sum), Mean: float64(sum) / float64(n), Max: float64(hi),
		P50: quantile(&counts, n, 0.5, lo, hi),
		P95: quantile(&counts, n, 0.95, lo, hi),
		P99: quantile(&counts, n, 0.99, lo, hi),
	}
}

// Scaled returns s with every value statistic multiplied by f — a unit
// change, such as ns observations reported in seconds. Count is kept.
func (s HistogramStats) Scaled(f float64) HistogramStats {
	return HistogramStats{Count: s.Count, Sum: s.Sum * f, Mean: s.Mean * f, Max: s.Max * f,
		P50: s.P50 * f, P95: s.P95 * f, P99: s.P99 * f}
}

// quantile returns the nearest-rank q-quantile (0 <= q <= 1) of n > 0
// bucketed observations whose exact min and max are lo and hi. The
// first and last ranks are lo and hi; any other rank is placed inside
// its bucket as if the bucket's observations were spread evenly across
// its width — which reproduces a dense integer stream exactly — and
// clamped to [lo, hi]. It never leaves the bucket holding the
// nearest-rank observation, so it is within 1/16 of it.
func quantile(counts *[numBuckets]uint64, n uint64, q float64, lo, hi uint64) float64 {
	rank := uint64(math.Ceil(q * float64(n)))
	switch {
	case rank <= 1:
		return float64(lo)
	case rank >= n:
		return float64(hi)
	}
	i := 0
	for ; rank > counts[i]; i++ {
		rank -= counts[i]
	}
	edge, width := bucketRange(i)
	v := float64(edge) + math.Floor(float64(rank-1)*float64(width)/float64(counts[i]))
	return min(max(v, float64(lo)), float64(hi))
}

// Summary renders count/mean/p50/p95/p99/max in one line with the given
// unit suffix.
func (h *Histogram) Summary(unit string) string {
	s := h.Stats()
	if s.Count == 0 {
		return "(no observations)"
	}
	return fmt.Sprintf("n=%d mean=%.1f%s p50=%.1f%s p95=%.1f%s p99=%.1f%s max=%.1f%s",
		s.Count, s.Mean, unit, s.P50, unit, s.P95, unit, s.P99, unit, s.Max, unit)
}
