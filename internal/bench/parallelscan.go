package bench

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
)

// ParallelScanOptions configures RunParallelScan. ScanParallelism (in
// the embedded Options) selects one scan worker (1) versus a pool (>1 or
// 0 for GOMAXPROCS); Goroutines adds client-side contention.
type ParallelScanOptions struct {
	Options

	// Goroutines is the number of concurrent query streams. 1 (or 0)
	// runs the workload uncontended; higher counts exercise the scan
	// stage under scan-sharing admission, where concurrent misses
	// coalesce into shared parallel passes.
	Goroutines int
}

// ParallelScanResult reports one RunParallelScan pass.
type ParallelScanResult struct {
	Wall          time.Duration // wall-clock time of the whole query stream
	Queries       int           // queries actually issued
	ParallelScans uint64        // scan stages that fanned out to >1 worker
	Workers       uint64        // total workers across those stages
}

// RunParallelScan drives the Fig. 6 miss workload — equality queries on
// uncovered values of a single buffered column — against an engine with
// the configured scan parallelism, and reports the stream's wall-clock
// time. A tight SpaceLimit keeps the Index Buffer from ever covering the
// table, so queries keep missing and the indexing-scan stage (the code
// the parallel path accelerates) keeps running; ReadLatency makes those
// scans device-bound, as in the paper's table >> memory setup. Query
// results and buffer state are identical across parallelism settings, so
// comparing runs that differ only in ScanParallelism isolates the
// scan-execution speedup.
func RunParallelScan(o ParallelScanOptions) (*ParallelScanResult, error) {
	o.Options = o.Options.withDefaults()
	if err := o.Options.validate(); err != nil {
		return nil, err
	}
	if o.Goroutines < 1 {
		o.Goroutines = 1
	}
	spaceCfg := core.Config{
		IMax: o.scale(paperIMax),
		P:    o.scale(paperP),
		// Roughly one page's worth of entries: enough to keep the
		// adaptive machinery live, far too little to absorb the table.
		SpaceLimit: 32,
	}
	eng, tb, err := setup(o.Options, spaceCfg, 1, false)
	if err != nil {
		return nil, err
	}

	per := o.Queries / o.Goroutines
	if per < 1 {
		per = 1
	}
	r := &ParallelScanResult{Queries: per * o.Goroutines}

	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	draw := uncoveredDraw()
	start := time.Now()
	for g := 0; g < o.Goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Per-stream RNG derived from the seed: the workload is
			// deterministic for a given (Seed, Goroutines) pair.
			rng := rand.New(rand.NewSource(o.Seed + 1000 + int64(g)))
			for i := 0; i < per; i++ {
				if _, _, err := tb.QueryEqual(0, intVal(draw(rng))); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}(g)
	}
	wg.Wait()
	r.Wall = time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}
	ps := eng.ParallelScanStats()
	r.ParallelScans = ps.Scans
	r.Workers = ps.Workers
	return r, nil
}
