// Package bench regenerates every figure of the paper's evaluation (§V)
// plus the two motivating figures (Fig. 1, on the engine's adaptation
// controller, and Fig. 3's order-correlation simulation). Each RunFigN
// function builds the paper's data setup at a configurable scale, drives
// the paper's workload, and returns per-query series shaped like the
// published curves. The CLI (cmd/aibench) and the repository's benchmark
// suite (bench_test.go) are thin wrappers over these runners.
//
// Scaling: the paper uses 500,000 rows (~27k pages of ~18 tuples) with
// I^MAX = 5,000–10,000 pages, P = 10,000 pages and L = 800,000 entries.
// Runners scale these knobs linearly with the configured row count, so a
// 50,000-row run keeps the same page-to-budget ratios and therefore the
// same curve shapes.
package bench

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/storage"
	"repro/internal/workload"
)

// engineObserver, when set, receives every engine an experiment creates.
// cmd/aibench uses it to point its -listen /metrics endpoint at the
// engine of the currently running experiment.
var engineObserver atomic.Pointer[func(*engine.Engine)]

// SetEngineObserver registers fn to be called with each experiment
// engine as it is created (nil unregisters). Safe for concurrent use.
func SetEngineObserver(fn func(*engine.Engine)) {
	if fn == nil {
		engineObserver.Store(nil)
		return
	}
	engineObserver.Store(&fn)
}

// observeEngine notifies the registered observer, if any.
func observeEngine(eng *engine.Engine) {
	if fn := engineObserver.Load(); fn != nil {
		(*fn)(eng)
	}
}

// Options configures the common experiment setup.
type Options struct {
	// Rows is the table size; the paper uses 500,000. Zero means 50,000
	// (a laptop-friendly 1/10 scale).
	Rows int

	// Queries is the workload length; the paper uses 200 per experiment.
	// Zero means 200.
	Queries int

	// Seed drives data generation, query draws, and victim selection.
	Seed int64

	// PoolPages is the buffer-pool size per table. Zero means the engine
	// default (small relative to the table, as in the paper).
	PoolPages int

	// ReadLatency, when positive, charges each simulated device read with
	// a sleep so the wall-clock series (Fig. 6's WallMicros) take the
	// shape of the paper's per-query milliseconds.
	ReadLatency time.Duration

	// ScanParallelism bounds the page-reading workers of every table
	// scan: 1 reads on the querying goroutine, 0 uses GOMAXPROCS. Every
	// setting runs the same scan pass, so results are identical across
	// settings; only wall-clock time changes.
	ScanParallelism int
}

// paper-scale constants; see §V.
const (
	paperRows     = 500000
	paperDomain   = 50000
	paperCoverage = 0.1 // partial index covers values 1..5,000
	paperIMax     = 5000
	paperP        = 10000
	paperL        = 800000
	paperIMax4    = 10000 // experiment 4 uses I^MAX = 10,000
)

func (o Options) withDefaults() Options {
	if o.Rows <= 0 {
		o.Rows = paperRows / 10
	}
	if o.Queries <= 0 {
		o.Queries = 200
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// scale converts a paper-scale knob to this run's row count, keeping at
// least 1.
func (o Options) scale(paperValue int) int {
	v := paperValue * o.Rows / paperRows
	if v < 1 {
		v = 1
	}
	return v
}

// coveredHi returns the top covered value: the paper's partial indexes
// cover [1, Domain/10].
func coveredHi() int64 { return int64(float64(paperDomain) * paperCoverage) }

// setup builds an engine with the paper's table and partial indexes on
// the first columns key columns.
func setup(o Options, spaceCfg core.Config, columns int, disableBuffer bool) (*engine.Engine, *engine.Table, error) {
	ds := workload.PaperDataset(o.Rows)
	ds.Seed = o.Seed
	schema, err := ds.Schema()
	if err != nil {
		return nil, nil, err
	}
	eng := engine.New(engine.Config{
		PoolPages:          o.PoolPages,
		ScanParallelism:    o.ScanParallelism,
		Space:              spaceCfg,
		DisableIndexBuffer: disableBuffer,
		ReadLatency:        o.ReadLatency,
	})
	observeEngine(eng)
	tb, err := eng.CreateTable("t", schema)
	if err != nil {
		return nil, nil, err
	}
	if err := ds.Generate(func(tu storage.Tuple) error {
		_, err := tb.Insert(tu)
		return err
	}); err != nil {
		return nil, nil, err
	}
	for c := 0; c < columns; c++ {
		if err := tb.CreatePartialIndex(c, index.IntRange(1, coveredHi())); err != nil {
			return nil, nil, err
		}
	}
	return eng, tb, nil
}

// uncoveredDraw draws query keys from the uncovered value range — the
// paper's experiments 1–3 "queried the unindexed values randomly".
func uncoveredDraw() workload.Draw {
	return workload.Uniform(coveredHi()+1, paperDomain)
}

// coveredDraw draws from the covered range.
func coveredDraw() workload.Draw {
	return workload.Uniform(1, coveredHi())
}

// queryRng returns the RNG for the query stream, independent of the data
// seed so workloads are identical across engine configurations.
func (o Options) queryRng() *rand.Rand {
	return rand.New(rand.NewSource(o.Seed + 1000))
}

// checkQueries guards against pathological option combinations.
func (o Options) validate() error {
	if o.Rows < 1000 {
		return fmt.Errorf("bench: %d rows is below the minimum of 1000 (pages would be too few to show skip behaviour)", o.Rows)
	}
	return nil
}
