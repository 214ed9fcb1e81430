package repro

import (
	"testing"

	"repro/internal/engine"
)

// openTuned is Open — or OpenExisting when reopen is set — with tune
// applied to the engine configuration before the engine is built. It is
// the one route for the engine knobs public Options does not carry: a
// simulated device read latency (engine.Config.ReadLatency), a simulated
// fsync delay (engine.WALConfig.SyncDelay), the locked-read reference
// arm of the epoch oracle (engine.Config.DisableEpochReadPath), a pinned
// scan worker count (engine.Config.ScanParallelism), the log segment
// size (engine.WALConfig.SegmentBytes) and the Space's stochastic arms
// (core.Config.Selection, DisplacementJitter).
func openTuned(tb testing.TB, o Options, reopen bool, tune func(*engine.Config)) *DB {
	tb.Helper()
	if err := o.validate(); err != nil {
		tb.Fatal(err)
	}
	cfg := engineConfig(o)
	tune(&cfg)
	var eng *engine.Engine
	if reopen {
		var err error
		if eng, err = engine.Load(cfg); err != nil {
			tb.Fatal(err)
		}
	} else {
		eng = engine.New(cfg)
	}
	db, err := newDB(eng, o)
	if err != nil {
		tb.Fatal(err)
	}
	return db
}
