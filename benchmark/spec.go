package main

import (
	"time"

	"repro"
)

// The dataset and engine shape shared by every workload: the paper's key
// domain and 10 % partial-index coverage, with I^MAX and P scaled to the
// ~3000-page table the way the paper scales them to its 27k-page one.
const (
	keyDomain      = 50000 // keys are uniform in [1, keyDomain]
	coveredHi      = 5000  // partial indexes on a and b cover [1, coveredHi]
	payloadLen     = 100
	iMax           = 500
	partitionPages = 1000
	engineSeed     = 7 // the engine's own random streams stay fixed; -seed moves only the inputs
	numConns       = 2 // closed-loop connections, one per core of the reference box
	shiftEvery     = 50
	hotKeys        = 64 // per connection: dml_durable's insert/delete hot set
	shaPrefix      = 2000
)

// spec is one workload's shape. Rows, PoolPages and SpaceLimit are the
// full-size values; scale() shrinks them together for the smoke test.
type spec struct {
	Name       string
	Why        string
	Primary    class // the statement class the primary_* latencies report
	Rows       int
	PoolPages  int
	SpaceLimit int
	Durable    bool
	// WarmOps is the fixed warm-up length per connection; WarmToFull
	// extends it until the Index Buffer Space is 95 % full.
	WarmOps    [numConns]int
	WarmToFull bool
	// LadderOps is the fixed single-client op count of the traced run.
	// The ladder replays connection 0's stream; with LadderMissEvery n
	// every n-th op comes from connection 1's instead.
	LadderOps       int
	LadderMissEvery int
	// LadderSelfHits appends that many covered point SELECTs to the
	// ladder of a miss-only stream. server.self and shell.self are
	// differences between depths, which a scan's run-to-run noise drowns;
	// a hit through the same framing, parse and encode resolves them.
	LadderSelfHits int
	// FrontShareMax, when set, fails a full-size ladder whose
	// ladder.front_share_frac exceeds it: the workload exists to starve
	// server and shell.
	FrontShareMax float64
}

var specs = []spec{
	{
		Name: "hit_point", Primary: classHit,
		Why:  "covered point and short-range SELECTs on a table that fits the pool: only server, shell, the engine fast path and the index work",
		Rows: 200000, PoolPages: 4096,
		WarmOps: [numConns]int{2000, 2000}, LadderOps: 20000,
	},
	{
		Name: "miss_steady", Primary: classMiss,
		Why:  "uncovered point SELECTs on a table 12x the pool with a full Index Buffer Space: exec page loop, heap/buffer reads and core selection dominate",
		Rows: 200000, PoolPages: 256, SpaceLimit: 60000,
		WarmOps: [numConns]int{10, 10}, WarmToFull: true, LadderOps: 100,
		LadderSelfHits: 1000, FrontShareMax: 0.01,
	},
	{
		Name: "mixed_shift", Primary: classMiss,
		Why:  "one connection of covered hits beside one of misses whose column flips every 50: convergence after a shift while lock-free hits share the table",
		Rows: 200000, PoolPages: 256, SpaceLimit: 200000,
		WarmOps: [numConns]int{2000, 2 * shiftEvery}, LadderOps: 8 * 3 * shiftEvery, LadderMissEvery: 8,
	},
	{
		Name: "dml_durable", Primary: classDML, Durable: true,
		Why:  "INSERT/UPDATE/DELETE beside covered SELECTs on a real DataDir with group-commit fsync and periodic checkpoints, then SIGKILL and recovery",
		Rows: 50000, PoolPages: 256, SpaceLimit: 60000,
		WarmOps: [numConns]int{200, 200}, LadderOps: 2000,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scale shrinks a workload to rows rows, keeping the ratios that define
// it (space limit per row, ladder length); 0 keeps the full size.
func (s spec) scale(rows, ladderOps int) spec {
	if rows > 0 && rows < s.Rows {
		s.SpaceLimit = s.SpaceLimit * rows / s.Rows
		s.Rows = rows
		for i := range s.WarmOps {
			s.WarmOps[i] = min(s.WarmOps[i], 100)
		}
	}
	if ladderOps > 0 {
		s.LadderOps = ladderOps
		s.LadderSelfHits = min(s.LadderSelfHits, ladderOps)
	}
	return s
}

// options maps a workload to the public Options a user would write. No
// simulated latency anywhere; ScanParallelism, the epoch read path and
// the sync policy keep their defaults.
func (s spec) options(dataDir string, window time.Duration) repro.Options {
	o := repro.Options{
		IMax:           iMax,
		PartitionPages: partitionPages,
		SpaceLimit:     s.SpaceLimit,
		PoolPages:      s.PoolPages,
		Seed:           engineSeed,
	}
	if s.Durable {
		o.DataDir = dataDir
		// Six periods per window, so at least five checkpoint cycles
		// complete inside it whatever the window length.
		o.WAL.CheckpointEvery = window / 6
	}
	return o
}

// metricDef is one metric's schema entry; BENCHMARK.json carries the
// same names, units and directions (the smoke test compares them).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the gated, client-observed metrics. Every one is defined
// and non-zero on every workload; class-specific numbers (hit/miss/dml
// latency, recovery, WAL amplification) are per-layer client.* metrics.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"stmts_per_s", "1/s", "higher"},
	{"primary_p50_us", "us", "lower"},
	{"primary_p95_us", "us", "lower"},
	{"primary_mean_us", "us", "lower"},
	{"cpu_us_per_stmt", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer lists every per-layer metric; a metric undefined on a
// workload (its layer is starved there) reads 0.
var perLayer = []metricDef{
	// Client-observed, by statement class (tracing off).
	{"client.hit_p50_us", "us", "lower"},
	{"client.hit_p95_us", "us", "lower"},
	{"client.hit_p99_us", "us", "lower"},
	{"client.hit_max_us", "us", "lower"},
	{"client.miss_p50_ms", "ms", "lower"},
	{"client.miss_p95_ms", "ms", "lower"},
	{"client.miss_p99_ms", "ms", "lower"},
	{"client.miss_max_ms", "ms", "lower"},
	{"client.dml_p50_us", "us", "lower"},
	{"client.dml_p95_us", "us", "lower"},
	{"client.dml_p99_us", "us", "lower"},
	{"client.dml_max_us", "us", "lower"},
	{"client.pages_read_per_miss", "pages", "lower"},
	{"client.wal_bytes_per_user_byte", "ratio", "lower"},
	{"client.recovery_s", "s", "lower"},
	{"client.error_frac", "ratio", "lower"},
	{"client.loop_overhead_us_p50", "us", "lower"},
	// Ladder: wire depth minus session depth, session minus table.
	{"server.self_us_p50", "us", "lower"},
	{"server.self_us_p95", "us", "lower"},
	{"server.allocs_per_stmt", "count", "lower"},
	{"server.bytes_out_per_stmt", "bytes", "lower"},
	{"server.echo_rtt_us_p50", "us", "lower"},
	{"shell.self_us_p50", "us", "lower"},
	{"shell.self_us_p95", "us", "lower"},
	{"shell.allocs_per_stmt", "count", "lower"},
	{"shell.batch_insert_us_per_row", "us", "lower"},
	{"engine.hit_us_p50", "us", "lower"},
	{"engine.range_hit_us_p50", "us", "lower"},
	{"engine.fast_hit_frac", "ratio", "higher"},
	{"engine.fallbacks_per_k_hits", "count", "lower"},
	{"engine.shared_saved_frac", "ratio", "higher"},
	{"engine.checkpoints", "count", "higher"},
	{"engine.checkpoint_last_ms", "ms", "lower"},
	{"exec.scan_us_per_page", "us", "lower"},
	{"exec.self_us_per_page", "us", "lower"},
	{"exec.pages_skipped_per_miss", "pages", "higher"},
	{"exec.scan_workers_mean", "count", "higher"},
	{"exec.tuples_examined_per_match", "count", "lower"},
	{"index.lookup_ns_p50", "ns", "lower"},
	{"index.lookup_range_ns_p50", "ns", "lower"},
	{"core.buffer_lookup_ns_p50", "ns", "lower"},
	{"core.select_pages_us_p50", "us", "lower"},
	{"core.apply_page_us_per_page", "us", "lower"},
	{"core.entries_added_per_miss", "count", "lower"},
	{"core.displaced_entries_per_miss", "count", "lower"},
	{"core.space_used_frac", "ratio", "higher"},
	{"core.skippable_frac", "ratio", "higher"},
	{"core.recover_misses_p50", "count", "lower"},
	{"core.recover_misses_max", "count", "lower"},
	{"heap.scan_page_us", "us", "lower"},
	{"heap.get_us_p50", "us", "lower"},
	{"buffer.hit_frac", "ratio", "higher"},
	{"buffer.evictions_per_stmt", "count", "lower"},
	{"buffer.disk_reads_per_stmt", "count", "lower"},
	{"wal.append_commit_us_p50", "us", "lower"},
	{"wal.fsync_us_p50", "us", "lower"},
	{"wal.group_batch_mean", "count", "higher"},
	{"wal.syncs_per_dml_row", "count", "lower"},
	{"wal.bytes_per_dml_row", "bytes", "lower"},
	{"wal.segments_created", "count", "lower"},
	{"wal.segments_removed", "count", "higher"},
	{"btree.lookup_ns_p50", "ns", "lower"},
	{"btree.insert_ns_p50", "ns", "lower"},
	{"flight.overhead_frac", "ratio", "lower"},
	{"runtime.allocs_per_stmt", "count", "lower"},
	{"runtime.gc_pause_ms_total", "ms", "lower"},
	{"runtime.heap_mb", "MB", "lower"},
	{"ladder.unattributed_frac", "ratio", "lower"},
	{"ladder.front_share_frac", "ratio", "lower"},
}
