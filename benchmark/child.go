package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/internal/server"
)

// This file is the measured process. The parent re-executes the binary
// once per workload (fresh RSS and GC state each time) with a childJob
// in the environment; the child sets the workload up, warms it, runs
// the measured window against an in-process server over loopback TCP,
// and reports one JSON line on stdout.

const childEnv = "AIB_BENCH_CHILD"

// childJob is what the parent asks of one child process.
type childJob struct {
	Mode      string        `json:"mode"` // "setup", "window" or "ladder"
	Workload  string        `json:"workload"`
	Seed      int64         `json:"seed"`
	Window    time.Duration `json:"window"`
	Rows      int           `json:"rows"`       // 0 = full size
	LadderOps int           `json:"ladder_ops"` // 0 = the workload's own
	Dir       string        `json:"dir"`        // scratch directory (DataDir, spans)
	Layers    bool          `json:"layers"`     // also measure the window-side per-layer extras
}

// childReport is the child's one-line answer.
type childReport struct {
	StreamSHA string  `json:"stream_sha"`
	SetupS    float64 `json:"setup_s"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
	// Acked is, per connection, the index of the last acknowledged
	// statement when the report was written (dml_durable).
	Acked [numConns]int `json:"acked"`
	// LadderOK reports the cross-depth count assertion (ladder mode).
	LadderOK bool `json:"ladder_ok"`
}

// childMain runs the job named by the environment and exits.
func childMain(started time.Time) {
	var job childJob
	if err := json.Unmarshal([]byte(os.Getenv(childEnv)), &job); err != nil {
		fatalf("child: bad job: %v", err)
	}
	sp, ok := specByName(job.Workload)
	if !ok {
		fatalf("child: unknown workload %q", job.Workload)
	}
	sp = sp.scale(job.Rows, job.LadderOps)
	var err error
	switch job.Mode {
	case "setup", "window":
		err = runWindow(sp, job, started)
	case "ladder":
		err = runLadder(sp, job)
	default:
		err = fmt.Errorf("unknown mode %q", job.Mode)
	}
	if err != nil {
		fatalf("child %s/%s: %v", job.Workload, job.Mode, err)
	}
	os.Exit(0)
}

// stdoutMu serialises the child's protocol lines across its goroutines.
var stdoutMu sync.Mutex

func emit(line string) {
	stdoutMu.Lock()
	os.Stdout.WriteString(line + "\n")
	stdoutMu.Unlock()
}

func emitReport(rep childReport) error {
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	emit(string(line))
	return nil
}

// throughput sums the connections' statements per second.
func throughput(ts [numConns]*tally) float64 {
	var rate float64
	for _, t := range ts {
		rate += float64(t.attempted) / t.elapsed.Seconds()
	}
	return rate
}

func failures(ts [numConns]*tally) int {
	n := 0
	for _, t := range ts {
		n += t.failed
	}
	return n
}

// buildDB opens a database in the workload's shape and loads rows into
// table t(a INT, b INT, payload VARCHAR) with partial indexes on a and b
// covering [1, coveredHi]. A durable workload loads under SyncNever,
// then closes and reopens with the default group commit, the way an
// operator bulk-loads before taking traffic.
func buildDB(sp spec, rows []row, dir string, window time.Duration) (*repro.DB, *repro.Table, error) {
	o := sp.options(dir, window)
	load := o
	if sp.Durable {
		load.WAL.Sync = repro.SyncNever
		load.WAL.CheckpointEvery = 0
	}
	db, err := repro.Open(load)
	if err != nil {
		return nil, nil, fmt.Errorf("open: %w", err)
	}
	t, err := db.CreateTable("t", repro.Int64Column("a"), repro.Int64Column("b"), repro.StringColumn("payload"))
	if err != nil {
		return nil, nil, fmt.Errorf("create table: %w", err)
	}
	for _, r := range rows {
		if _, err := t.Insert(r.a, r.b, r.payload()); err != nil {
			return nil, nil, fmt.Errorf("load row %d: %w", r.id, err)
		}
	}
	for _, col := range []string{"a", "b"} {
		if err := t.CreatePartialRangeIndex(col, int64(1), int64(coveredHi)); err != nil {
			return nil, nil, fmt.Errorf("index %s: %w", col, err)
		}
	}
	if !sp.Durable {
		return db, t, nil
	}
	if err := db.Close(); err != nil {
		return nil, nil, fmt.Errorf("close after load: %w", err)
	}
	if db, err = repro.OpenExisting(o); err != nil {
		return nil, nil, fmt.Errorf("reopen: %w", err)
	}
	return db, db.Table("t"), nil
}

// snapshot is every counter the program exports, read before and after
// the window; the per-layer count metrics are differences of two.
type snapshot struct {
	wal     repro.WALStats
	ckpt    repro.CheckpointStats
	epoch   repro.EpochStats
	shared  repro.SharedScanStats
	par     repro.ParallelScanStats
	dropped float64 // aib_space_entries_dropped_total
	mem     runtime.MemStats
	cpu     time.Duration
}

func takeSnapshot(db *repro.DB) snapshot {
	s := snapshot{wal: db.WALStats(), ckpt: db.CheckpointStats(), epoch: db.EpochStats(),
		shared: db.SharedScanStats(), par: db.ParallelScanStats(), cpu: cpuTime()}
	var buf bytes.Buffer
	if err := db.WriteMetrics(&buf); err == nil {
		s.dropped = promValue(buf.String(), "aib_space_entries_dropped_total")
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// promValue reads one unlabelled sample from Prometheus text.
func promValue(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v
		}
	}
	return 0
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// runBoth drives both connections concurrently and returns their
// tallies; see runLoop for ops/until.
func runBoth(cs [numConns]*client, ss [numConns]*stream, ops [numConns]int, until time.Time, pages int, onAck func(conn, n int)) ([numConns]*tally, error) {
	var out [numConns]*tally
	var errs [numConns]error
	var wg sync.WaitGroup
	for i := range cs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var ack func(int)
			if onAck != nil {
				ack = func(n int) { onAck(i, n) }
			}
			out[i], errs[i] = runLoop(cs[i], ss[i], ops[i], until, pages, ack)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

func runWindow(sp spec, job childJob, started time.Time) error {
	rows := dataset(job.Seed, sp.Rows)
	db, tbl, err := buildDB(sp, rows, job.Dir, job.Window)
	if err != nil {
		return err
	}
	srv := server.New(db, server.Config{})
	addr, err := srv.Start()
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	var cs [numConns]*client
	for i := range cs {
		if cs[i], err = dial(addr.String()); err != nil {
			return err
		}
	}
	ss := newStreams(sp, job.Seed, rows)
	pages := tbl.NumPages()

	// Warm-up: a fixed op count, and for a bounded Index Buffer Space
	// on a miss-only stream until the space is 95 % full, so the window
	// sees the steady state and not the fill.
	warm, err := runBoth(cs, ss, sp.WarmOps, time.Time{}, pages, nil)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	warmFailed := failures(warm)
	for sp.WarmToFull && db.SpaceUsed()*100 < sp.SpaceLimit*95 && ss[0].n < 1000 {
		more, err := runBoth(cs, ss, [numConns]int{1, 1}, time.Time{}, pages, nil)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		warmFailed += failures(more)
	}
	rep := childReport{SetupS: time.Since(started).Seconds()}
	if job.Mode == "setup" {
		rep.Metrics = metrics{"setup_s": {Value: rep.SetupS, Unit: "s"}}
		return finishChild(rep, srv, db, cs)
	}

	runtime.GC()
	before := takeSnapshot(db)
	ts, err := runBoth(cs, ss, [numConns]int{}, time.Now().Add(job.Window), pages, nil)
	if err != nil {
		return fmt.Errorf("window: %w", err)
	}
	after := takeSnapshot(db)
	rss := peakRSSMB()

	rep.StreamSHA = streamSHA(sp, job.Seed, rows)
	rep.Metrics = windowMetrics(sp, db, ts, before, after, pages, len(rows))
	rep.Metrics["setup_s"] = value{Value: rep.SetupS, Unit: "s"}
	rep.Metrics["peak_rss_mb"] = value{Value: rss, Unit: "MB"}
	rep.Attempted = ts[0].attempted + ts[1].attempted
	rep.Failed = failures(ts) + warmFailed
	if job.Layers {
		if err := windowExtras(rep.Metrics, sp, db, cs, ss, ts, pages); err != nil {
			return err
		}
	}
	for i, s := range ss {
		rep.Acked[i] = s.n
	}
	if !sp.Durable {
		return finishChild(rep, srv, db, cs)
	}

	// dml_durable: report, then keep issuing DML and announcing every
	// acknowledgement until the parent kills this process mid-stream.
	if err := emitReport(rep); err != nil {
		return err
	}
	_, err = runBoth(cs, ss, [numConns]int{}, time.Now().Add(time.Minute), pages, func(conn, n int) {
		emit(fmt.Sprintf("ack %d %d", conn, n))
	})
	return fmt.Errorf("still alive a minute after reporting (parent gone?): %v", err)
}

// finishChild writes the report and tears the in-memory child down.
func finishChild(rep childReport, srv *server.Server, db *repro.DB, cs [numConns]*client) error {
	for _, c := range cs {
		c.close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := db.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	return emitReport(rep)
}

// windowMetrics turns the window's tallies and counter deltas into the
// end-to-end metrics and the count-based per-layer ones.
func windowMetrics(sp spec, db *repro.DB, ts [numConns]*tally, before, after snapshot, pages, rows int) metrics {
	m := metrics{}
	all := &tally{}
	for _, t := range ts {
		all.merge(t)
	}
	stmts := float64(all.attempted)
	m["stmts_per_s"] = value{Value: throughput(ts), Unit: "1/s", N: all.attempted}
	prim := durs(all.lat[sp.Primary], time.Microsecond)
	m["primary_p50_us"] = timing(prim, 0.5, "us")
	m["primary_p95_us"] = timing(prim, 0.95, "us")
	// The mean moves with every statement's cost, so on a bimodal class
	// (mixed_shift's converged and scanning misses) it shows a shift in
	// the mix that leaves both percentiles inside their modes.
	mean := timing(prim, 0.5, "us")
	mean.Value = 0
	for _, x := range prim {
		mean.Value += x / float64(len(prim))
	}
	m["primary_mean_us"] = mean
	m["cpu_us_per_stmt"] = value{Value: ratio(float64((after.cpu - before.cpu).Microseconds()), stmts), Unit: "us", N: all.attempted}

	for c, u := range [numClasses]struct {
		name string
		d    time.Duration
	}{classHit: {"us", time.Microsecond}, classMiss: {"ms", time.Millisecond}, classDML: {"us", time.Microsecond}} {
		s := durs(all.lat[c], u.d)
		if len(s) == 0 {
			continue
		}
		for _, q := range []struct {
			tag string
			q   float64
		}{{"p50", 0.5}, {"p95", 0.95}, {"p99", 0.99}, {"max", 1}} {
			m[fmt.Sprintf("client.%s_%s_%s", class(c), q.tag, u.name)] = timing(s, q.q, u.name)
		}
	}
	m["client.loop_overhead_us_p50"] = timing(durs(all.overhead, time.Microsecond), 0.5, "us")
	m["client.error_frac"] = value{Value: ratio(float64(all.failed), stmts), N: all.attempted}

	misses := float64(len(all.lat[classMiss]))
	hits := float64(len(all.lat[classHit]))
	if misses > 0 {
		n := len(all.lat[classMiss])
		m["client.pages_read_per_miss"] = value{Value: float64(all.missPagesRead) / misses, N: n}
		m["exec.pages_skipped_per_miss"] = value{Value: float64(all.missPagesSkipped) / misses, N: n}
		m["core.entries_added_per_miss"] = value{Value: float64(all.missEntries) / misses, N: n}
		m["core.displaced_entries_per_miss"] = value{Value: (after.dropped - before.dropped) / misses, N: n}
		m["core.skippable_frac"] = value{Value: ratio(float64(all.missPagesSkipped), float64(all.missPagesSkipped+all.missPagesRead)), N: n}
		// QueryStats counts pages, not tuples: a page read examines the
		// table's mean tuples per page.
		m["exec.tuples_examined_per_match"] = value{Value: ratio(float64(all.missPagesRead)*float64(rows)/float64(pages), float64(all.missRows)), N: n}
		sh := after.shared.Misses - before.shared.Misses
		m["engine.shared_saved_frac"] = value{Value: ratio(float64(after.shared.Saved-before.shared.Saved), float64(sh)), N: int(sh)}
		scans := after.par.Scans - before.par.Scans
		m["exec.scan_workers_mean"] = value{Value: ratio(float64(after.par.Workers-before.par.Workers), float64(scans)), N: int(scans)}
		if sp.SpaceLimit > 0 {
			m["core.space_used_frac"] = value{Value: float64(db.SpaceUsed()) / float64(sp.SpaceLimit)}
		}
		if rec := all.recoverAfterFlip; len(rec) > 0 {
			s := make([]float64, len(rec))
			for i, r := range rec {
				s[i] = float64(r)
			}
			s = sortedCopy(s)
			m["core.recover_misses_p50"] = value{Value: quantile(s, 0.5), N: len(s)}
			m["core.recover_misses_max"] = value{Value: s[len(s)-1], N: len(s)}
		}
	}
	if hits > 0 {
		fast := float64(after.epoch.FastHits - before.epoch.FastHits)
		fb := float64(after.epoch.Fallbacks - before.epoch.Fallbacks)
		m["engine.fast_hit_frac"] = value{Value: ratio(fast, fast+fb), N: int(fast + fb)}
		m["engine.fallbacks_per_k_hits"] = value{Value: ratio(1000*fb, hits), N: int(hits)}
	}
	if sp.Durable {
		w0, w1 := before.wal, after.wal
		dmlRows := float64(all.dmlRows)
		m["client.wal_bytes_per_user_byte"] = value{Value: ratio(float64(w1.Bytes-w0.Bytes), float64(all.userBytes)), N: all.userBytes}
		m["wal.syncs_per_dml_row"] = value{Value: ratio(float64(w1.Syncs-w0.Syncs), dmlRows), N: all.dmlRows}
		m["wal.bytes_per_dml_row"] = value{Value: ratio(float64(w1.Bytes-w0.Bytes), dmlRows), N: all.dmlRows}
		m["wal.segments_created"] = value{Value: float64(w1.Segments - w0.Segments)}
		m["wal.segments_removed"] = value{Value: float64(w1.Removed - w0.Removed)}
		m["engine.checkpoints"] = value{Value: float64(after.ckpt.Completed - before.ckpt.Completed)}
		m["engine.checkpoint_last_ms"] = value{Value: float64(after.ckpt.LastDuration) / float64(time.Millisecond)}
		if tel, ok := db.WALTelemetry(); ok {
			// The histograms cover the database's life since reopen,
			// warm-up included; the window dominates them.
			m["wal.fsync_us_p50"] = value{Value: tel.FsyncLatency.P50 * 1e6, N: tel.FsyncLatency.Count, P50: tel.FsyncLatency.P50 * 1e6, P95: tel.FsyncLatency.P95 * 1e6}
			m["wal.group_batch_mean"] = value{Value: tel.CommitBatch.Mean, N: tel.CommitBatch.Count}
		}
	}
	m["runtime.allocs_per_stmt"] = value{Value: ratio(float64(after.mem.Mallocs-before.mem.Mallocs), stmts), N: all.attempted}
	m["runtime.gc_pause_ms_total"] = value{Value: float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6, N: int(after.mem.NumGC - before.mem.NumGC)}
	m["runtime.heap_mb"] = value{Value: float64(after.mem.HeapInuse) / (1 << 20)}
	return m
}

// windowExtras measures the per-layer numbers that need the live
// server: the protocol's floor (a comment line's round trip) and the
// flight recorder's cost (a short second window with it on).
func windowExtras(m metrics, sp spec, db *repro.DB, cs [numConns]*client, ss [numConns]*stream, ts [numConns]*tally, pages int) error {
	var rtt []time.Duration
	for i := 0; i < 2000; i++ {
		_, sent, recv, err := cs[0].roundTrip("-- echo")
		if err != nil {
			return fmt.Errorf("echo: %w", err)
		}
		rtt = append(rtt, recv.Sub(sent))
	}
	m["server.echo_rtt_us_p50"] = timing(durs(rtt, time.Microsecond), 0.5, "us")

	db.EnableFlightRecorder(0)
	traced, err := runBoth(cs, ss, [numConns]int{}, time.Now().Add(max(ts[0].elapsed/5, 100*time.Millisecond)), pages, nil)
	db.DisableFlightRecorder()
	if err != nil {
		return fmt.Errorf("traced window: %w", err)
	}
	m["flight.overhead_frac"] = value{Value: 1 - ratio(throughput(traced), throughput(ts)), N: traced[0].attempted + traced[1].attempted}
	return nil
}
