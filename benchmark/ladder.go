package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"repro"
	"repro/internal/server"
)

// This file is the traced run. It replays a workload's seeded stream
// with one client and a fixed op count at three entry depths — wire
// (TCP into server.Server, flight recorder on), session
// (repro.Session.Exec) and table (repro.Table calls with pre-built
// values) — each against its own identically built database, the three
// advancing in step, and records one span per op per depth from outside
// the program. Nesting is logical (wire ⊃ session ⊃ table): a layer's
// self time is its span minus the next depth's span for the same op id.
// The adaptive state must not depend on the entry point, so the row,
// page and entry counts of every op are asserted identical across
// depths.

var depths = [...]string{"wire", "session", "table"}

// span is one op at one depth, as written to spans.jsonl.
type span struct {
	Workload string `json:"workload"`
	Name     string `json:"name"`   // depth
	Parent   string `json:"parent"` // the enclosing depth, "" for wire
	Op       int    `json:"op"`     // shared by the op's spans at every depth
	Kind     string `json:"kind"`   // statement class
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Trace    string `json:"trace,omitempty"` // the program's flight-record id (wire)
}

// opTrace is one op's measurements at one depth.
type opTrace struct {
	start, end time.Time
	out        outcome
	selected   int    // pages Algorithm 2 selected (table depth)
	mallocs    uint64 // heap objects the process allocated meanwhile
	ok         bool
	trace      string
}

func (o opTrace) dur() time.Duration { return o.end.Sub(o.start) }

// depthRun is one depth's replay.
type depthRun struct {
	ops      []opTrace
	bytesOut int64
}

// ladderStmts is the single-client version of a workload's stream:
// LadderOps of connection 0's statements, with one of connection 1's
// (mixed_shift's misses) leading every LadderMissEvery ops where the
// spec says so, then LadderSelfHits covered point SELECTs that only the
// self times read.
func ladderStmts(sp spec, seed int64, rows []row) []stmt {
	ss := newStreams(sp, seed, rows)
	stmts := make([]stmt, 0, sp.LadderOps+sp.LadderSelfHits)
	for i := 0; i < sp.LadderOps; i++ {
		if sp.LadderMissEvery > 0 && i%sp.LadderMissEvery == 0 {
			stmts = append(stmts, ss[1].next())
		} else {
			stmts = append(stmts, ss[0].next())
		}
	}
	for i := 0; i < sp.LadderSelfHits; i++ {
		stmts = append(stmts, ss[0].point("a", ss[0].covered(), classHit))
	}
	return stmts
}

// openDepth builds a fresh database and returns the function that runs
// one statement at the given depth against it, with its teardown.
func openDepth(sp spec, job childJob, rows []row, depth string) (exec func(stmt) opTrace, wire *client, closeFn func(), err error) {
	dir := filepath.Join(job.Dir, fmt.Sprintf("ladder-%s-%d", depth, os.Getpid()))
	if sp.Durable {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, nil, err
		}
	}
	db, tbl, err := buildDB(sp, rows, dir, job.Window)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, nil, err
	}
	closeFn = func() {
		db.Close()
		os.RemoveAll(dir)
	}
	ctx := context.Background()
	switch depth {
	case "wire":
		db.EnableFlightRecorder(0)
		srv := server.New(db, server.Config{})
		addr, err := srv.Start()
		if err == nil {
			wire, err = dial(addr.String())
		}
		if err != nil {
			closeFn()
			return nil, nil, nil, err
		}
		closeDB := closeFn
		closeFn = func() {
			wire.close()
			sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			defer cancel()
			_ = srv.Shutdown(sctx) // the only connection is closed; nothing is in flight
			closeDB()
		}
		exec = func(st stmt) opTrace {
			raw, sent, recv, err := wire.roundTrip(st.text)
			o := opTrace{start: sent, end: recv}
			var r reply
			if err == nil && json.Unmarshal(raw, &r) == nil {
				o.out, o.ok = checkReply(st, r.OK, r.Rows, r.Output)
				o.trace = r.Trace
			}
			return o
		}
	case "session":
		sess, err := db.Session("")
		if err != nil {
			closeFn()
			return nil, nil, nil, err
		}
		exec = func(st stmt) opTrace {
			o := opTrace{start: time.Now()}
			res, err := sess.Exec(ctx, st.text)
			o.end = time.Now()
			o.out, o.ok = checkReply(st, err == nil, res.Rows, res.Output)
			return o
		}
	case "table":
		exec = func(st stmt) opTrace { return tableOp(ctx, facadeTable{tbl}, st) }
	}
	return exec, wire, closeFn, nil
}

var allocSample = []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// heapAllocs reads the process's cumulative allocation count (cheaply:
// no stop-the-world, unlike ReadMemStats).
func heapAllocs() uint64 {
	rtmetrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// replayAll runs every statement at every depth. The three databases
// are open at once and each op visits the depths back to back, in an
// order that rotates per op, so the per-op differences that become
// self times compare like with like and no depth always runs first.
func replayAll(sp spec, job childJob, rows []row, stmts []stmt) (runs [len(depths)]depthRun, err error) {
	var execs [len(depths)]func(stmt) opTrace
	var wire *client
	for d, depth := range depths {
		exec, w, closeFn, err := openDepth(sp, job, rows, depth)
		if err != nil {
			return runs, fmt.Errorf("%s depth: %w", depth, err)
		}
		defer closeFn()
		execs[d], runs[d].ops = exec, make([]opTrace, len(stmts))
		if w != nil {
			wire = w
		}
	}
	runtime.GC()
	for i, st := range stmts {
		for k := range depths {
			d := (i + k) % len(depths)
			a0 := heapAllocs()
			runs[d].ops[i] = execs[d](st)
			runs[d].ops[i].mallocs = heapAllocs() - a0
		}
	}
	runs[0].bytesOut = wire.bytesIn
	return runs, nil
}

// tableAPI is the table calls a statement needs, over the row type R
// the table's queries return. The ladder's table depth runs on
// repro.Table and the probe replay on engine.Table; runStmt is the one
// place that knows what each statement kind does with them.
type tableAPI[R any] interface {
	point(ctx context.Context, col string, key int64) ([]R, repro.QueryStats, error)
	between(ctx context.Context, col string, lo, hi int64) ([]R, repro.QueryStats, error)
	insert(r row, payload string) error
	setA(old R, a int64) error
	remove(old R) error
}

// runStmt executes one statement through a table API, doing what the
// shell does for it: a SELECT is one query call, UPDATE and DELETE are a
// query plus one call per matching row, INSERT one call per row.
func runStmt[R any](ctx context.Context, t tableAPI[R], st stmt, payloads []string) (rows int, qs repro.QueryStats, err error) {
	switch st.kind {
	case opPoint, opRange:
		var got []R
		if st.kind == opPoint {
			got, qs, err = t.point(ctx, st.col, st.key)
		} else {
			got, qs, err = t.between(ctx, st.col, st.key, st.hi)
		}
		rows = len(got)
	case opInsert:
		for i, r := range st.rows {
			if err = t.insert(r, payloads[i]); err != nil {
				break
			}
			rows++
		}
	case opUpdate, opDelete:
		var got []R
		got, _, err = t.point(ctx, "a", st.key)
		for _, old := range got {
			if err != nil {
				break
			}
			if st.kind == opDelete {
				err = t.remove(old)
			} else {
				err = t.setA(old, st.hi)
			}
			rows++
		}
	}
	return rows, qs, err
}

// payloads builds an INSERT's strings, so callers can do it before their
// clock starts.
func (st stmt) payloads() []string {
	out := make([]string, len(st.rows))
	for i, r := range st.rows {
		out[i] = r.payload()
	}
	return out
}

// facadeTable is the public table API, as a library user calls it.
type facadeTable struct{ t *repro.Table }

func (f facadeTable) point(ctx context.Context, col string, key int64) ([]repro.Row, repro.QueryStats, error) {
	return f.t.QueryCtx(ctx, col, key)
}

func (f facadeTable) between(ctx context.Context, col string, lo, hi int64) ([]repro.Row, repro.QueryStats, error) {
	return f.t.QueryRangeCtx(ctx, col, lo, hi)
}

func (f facadeTable) insert(r row, payload string) error {
	_, err := f.t.Insert(r.a, r.b, payload)
	return err
}

func (f facadeTable) setA(old repro.Row, a int64) error {
	b, _ := old.Int64("b") // the schema is this benchmark's own
	p, _ := old.String("payload")
	_, err := f.t.Update(old.RID, a, b, p)
	return err
}

func (f facadeTable) remove(old repro.Row) error { return f.t.Delete(old.RID) }

// tableOp is the ladder's table depth: one statement through the public
// table API, timed, with the response's counts read from QueryStats.
func tableOp(ctx context.Context, t facadeTable, st stmt) opTrace {
	payloads := st.payloads()
	o := opTrace{start: time.Now()}
	rows, qs, err := runStmt(ctx, t, st, payloads)
	o.end = time.Now()
	o.out = outcome{rows: rows}
	if st.class != classDML {
		o.out = outcome{rows: rows, pagesRead: qs.PagesRead, pagesSkipped: qs.PagesSkipped,
			entriesAdded: qs.EntriesAdded, hit: qs.PartialHit}
		o.selected = qs.PagesSelected
	}
	o.ok = err == nil && rows == st.wantRows && (st.class == classDML || o.out.hit == (st.class == classHit))
	return o
}

// sameCounts is the cross-depth assertion for one op.
func sameCounts(st stmt, a, b outcome) bool {
	if st.class == classDML {
		return a.rows == b.rows
	}
	return a == b
}

func runLadder(sp spec, job childJob) error {
	rows := dataset(job.Seed, sp.Rows)
	stmts := ladderStmts(sp, job.Seed, rows)
	runs, err := replayAll(sp, job, rows, stmts)
	if err != nil {
		return err
	}

	rep := childReport{StreamSHA: streamSHA(sp, job.Seed, rows), LadderOK: true, Attempted: len(stmts) * len(depths)}
	for i, st := range stmts {
		for d := range depths {
			if !runs[d].ops[i].ok {
				rep.Failed++
			}
			if d > 0 && !sameCounts(st, runs[0].ops[i].out, runs[d].ops[i].out) {
				rep.LadderOK = false
				fmt.Fprintf(os.Stderr, "ladder: op %d (%s) differs: wire %+v, %s %+v\n",
					i, st.text, runs[0].ops[i].out, depths[d], runs[d].ops[i].out)
			}
		}
	}
	if err := writeSpans(filepath.Join(job.Dir, "spans.jsonl"), sp.Name, stmts, runs); err != nil {
		return err
	}
	m, err := probeLayers(sp, job, rows, stmts[:sp.LadderOps])
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	ladderMetrics(m, sp, stmts, runs)
	if share := m["ladder.front_share_frac"].Value; sp.FrontShareMax > 0 && job.Rows == 0 && share > sp.FrontShareMax {
		rep.LadderOK = false
		fmt.Fprintf(os.Stderr, "ladder: server and shell self time is %.2f %% of a %s statement, over the %.0f %% the workload allows\n",
			100*share, sp.Primary, 100*sp.FrontShareMax)
	}
	rep.Metrics = m
	return emitReport(rep)
}

// writeSpans appends the run's spans, kept in memory until now.
func writeSpans(path, workload string, stmts []stmt, runs [len(depths)]depthRun) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for d, depth := range depths {
		parent := ""
		if d > 0 {
			parent = depths[d-1]
		}
		t0 := runs[d].ops[0].start
		for i, o := range runs[d].ops {
			if err := enc.Encode(span{Workload: workload, Name: depth, Parent: parent, Op: i,
				Kind: stmts[i].class.String(), StartNS: int64(o.start.Sub(t0)), EndNS: int64(o.end.Sub(t0)), Trace: o.trace}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ladderMetrics derives the per-layer timings from the three replays
// and the leaf unit costs already in m.
func ladderMetrics(m metrics, sp spec, stmts []stmt, runs [len(depths)]depthRun) {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	// Self times and allocations come from the primary class, except that
	// a miss-primary workload reads them off its hits: the depths run on
	// separate databases, and the difference of two ~40 ms scans is ±1 ms
	// (and of their ~340 k allocations, thousands) of noise where the
	// layers' own cost is ~20 µs and ~130 allocations.
	selfClass := sp.Primary
	if selfClass == classMiss {
		selfClass = classHit
	}
	var serverSelf, shellSelf, primaryWire, pointHit, rangeHit, batchRow []float64
	var missTime, missPages, tableTotal, attributed, serverAllocs, shellAllocs float64
	for i, st := range stmts {
		w, s, t := runs[0].ops[i], runs[1].ops[i], runs[2].ops[i]
		if st.class == selfClass {
			serverSelf = append(serverSelf, us(w.dur()-s.dur()))
			shellSelf = append(shellSelf, us(s.dur()-t.dur()))
			serverAllocs += float64(w.mallocs) - float64(s.mallocs)
			shellAllocs += float64(s.mallocs) - float64(t.mallocs)
		}
		if i >= sp.LadderOps {
			continue // LadderSelfHits: not the workload's own statements
		}
		if st.class == sp.Primary {
			primaryWire = append(primaryWire, us(w.dur()))
		}
		tableTotal += us(t.dur())
		switch {
		case st.kind == opPoint && st.class == classHit:
			pointHit = append(pointHit, us(t.dur()))
			attributed += m["index.lookup_ns_p50"].Value/1e3 + float64(t.out.rows)*m["heap.get_us_p50"].Value
		case st.kind == opRange:
			rangeHit = append(rangeHit, us(t.dur()))
			attributed += m["index.lookup_range_ns_p50"].Value/1e3 + float64(t.out.rows)*m["heap.get_us_p50"].Value
		case st.class == classMiss:
			if t.out.pagesRead > 0 {
				missTime += us(t.dur())
				missPages += float64(t.out.pagesRead)
			}
			attributed += float64(t.out.pagesRead)*m["heap.scan_page_us"].Value +
				m["core.select_pages_us_p50"].Value + float64(t.selected)*m["core.apply_page_us_per_page"].Value +
				m["core.buffer_lookup_ns_p50"].Value/1e3
		case st.class == classDML:
			attributed += float64(st.wantRows) * m["wal.append_commit_us_p50"].Value
			if st.kind != opInsert {
				attributed += m["index.lookup_ns_p50"].Value/1e3 + float64(st.wantRows)*m["heap.get_us_p50"].Value
			}
			if st.kind == opInsert && len(st.rows) > 1 {
				batchRow = append(batchRow, us(s.dur())/float64(len(st.rows)))
			}
		}
	}
	m["server.self_us_p50"] = timing(sortedCopy(serverSelf), 0.5, "us")
	m["server.self_us_p95"] = timing(sortedCopy(serverSelf), 0.95, "us")
	m["shell.self_us_p50"] = timing(sortedCopy(shellSelf), 0.5, "us")
	m["shell.self_us_p95"] = timing(sortedCopy(shellSelf), 0.95, "us")
	// The wire replay's allocations include this process's own client.
	m["server.allocs_per_stmt"] = value{Value: ratio(serverAllocs, float64(len(serverSelf))), N: len(serverSelf)}
	m["shell.allocs_per_stmt"] = value{Value: ratio(shellAllocs, float64(len(serverSelf))), N: len(serverSelf)}
	m["server.bytes_out_per_stmt"] = value{Value: float64(runs[0].bytesOut) / float64(len(stmts)), N: len(stmts)}
	if len(pointHit) > 0 {
		m["engine.hit_us_p50"] = timing(sortedCopy(pointHit), 0.5, "us")
	}
	if len(rangeHit) > 0 {
		m["engine.range_hit_us_p50"] = timing(sortedCopy(rangeHit), 0.5, "us")
	}
	if len(batchRow) > 0 {
		m["shell.batch_insert_us_per_row"] = timing(sortedCopy(batchRow), 0.5, "us")
	}
	if missPages > 0 {
		perPage := missTime / missPages
		m["exec.scan_us_per_page"] = value{Value: perPage, N: int(missPages)}
		m["exec.self_us_per_page"] = value{Value: perPage - m["heap.scan_page_us"].Value, N: int(missPages)}
	}
	m["ladder.unattributed_frac"] = value{Value: 1 - ratio(attributed, tableTotal), N: min(len(stmts), sp.LadderOps)}
	front := m["server.self_us_p50"].Value + m["shell.self_us_p50"].Value
	m["ladder.front_share_frac"] = value{Value: ratio(front, quantile(sortedCopy(primaryWire), 0.5)), N: len(primaryWire)}
}
