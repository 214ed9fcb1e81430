package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/storage"
	"repro/internal/wal"
)

// This file holds the leaf probes: unit costs of single layers measured
// by calling their public functions directly on a "probe engine" — an
// engine.New database loaded with the same rows and driven by the same
// single-client stream as the ladder — plus standalone core, btree and
// wal instances at the workload's shape. A layer the workload starves
// is not probed and reads 0.

const probeBatch = 64 // calls per sample, so the clock read is amortised

// batched times fn in batches and returns the per-call cost of each.
func batched(samples int, fn func()) []time.Duration {
	out := make([]time.Duration, samples)
	for i := range out {
		t0 := time.Now()
		for j := 0; j < probeBatch; j++ {
			fn()
		}
		out[i] = time.Since(t0) / probeBatch
	}
	return out
}

// p50 reports the median of per-call costs in the given unit.
func p50(ds []time.Duration, unit time.Duration, unitName string) value {
	return timing(durs(ds, unit), 0.5, unitName)
}

func probeLayers(sp spec, job childJob, rows []row, stmts []stmt) (metrics, error) {
	m := metrics{}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(job.Seed + 99))

	eng := engine.New(engine.Config{
		PoolPages: sp.PoolPages,
		Space:     core.Config{IMax: iMax, P: partitionPages, SpaceLimit: sp.SpaceLimit, Seed: engineSeed},
	})
	defer eng.Close()
	schema := storage.MustSchema(
		storage.Column{Name: "a", Kind: storage.KindInt64},
		storage.Column{Name: "b", Kind: storage.KindInt64},
		storage.Column{Name: "payload", Kind: storage.KindString})
	tbl, err := eng.CreateTable("t", schema)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		if err := (engineTable{tbl}).insert(r, r.payload()); err != nil {
			return nil, err
		}
	}
	for col := 0; col < 2; col++ {
		if err := tbl.CreatePartialIndex(col, index.IntRange(1, coveredHi)); err != nil {
			return nil, err
		}
	}

	// Replay the stream at engine depth for the pool and disk counts.
	p0, d0 := tbl.PoolStats(), tbl.DiskStats()
	for _, st := range stmts {
		if _, _, err := runStmt(ctx, engineTable{tbl}, st, st.payloads()); err != nil {
			return nil, fmt.Errorf("engine-depth replay of %q: %w", st.text, err)
		}
	}
	p1, d1 := tbl.PoolStats(), tbl.DiskStats()
	n := float64(len(stmts))
	fetches := float64(p1.Hits - p0.Hits + p1.Misses - p0.Misses)
	m["buffer.hit_frac"] = value{Value: ratio(float64(p1.Hits-p0.Hits), fetches), N: int(fetches)}
	m["buffer.evictions_per_stmt"] = value{Value: float64(p1.Evictions-p0.Evictions) / n, N: len(stmts)}
	m["buffer.disk_reads_per_stmt"] = value{Value: float64(d1.Reads-d0.Reads) / n, N: len(stmts)}

	// index and heap: every workload touches them.
	ix := tbl.Index(0)
	m["index.lookup_ns_p50"] = p50(batched(200, func() {
		ix.Lookup(storage.Int64Value(1 + rng.Int63n(coveredHi)))
	}), time.Nanosecond, "ns")
	m["index.lookup_range_ns_p50"] = p50(batched(200, func() {
		k := 1 + rng.Int63n(coveredHi-9)
		ix.LookupRange(storage.Int64Value(k), storage.Int64Value(k+9))
	}), time.Nanosecond, "ns")
	var scans []time.Duration
	var rids []storage.RID // the rows live after the replay
	for i := 0; i < 5; i++ {
		rids = rids[:0]
		t0 := time.Now()
		if err := tbl.Scan(func(rid storage.RID, _ storage.Tuple) error {
			rids = append(rids, rid)
			return nil
		}); err != nil {
			return nil, err
		}
		scans = append(scans, time.Since(t0)/time.Duration(tbl.NumPages()))
	}
	m["heap.scan_page_us"] = p50(scans, time.Microsecond, "us")
	var getErr error
	m["heap.get_us_p50"] = p50(batched(200, func() {
		if _, err := tbl.Get(rids[rng.Intn(len(rids))]); err != nil {
			getErr = err
		}
	}), time.Microsecond, "us")
	if getErr != nil {
		return nil, fmt.Errorf("heap get: %w", getErr)
	}

	if sp.Primary == classMiss {
		probeCore(m, sp, tbl, rng)
	}
	if sp.Durable {
		if err := probeWAL(m, filepath.Join(job.Dir, fmt.Sprintf("walprobe-%d", os.Getpid()))); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// engineTable is the internal table API the probe engine exposes.
type engineTable struct{ t *engine.Table }

var engineCol = map[string]int{"a": 0, "b": 1}

func (e engineTable) point(ctx context.Context, col string, key int64) ([]exec.Match, exec.QueryStats, error) {
	return e.t.QueryEqualCtx(ctx, engineCol[col], storage.Int64Value(key))
}

func (e engineTable) between(ctx context.Context, col string, lo, hi int64) ([]exec.Match, exec.QueryStats, error) {
	return e.t.QueryRangeCtx(ctx, engineCol[col], storage.Int64Value(lo), storage.Int64Value(hi))
}

func (e engineTable) insert(r row, payload string) error {
	_, err := e.t.Insert(storage.NewTuple(storage.Int64Value(r.a), storage.Int64Value(r.b), storage.StringValue(payload)))
	return err
}

func (e engineTable) setA(old exec.Match, a int64) error {
	_, err := e.t.Update(old.RID, old.Tuple.WithValue(0, storage.Int64Value(a)))
	return err
}

func (e engineTable) remove(old exec.Match) error { return e.t.Delete(old.RID) }

// probeCore measures the Index Buffer's own operations: a probe of the
// probe engine's warmed buffer, then Algorithm 2's selection and
// ApplyPage on a standalone Space whose two buffers start from the
// table's real per-page uncovered counts and are scanned alternately,
// the way the workload's misses alternate columns, until the Space is
// in its steady state.
func probeCore(m metrics, sp spec, tbl *engine.Table, rng *rand.Rand) {
	buf := tbl.Buffer(0)
	if b := tbl.Buffer(1); b.EntryCount() > buf.EntryCount() {
		buf = b // displacement may have emptied one column's buffer
	}
	m["core.buffer_lookup_ns_p50"] = p50(batched(200, func() {
		buf.Lookup(storage.Int64Value(coveredHi + 1 + rng.Int63n(keyDomain-coveredHi)))
	}), time.Nanosecond, "ns")

	pages := tbl.NumPages()
	space := core.NewSpace(core.Config{IMax: iMax, P: partitionPages, SpaceLimit: sp.SpaceLimit, Seed: engineSeed})
	var bufs [2]*core.IndexBuffer
	for c := range bufs {
		unc := make([]int, pages)
		for p := range unc {
			unc[p] = tbl.Buffer(c).Uncovered(storage.PageID(p))
		}
		bufs[c], _ = space.CreateBuffer(fmt.Sprintf("probe.%d", c), unc) // names are distinct, the only error
	}
	var sel, apply []time.Duration
	entries := 0
	for scan := 0; scan < 40; scan++ {
		b := bufs[scan%2]
		space.OnQuery(b, false)
		t0 := time.Now()
		selected := space.SelectPagesForBuffer(b, pages)
		sel = append(sel, time.Since(t0))
		for _, p := range selected {
			es := make([]core.PageEntry, b.Uncovered(p))
			for k := range es {
				es[k] = core.PageEntry{Key: storage.Int64Value(coveredHi + 1 + rng.Int63n(keyDomain-coveredHi)),
					RID: storage.RID{Page: p, Slot: uint16(k)}}
			}
			t0 = time.Now()
			_ = b.ApplyPage(p, es) // a freshly selected page is never already buffered
			apply = append(apply, time.Since(t0))
			entries += len(es)
		}
	}
	m["core.select_pages_us_p50"] = p50(sel, time.Microsecond, "us")
	if len(apply) > 0 {
		var total time.Duration
		for _, d := range apply {
			total += d
		}
		m["core.apply_page_us_per_page"] = value{Value: float64(total) / float64(time.Microsecond) / float64(len(apply)), N: len(apply)}
	}

	// A B+-tree the size of one buffer partition's share of the space.
	size := max(entries/2, 1000)
	tree := btree.NewDefault()
	keys := make([]storage.Value, size)
	for i := range keys {
		keys[i] = storage.Int64Value(coveredHi + 1 + rng.Int63n(keyDomain-coveredHi))
	}
	i := 0
	m["btree.insert_ns_p50"] = p50(batched(size/probeBatch, func() {
		tree.Insert(keys[i], storage.RID{Page: storage.PageID(i / 64), Slot: uint16(i % 64)})
		i++
	}), time.Nanosecond, "ns")
	m["btree.lookup_ns_p50"] = p50(batched(200, func() {
		tree.Lookup(keys[rng.Intn(size)])
	}), time.Nanosecond, "ns")
}

// probeWAL times Append+Commit of one page-image-sized record on a log
// of its own, with the default group commit and a real fsync.
func probeWAL(m metrics, dir string) error {
	defer os.RemoveAll(dir)
	w, err := wal.Create(dir, wal.Options{Policy: wal.SyncBatch})
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	defer w.Close()
	rec := &wal.Record{Kind: wal.KindInsert, Table: "t", Pages: 1,
		Images: []wal.PageImage{{Page: 0, Data: make([]byte, 8192)}}}
	var lat []time.Duration
	for i := 0; i < 300; i++ {
		t0 := time.Now()
		lsn, err := w.Append(rec)
		if err == nil {
			err = w.Commit(lsn)
		}
		if err != nil {
			return fmt.Errorf("wal probe: %w", err)
		}
		lat = append(lat, time.Since(t0))
	}
	m["wal.append_commit_us_p50"] = p50(lat, time.Microsecond, "us")
	return nil
}
