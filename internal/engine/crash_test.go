package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/index"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The crash harness: a seeded operation stream runs against a
// WAL-backed engine that is abandoned ("crashed") at some boundary,
// reopened via Load, and diffed — RIDs, tuples, counts, and query
// results — against a never-crashed in-memory oracle that executed the
// same acknowledged prefix. Besides one-row DML the stream carries
// multi-row statements (a k-row insert, a delete-by-key), each run as
// one Table.Exec with one commit.

const (
	opInsert = iota
	opUpdate
	opDelete
	opQueryEqual
	opQueryRange
	opCheckpoint
	opInsertMany // one statement inserting n rows
	opDeleteKey  // one statement deleting every row with key k
	opKinds
)

type crashOp struct {
	kind  int
	table int
	k, k2 int64 // value draws
	pick  int64 // live-RID selector for update/delete
	pad   int   // payload size
	n     int   // rows of an opInsertMany
}

// statement reports whether the op is a multi-row statement, whose rows
// a crash inside it may leave in either state.
func (op crashOp) statement() bool { return op.kind == opInsertMany || op.kind == opDeleteKey }

// crashScript derives a deterministic op stream: a seeded bulk-load
// prefix, then a DML/query/checkpoint mix with values from the
// workload package's draws.
func crashScript(seed int64, loads, mixed int) []crashOp {
	rng := rand.New(rand.NewSource(seed))
	draw := workload.Uniform(1, 200)
	var ops []crashOp
	for i := 0; i < loads; i++ {
		ops = append(ops, crashOp{
			kind: opInsert, table: i % 2,
			k: draw(rng), k2: draw(rng), pad: 1 + rng.Intn(900),
		})
	}
	for i := 0; i < mixed; i++ {
		op := crashOp{
			table: rng.Intn(2),
			k:     draw(rng), k2: draw(rng),
			pick: rng.Int63(), pad: 1 + rng.Intn(900),
		}
		switch r := rng.Intn(12); {
		case r < 3:
			op.kind = opInsert
		case r < 5:
			op.kind = opUpdate
		case r < 6:
			op.kind = opDelete
		case r < 8:
			op.kind = opQueryEqual
		case r < 9:
			op.kind = opQueryRange
		case r < 10:
			op.kind = opCheckpoint
		case r < 11:
			op.kind = opInsertMany
			op.n = 2 + rng.Intn(5)
		default:
			op.kind = opDeleteKey
		}
		ops = append(ops, op)
	}
	return ops
}

// crashRig is one engine under the harness plus the live-RID book the
// driver uses to pick update/delete targets deterministically.
type crashRig struct {
	eng    *Engine
	tables []*Table
	rids   [][]storage.RID
}

func newCrashRig(t *testing.T, eng *Engine) *crashRig {
	t.Helper()
	schema := storage.MustSchema(
		storage.Column{Name: "k", Kind: storage.KindInt64},
		storage.Column{Name: "v", Kind: storage.KindInt64},
		storage.Column{Name: "payload", Kind: storage.KindString},
	)
	rig := &crashRig{eng: eng}
	for _, name := range []string{"orders", "events"} {
		tb, err := eng.CreateTable(name, schema)
		if err != nil {
			t.Fatal(err)
		}
		// A narrow coverage so most queries miss and exercise indexing
		// scans.
		if err := tb.CreatePartialIndex(0, index.IntRange(1, 20)); err != nil {
			t.Fatal(err)
		}
		rig.tables = append(rig.tables, tb)
		rig.rids = append(rig.rids, nil)
	}
	return rig
}

// apply executes one op. It returns the op's error; the rid book is
// only advanced on success, so an oracle replaying the acknowledged
// prefix evolves the identical book.
func (r *crashRig) apply(op crashOp) error {
	tb := r.tables[op.table]
	rids := &r.rids[op.table]
	switch op.kind {
	case opInsert:
		tu := storage.NewTuple(
			storage.Int64Value(op.k), storage.Int64Value(op.k2),
			storage.StringValue(strings.Repeat("p", op.pad)),
		)
		rid, err := tb.Insert(tu)
		if err != nil {
			return err
		}
		*rids = append(*rids, rid)
	case opUpdate:
		if len(*rids) == 0 {
			return nil
		}
		i := int(op.pick % int64(len(*rids)))
		tu := storage.NewTuple(
			storage.Int64Value(op.k), storage.Int64Value(op.k2),
			storage.StringValue(strings.Repeat("q", op.pad)),
		)
		newRID, err := tb.Update((*rids)[i], tu)
		if err != nil {
			return err
		}
		(*rids)[i] = newRID
	case opDelete:
		if len(*rids) == 0 {
			return nil
		}
		i := int(op.pick % int64(len(*rids)))
		if err := tb.Delete((*rids)[i]); err != nil {
			return err
		}
		*rids = append((*rids)[:i], (*rids)[i+1:]...)
	case opInsertMany:
		var added []storage.RID
		err := tb.Exec(context.Background(), func(s *Stmt) error {
			for j := 0; j < op.n; j++ {
				tu := storage.NewTuple(
					storage.Int64Value(op.k+int64(j)), storage.Int64Value(op.k2),
					storage.StringValue(strings.Repeat("m", op.pad)),
				)
				rid, err := s.Insert(tu)
				if err != nil {
					return err
				}
				added = append(added, rid)
			}
			return nil
		})
		if err != nil {
			return err
		}
		*rids = append(*rids, added...)
	case opDeleteKey:
		matches, _, err := tb.QueryEqual(0, storage.Int64Value(op.k))
		if err != nil {
			return err
		}
		gone := make(map[storage.RID]bool, len(matches))
		err = tb.Exec(context.Background(), func(s *Stmt) error {
			for _, m := range matches {
				if err := s.Delete(m.RID); err != nil {
					return err
				}
				gone[m.RID] = true
			}
			return nil
		})
		if err != nil {
			return err
		}
		kept := (*rids)[:0]
		for _, rid := range *rids {
			if !gone[rid] {
				kept = append(kept, rid)
			}
		}
		*rids = kept
	case opQueryEqual:
		_, _, err := tb.QueryEqual(0, storage.Int64Value(op.k))
		return err
	case opQueryRange:
		lo, hi := op.k, op.k+10
		_, _, err := tb.QueryRange(0, storage.Int64Value(lo), storage.Int64Value(hi))
		return err
	case opCheckpoint:
		if r.eng.wal != nil {
			return r.eng.Checkpoint()
		}
	}
	return nil
}

// contents returns the table's full (RID, tuple) listing, sorted — the
// bit-identical comparison unit.
func contents(t *testing.T, tb *Table) []string {
	t.Helper()
	var out []string
	err := tb.Scan(func(rid storage.RID, tu storage.Tuple) error {
		out = append(out, fmt.Sprintf("%d:%d|%s", rid.Page, rid.Slot, tu.String()))
		return nil
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	sort.Strings(out)
	return out
}

func diffRigs(t *testing.T, label string, got, want *crashRig) {
	t.Helper()
	for i := range want.tables {
		name := want.tables[i].Name()
		g := contents(t, got.eng.Table(name))
		w := contents(t, want.tables[i])
		if len(g) != len(w) {
			t.Fatalf("%s: table %s has %d tuples, oracle has %d", label, name, len(g), len(w))
		}
		for j := range g {
			if g[j] != w[j] {
				t.Fatalf("%s: table %s row %d:\n  got  %s\n  want %s", label, name, j, g[j], w[j])
			}
		}
		// Query results must agree too (probe both the covered range and
		// the miss range).
		for _, key := range []int64{5, 50, 150} {
			gm, _, err := got.eng.Table(name).QueryEqual(0, storage.Int64Value(key))
			if err != nil {
				t.Fatalf("%s: recovered query: %v", label, err)
			}
			wm, _, err := want.tables[i].QueryEqual(0, storage.Int64Value(key))
			if err != nil {
				t.Fatalf("%s: oracle query: %v", label, err)
			}
			if len(gm) != len(wm) {
				t.Fatalf("%s: table %s key %d: %d matches, oracle %d", label, name, key, len(gm), len(wm))
			}
		}
	}
}

// diffInFlight is diffRigs for a crash inside a multi-row statement:
// before is the oracle without the statement, after the oracle with all
// of it. Each of the statement's rows may be in either state, so every
// row both oracles hold must survive, and every recovered row must be
// one of either oracle's. Queries must agree with the recovered rows.
func diffInFlight(t *testing.T, label string, got, before, after *crashRig) {
	t.Helper()
	for i := range before.tables {
		name := before.tables[i].Name()
		inBefore, inAfter := map[string]bool{}, map[string]bool{}
		for _, r := range contents(t, before.tables[i]) {
			inBefore[r] = true
		}
		for _, r := range contents(t, after.tables[i]) {
			inAfter[r] = true
		}
		g := got.eng.Table(name)
		have := map[string]bool{}
		for _, r := range contents(t, g) {
			if !inBefore[r] && !inAfter[r] {
				t.Fatalf("%s: table %s recovered row %s is in neither oracle", label, name, r)
			}
			have[r] = true
		}
		for r := range inBefore {
			if inAfter[r] && !have[r] {
				t.Fatalf("%s: table %s lost row %s, which the statement never touched", label, name, r)
			}
		}
		for _, key := range []int64{5, 50, 150} {
			want := 0
			err := g.Scan(func(_ storage.RID, tu storage.Tuple) error {
				if tu.Value(0).Equal(storage.Int64Value(key)) {
					want++
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s: scan: %v", label, err)
			}
			gm, _, err := g.QueryEqual(0, storage.Int64Value(key))
			if err != nil {
				t.Fatalf("%s: recovered query: %v", label, err)
			}
			if len(gm) != want {
				t.Fatalf("%s: table %s key %d: %d matches, %d rows hold the key", label, name, key, len(gm), want)
			}
		}
	}
}

// oracleRig replays the first n ops on a fresh in-memory engine.
func oracleRig(t *testing.T, ops []crashOp, n int) *crashRig {
	t.Helper()
	rig := newCrashRig(t, New(Config{PoolPages: 64}))
	for _, op := range ops[:n] {
		if err := rig.apply(op); err != nil {
			t.Fatalf("oracle op failed: %v", err)
		}
	}
	return rig
}

func crashConfig(dir string) Config {
	return Config{
		DataDir:   dir,
		PoolPages: 4, // tiny pool: evictions write pages between checkpoints
		WAL: WALConfig{
			SyncPolicy:   wal.SyncBatch,
			SegmentBytes: 4 << 10, // force segment rotation mid-run
		},
	}
}

// TestCrashRecoveryAtEveryOpBoundary abandons the engine — no Close, no
// flush; the surviving files hold exactly what was physically written —
// after every prefix of the op stream, reopens via Load, and requires
// bit-identical contents against the oracle. Under the default sync
// policies every acknowledged op must survive.
func TestCrashRecoveryAtEveryOpBoundary(t *testing.T) {
	ops := crashScript(7, 24, 28)
	for k := 0; k <= len(ops); k += 1 + k%3 {
		k := k
		t.Run(fmt.Sprintf("boundary=%d", k), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			rig := newCrashRig(t, New(crashConfig(dir)))
			for i := 0; i < k; i++ {
				if err := rig.apply(ops[i]); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			// Crash: walk away mid-flight. Nothing is flushed or closed.
			recovered, err := Load(crashConfig(dir))
			if err != nil {
				t.Fatalf("Load after crash at %d: %v", k, err)
			}
			defer recovered.Close()
			got := &crashRig{eng: recovered}
			diffRigs(t, fmt.Sprintf("crash at %d", k), got, oracleRig(t, ops, k))
		})
	}
}

// TestCrashDuringFlush injects store-level write faults so the "crash"
// lands inside a page writeback or checkpoint flush, at a sweep of
// countdown positions. Acknowledged ops must still recover exactly; the
// rows of a multi-row statement the fault interrupts may be in either
// state. The mixed stream's faults land in checkpoint flushes; the
// statement stream arms them after loading a heap several times the
// pool, so they land in evictions inside statements, between one row's
// append and the statement's commit.
func TestCrashDuringFlush(t *testing.T) {
	sweep := func(prefix string, ops []crashOp, armAt int) {
		for _, writesLeft := range []int{0, 1, 2, 4, 7, 12} {
			writesLeft := writesLeft
			t.Run(fmt.Sprintf("%swritesLeft=%d", prefix, writesLeft), func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				cfg := crashConfig(dir)
				var faults []*buffer.FaultStore
				cfg.wrapStore = func(_ string, s pageStore) pageStore {
					fs := buffer.NewFaultStore(s)
					faults = append(faults, fs)
					return fs
				}
				rig := newCrashRig(t, New(cfg))
				acked := 0
				for i, op := range ops {
					if i == armAt {
						for _, fs := range faults {
							fs.SetWritesLeft(writesLeft)
						}
					}
					if err := rig.apply(op); err != nil {
						if !errors.Is(err, buffer.ErrInjected) {
							t.Fatalf("op %d: unexpected error: %v", acked, err)
						}
						break
					}
					acked++
				}
				if acked == len(ops) {
					t.Fatalf("fault never fired (writesLeft=%d)", writesLeft)
				}
				recovered, err := Load(crashConfig(dir))
				if err != nil {
					t.Fatalf("Load after mid-flush crash: %v", err)
				}
				defer recovered.Close()
				got := &crashRig{eng: recovered}
				label := fmt.Sprintf("mid-flush, %d acked", acked)
				if ops[acked].statement() {
					diffInFlight(t, label, got, oracleRig(t, ops, acked), oracleRig(t, ops, acked+1))
					return
				}
				diffRigs(t, label, got, oracleRig(t, ops, acked))
			})
		}
	}
	sweep("", crashScript(11, 24, 140), 0)
	const loads = 80
	sweep("stmt-", statementScript(43, loads, 40), loads)
}

// statementScript is a load of wide rows over a small key domain, then
// only multi-row statements: k-row inserts alternating with deletes of
// every row holding a key.
func statementScript(seed int64, loads, stmts int) []crashOp {
	rng := rand.New(rand.NewSource(seed))
	draw := workload.Uniform(1, 30)
	var ops []crashOp
	for i := 0; i < loads; i++ {
		ops = append(ops, crashOp{
			kind: opInsert, table: i % 2,
			k: draw(rng), k2: draw(rng), pad: 500 + rng.Intn(400),
		})
	}
	for i := 0; i < stmts; i++ {
		op := crashOp{kind: opDeleteKey, table: rng.Intn(2), k: draw(rng), k2: draw(rng)}
		if i%2 == 0 {
			op.kind, op.n, op.pad = opInsertMany, 2+rng.Intn(5), 500+rng.Intn(400)
		}
		ops = append(ops, op)
	}
	return ops
}

// TestTornWALTailRecovery scribbles garbage onto the end of the last
// log segment — a record torn mid-write — and requires recovery to
// repair it and keep every acknowledged op.
func TestTornWALTailRecovery(t *testing.T) {
	dir := t.TempDir()
	ops := crashScript(13, 20, 12)
	rig := newCrashRig(t, New(crashConfig(dir)))
	for i, op := range ops {
		if err := rig.apply(op); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	// Abandon, then tear the log tail.
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn-mid-write-garbage")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recovered, err := Load(crashConfig(dir))
	if err != nil {
		t.Fatalf("Load with torn wal tail: %v", err)
	}
	defer recovered.Close()
	if recovered.RecoveryStats().TornWALBytes == 0 {
		t.Error("TornWALBytes = 0, want > 0")
	}
	got := &crashRig{eng: recovered}
	diffRigs(t, "torn wal tail", got, oracleRig(t, ops, len(ops)))
}

// TestTornPageTailRecovery appends a partial page to a table's page
// file — a heap append torn mid-write — and requires Load to trim it.
func TestTornPageTailRecovery(t *testing.T) {
	dir := t.TempDir()
	ops := crashScript(17, 16, 0)
	rig := newCrashRig(t, New(crashConfig(dir)))
	for i, op := range ops {
		if err := rig.apply(op); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := rig.eng.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "orders.pages"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, buffer.PageSize/3)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recovered, err := Load(crashConfig(dir))
	if err != nil {
		t.Fatalf("Load with torn page tail: %v", err)
	}
	defer recovered.Close()
	if got := recovered.RecoveryStats().TornPageBytes; got != int64(buffer.PageSize/3) {
		t.Errorf("TornPageBytes = %d, want %d", got, buffer.PageSize/3)
	}
	got := &crashRig{eng: recovered}
	diffRigs(t, "torn page tail", got, oracleRig(t, ops, len(ops)))
}

// TestSurplusPagesTruncated appends whole pages of garbage past the
// checkpointed extent; Load must drop them instead of silently keeping
// unreachable garbage for redo to build on (the old behavior).
func TestSurplusPagesTruncated(t *testing.T) {
	dir := t.TempDir()
	ops := crashScript(19, 16, 0)
	rig := newCrashRig(t, New(crashConfig(dir)))
	for i, op := range ops {
		if err := rig.apply(op); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := rig.eng.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "events.pages"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 2*buffer.PageSize)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recovered, err := Load(crashConfig(dir))
	if err != nil {
		t.Fatalf("Load with surplus pages: %v", err)
	}
	defer recovered.Close()
	if got := recovered.RecoveryStats().TruncatedPages; got != 2 {
		t.Errorf("TruncatedPages = %d, want 2", got)
	}
	got := &crashRig{eng: recovered}
	diffRigs(t, "surplus pages", got, oracleRig(t, ops, len(ops)))
}

// openFDs counts this process's open file descriptors (linux-style
// /proc; skipped elsewhere).
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// TestLoadFailureClosesFiles fails Load midway — the last table's page
// file is shorter than the catalog demands — and asserts no file
// descriptors leak from the tables attached before the failure.
func TestLoadFailureClosesFiles(t *testing.T) {
	dir := t.TempDir()
	ops := crashScript(23, 20, 0)
	rig := newCrashRig(t, New(crashConfig(dir)))
	for i, op := range ops {
		if err := rig.apply(op); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := rig.eng.Close(); err != nil {
		t.Fatal(err)
	}
	// "orders" sorts before "events" is false ("events" < "orders"), so
	// truncate orders — the second table Load attaches — to force the
	// failure after events is already open.
	if err := os.Truncate(filepath.Join(dir, "orders.pages"), 0); err != nil {
		t.Fatal(err)
	}

	before := openFDs(t)
	if _, err := Load(crashConfig(dir)); err == nil {
		t.Fatal("Load of truncated page file should fail")
	}
	if after := openFDs(t); after != before {
		t.Errorf("fd leak across failed Load: %d -> %d", before, after)
	}
}

// TestCrashLoopRestartKeepsAcknowledgedOps crashes, recovers, crashes
// again immediately (no ops in between), recovers again, and then runs
// acknowledged DML. The second Load reopens the WAL at a tail segment
// whose first LSN equals the resume point; a duplicate segment entry
// there let the post-recovery checkpoint unlink the live segment, so
// the DML's fsynced commits vanished on the next crash.
func TestCrashLoopRestartKeepsAcknowledgedOps(t *testing.T) {
	dir := t.TempDir()
	// Large segments: every post-restart append must stay in the first
	// (wrongly unlinked) segment — a rotation would start a fresh disk
	// file and full-page-image redo would mask the loss.
	cfg := func() Config {
		c := crashConfig(dir)
		c.WAL.SegmentBytes = 1 << 20
		return c
	}
	ops := crashScript(31, 20, 12)
	rig := newCrashRig(t, New(cfg()))
	for i, op := range ops {
		if err := rig.apply(op); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}

	// Crash 1: abandon. Restart 1: recover, then crash again with no
	// appends — leaves an empty tail segment at the resume LSN.
	if _, err := Load(cfg()); err != nil {
		t.Fatalf("Load 1: %v", err)
	}

	// Restart 2: recover at the same LSN and run more acknowledged DML.
	e2, err := Load(cfg())
	if err != nil {
		t.Fatalf("Load 2: %v", err)
	}
	rig2 := &crashRig{
		eng:    e2,
		tables: []*Table{e2.Table("orders"), e2.Table("events")},
		rids:   make([][]storage.RID, 2),
	}
	extra := crashScript(37, 10, 0)
	for i, op := range extra {
		if err := rig2.apply(op); err != nil {
			t.Fatalf("extra op %d: %v", i, err)
		}
	}

	// Crash 3: abandon again. Every acknowledged op — original stream
	// and the post-restart extras — must survive.
	recovered, err := Load(cfg())
	if err != nil {
		t.Fatalf("Load 3: %v", err)
	}
	defer recovered.Close()
	all := append(append([]crashOp(nil), ops...), extra...)
	got := &crashRig{eng: recovered}
	diffRigs(t, "crash loop", got, oracleRig(t, all, len(all)))
}

// TestVacuumCrashBeforeCatalogRepublish crashes in vacuum's window
// between the page-file swap and the catalog republication. The old
// behavior left catalog NumPages > file pages and Load refused forever;
// the vacuum-commit marker must let Load accept the swapped file.
func TestVacuumCrashBeforeCatalogRepublish(t *testing.T) {
	dir := t.TempDir()
	rig := newCrashRig(t, New(crashConfig(dir)))
	tb := rig.tables[0]
	var rids []storage.RID
	want := map[string]int{}
	for i := 0; i < 60; i++ {
		tu := storage.NewTuple(
			storage.Int64Value(int64(i%200+1)), storage.Int64Value(int64(i)),
			storage.StringValue(strings.Repeat("x", 300)),
		)
		rid, err := tb.Insert(tu)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
		if i >= 45 {
			want[tu.String()]++
		}
	}
	for i := 0; i < 45; i++ {
		if err := tb.Delete(rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := rig.eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The swap itself, without Vacuum's closing checkpoint — then crash.
	before, after, err := tb.vacuum()
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("vacuum did not shrink the heap: %d -> %d pages", before, after)
	}

	recovered, err := Load(crashConfig(dir))
	if err != nil {
		t.Fatalf("Load after vacuum crash: %v", err)
	}
	defer recovered.Close()
	if got := recovered.RecoveryStats().VacuumRepairs; got != 1 {
		t.Errorf("VacuumRepairs = %d, want 1", got)
	}
	got := map[string]int{}
	n := 0
	err = recovered.Table("orders").Scan(func(_ storage.RID, tu storage.Tuple) error {
		got[tu.String()]++
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 15 {
		t.Fatalf("recovered %d tuples, want 15", n)
	}
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("tuple %q: got %d, want %d", k, got[k], c)
		}
	}
	// The marker is consumed and the repaired extent republished: the
	// marker file is gone and a clean reopen succeeds.
	if _, err := os.Stat(vacuumMarkerPath(dir, "orders")); !os.IsNotExist(err) {
		t.Errorf("vacuum marker not retired: %v", err)
	}
	if err := recovered.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := Load(crashConfig(dir))
	if err != nil {
		t.Fatalf("reopen after repair: %v", err)
	}
	again.Close()
}

// TestStaleVacuumMarkerIgnored: a marker whose page count does not
// match the file predates the swap (vacuum crashed before the rename);
// Load must ignore it, keep the old state, and sweep the marker.
func TestStaleVacuumMarkerIgnored(t *testing.T) {
	dir := t.TempDir()
	ops := crashScript(41, 16, 0)
	rig := newCrashRig(t, New(crashConfig(dir)))
	for i, op := range ops {
		if err := rig.apply(op); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := rig.eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(vacuumMarkerPath(dir, "orders"), []byte(`{"pages": 999}`), 0o644); err != nil {
		t.Fatal(err)
	}

	recovered, err := Load(crashConfig(dir))
	if err != nil {
		t.Fatalf("Load with stale marker: %v", err)
	}
	defer recovered.Close()
	if got := recovered.RecoveryStats().VacuumRepairs; got != 0 {
		t.Errorf("VacuumRepairs = %d, want 0", got)
	}
	gotRig := &crashRig{eng: recovered}
	diffRigs(t, "stale marker", gotRig, oracleRig(t, ops, len(ops)))
	if _, err := os.Stat(vacuumMarkerPath(dir, "orders")); !os.IsNotExist(err) {
		t.Errorf("stale marker not swept: %v", err)
	}
}
