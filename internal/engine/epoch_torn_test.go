package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Torn-publication battery for the lock-free read path: store faults
// are injected at a sweep of countdown positions so that operations die
// between their in-memory publication (the seqlock window has closed,
// the mutation is reader-visible) and their WAL record becoming
// durable. Three properties must hold at every position:
//
//  1. The write-ahead invariant: no WAL image capture ever needs a
//     store read. A capture that reads means a mutated page was evicted
//     — written to the store — before its record existed; a crash in
//     that window exposes the half-published page with no record to
//     heal it (see the pinned pre-image page in Table.Update and the
//     relocation pin in heap.Update).
//  2. The live engine stays coherent after a mid-operation fault: the
//     seqlock window is closed (error paths call endMutate), so the
//     lock-free fast path keeps serving covered hits instead of
//     spinning against an odd sequence forever.
//  3. Recovery exposes exactly the acknowledged prefix: a crash after
//     the fault must come back bit-identical to an oracle that ran only
//     the acked ops — never the faulted op's half-state.

// tornScript is crashScript biased toward relocating updates: the
// replacement payloads outgrow their slots, so updates routinely
// delete-then-reinsert across pages — the multi-page window where a
// torn publication can escape. Checkpoints are kept in the mix because
// they truncate the log: a torn page whose last record predates the
// checkpoint has nothing left to heal it, which is exactly the state
// property 3 must never see.
func tornScript(seed int64, loads, mixed int) []crashOp {
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
		switch r := rng.Intn(10); {
		case r < 4:
			op.kind = opUpdate
			op.pad = 1200 + rng.Intn(900)
		case r < 6:
			op.kind = opInsert
		case r < 7:
			op.kind = opDelete
		case r < 9:
			op.kind = opQueryEqual
		default:
			op.kind = opCheckpoint
		}
		ops = append(ops, op)
	}
	return ops
}

func TestTornPublicationFaultSweep(t *testing.T) {
	// The load is sized to outgrow the 4-frame pool several times over,
	// so the mixed phase constantly reads (fetch misses) and writes
	// (dirty evictions) through the store — every countdown position
	// lands somewhere real.
	ops := tornScript(17, 240, 160)
	arms := []struct {
		name string
		arm  func(*buffer.FaultStore, int)
	}{
		{"reads", func(fs *buffer.FaultStore, n int) { fs.SetReadsLeft(n) }},
		{"writes", func(fs *buffer.FaultStore, n int) { fs.SetWritesLeft(n) }},
	}
	for _, arm := range arms {
		for _, left := range []int{0, 1, 3, 6, 11, 19, 33} {
			arm, left := arm, left
			t.Run(fmt.Sprintf("%s=%d", arm.name, left), func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				cfg := crashConfig(dir)
				var faults []*buffer.FaultStore
				cfg.wrapStore = func(_ string, s pageStore) pageStore {
					fs := buffer.NewFaultStore(s)
					arm.arm(fs, left)
					faults = append(faults, fs)
					return fs
				}
				rig := newCrashRig(t, New(cfg))
				acked := 0
				var opErr error
				for _, op := range ops {
					if err := rig.apply(op); err != nil {
						opErr = err
						break
					}
					acked++
				}
				if opErr == nil {
					t.Fatalf("fault never fired (%s=%d)", arm.name, left)
				}
				if !errors.Is(opErr, buffer.ErrInjected) {
					t.Fatalf("op %d: unexpected error: %v", acked, opErr)
				}
				// Property 1: the faulted op must not have died inside a WAL
				// image capture — captures are pool hits by construction.
				if errors.Is(opErr, errWALImage) {
					t.Fatalf("op %d died capturing a WAL image — a mutated page was evicted before its record existed: %v", acked, opErr)
				}
				for _, fs := range faults {
					fs.SetReadsLeft(-1)
					fs.SetWritesLeft(-1)
				}
				// Property 2: the fast path survives the mid-op failure. A
				// seqlock window left open by an error path would strand
				// every reader on the fallback, so covered hits must keep
				// landing lock-free.
				before := rig.eng.EpochStats()
				for i := 0; i < 60; i++ {
					if _, _, err := rig.tables[0].QueryEqual(0, storage.Int64Value(5)); err != nil {
						t.Fatalf("live query after mid-op fault: %v", err)
					}
					if rig.eng.EpochStats().FastHits > before.FastHits {
						break
					}
				}
				if after := rig.eng.EpochStats(); after.FastHits == before.FastHits {
					t.Errorf("fast path dead after mid-op fault (fallbacks +%d): seqlock window left open?",
						after.Fallbacks-before.Fallbacks)
				}
				// Property 3: crash (abandon, no close, no flush) and
				// recover; the faulted op's half-state must not exist.
				recovered, err := Load(crashConfig(dir))
				if err != nil {
					t.Fatalf("Load after mid-op fault: %v", err)
				}
				defer recovered.Close()
				got := &crashRig{eng: recovered}
				diffRigs(t, fmt.Sprintf("%s=%d, %d acked", arm.name, left, acked), got, oracleRig(t, ops, acked))
			})
		}
	}
}

// TestTornPublicationRecoveryAfterFailedRelocation drives the exact
// worst case end to end: checkpoint, then a relocating update that dies
// mid-relocation with its target page unreadable, then more traffic
// that forces the dirtied pages through eviction, then a crash. The
// checkpoint means nothing in the log can heal the victim page, so the
// recovered table is correct only if the failed update never let its
// half-state reach the store — the undo in heap.Update plus the
// pre-image pin are what guarantee that.
func TestTornPublicationRecoveryAfterFailedRelocation(t *testing.T) {
	dir := t.TempDir()
	cfg := crashConfig(dir)
	var faults []*buffer.FaultStore
	cfg.wrapStore = func(_ string, s pageStore) pageStore {
		fs := buffer.NewFaultStore(s)
		faults = append(faults, fs)
		return fs
	}
	rig := newCrashRig(t, New(cfg))
	ops := tornScript(23, 240, 0)
	for i, op := range ops {
		if err := rig.apply(op); err != nil {
			t.Fatalf("load op %d: %v", i, err)
		}
	}
	oracle := oracleRig(t, ops, len(ops))
	// Give the heap a fresh last page with room for the relocations
	// below: two 5500-byte rows cannot share any page, so the second one
	// provably allocates, leaving ~2.6 KB free. The relocation walk
	// tries the last page first, which is what lets the fault below land
	// inside a relocation deterministically.
	for _, pad := range []int{5500, 5500} {
		tu := storage.NewTuple(storage.Int64Value(3), storage.Int64Value(int64(pad)), storage.StringValue(strings.Repeat("h", pad)))
		rid, err := rig.tables[0].Insert(tu)
		if err != nil {
			t.Fatal(err)
		}
		orid, err := oracle.tables[0].Insert(tu)
		if err != nil {
			t.Fatal(err)
		}
		rig.rids[0] = append(rig.rids[0], rid)
		oracle.rids[0] = append(oracle.rids[0], orid)
	}
	if err := rig.eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	heapPages := rig.tables[0].heap.NumPages()
	lastPage := storage.PageID(heapPages - 1)

	// A growing update against each loaded row until one dies inside its
	// relocation. Before each attempt the last page is pushed out of the
	// 4-frame pool (clean — the checkpoint flushed it) and the victim
	// page is primed resident; arming a zero-read countdown then means a
	// fault can only land after the in-place attempt — on the walk's
	// fetch of the cold last page, with the victim slot already dead.
	// Attempts that fit in place never read and are acked to the oracle.
	faulted := false
	big := strings.Repeat("z", 2100)
	for i := 0; i < len(rig.rids[0]) && !faulted; i++ {
		target := rig.rids[0][i]
		if target.Page == lastPage {
			continue
		}
		evicted := 0
		for p := 0; p < heapPages-1 && evicted < 4; p++ {
			if storage.PageID(p) == target.Page {
				continue
			}
			if _, err := rig.tables[0].heap.PageLiveCount(storage.PageID(p)); err != nil {
				t.Fatalf("touch page %d: %v", p, err)
			}
			evicted++
		}
		if _, err := rig.tables[0].Get(target); err != nil {
			t.Fatalf("priming get %d: %v", i, err)
		}
		tu := storage.NewTuple(storage.Int64Value(7), storage.Int64Value(int64(i)), storage.StringValue(big))
		faults[0].SetReadsLeft(0)
		newRID, err := rig.tables[0].Update(target, tu)
		faults[0].SetReadsLeft(-1)
		if err == nil {
			if newRID.Page != target.Page {
				t.Fatalf("update %d relocated (%v -> %v) without reading the cold last page", i, target, newRID)
			}
			if _, oerr := oracle.tables[0].Update(oracle.rids[0][i], tu); oerr != nil {
				t.Fatalf("oracle update diverged: %v", oerr)
			}
			rig.rids[0][i] = newRID
			continue
		}
		if !errors.Is(err, buffer.ErrInjected) {
			t.Fatalf("update %d: unexpected error: %v", i, err)
		}
		if errors.Is(err, errWALImage) {
			t.Fatalf("update %d died capturing a WAL image: %v", i, err)
		}
		faulted = true
	}
	if !faulted {
		t.Fatal("no update ever died mid-flight; the scenario exercised nothing")
	}
	// Push every dirtied page through eviction: with a 4-frame pool a
	// table scan cycles the whole heap through the frames.
	if _, err := rig.tables[0].Count(); err != nil {
		t.Fatal(err)
	}
	// Crash and recover. The failed update must have left no trace.
	recovered, err := Load(crashConfig(dir))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	defer recovered.Close()
	got := &crashRig{eng: recovered}
	diffRigs(t, "post-checkpoint failed relocation", got, oracle)
}
