package engine

import (
	"strings"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/storage"
	"repro/internal/wal"
)

// stallConfig runs the periodic checkpointer at period every.
func stallConfig(dir string, every time.Duration) Config {
	return Config{
		DataDir:   dir,
		PoolPages: 16,
		WAL:       WALConfig{SyncPolicy: wal.SyncBatch, CheckpointEvery: every},
	}
}

func stallTable(t *testing.T, e *Engine) *Table {
	t.Helper()
	tb, err := e.CreateTable("t", storage.MustSchema(storage.Column{Name: "k", Kind: storage.KindInt64}))
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestCheckpointStallIgnoresIdleSpell: a database that sat idle for many
// checkpoint periods is not stalled the moment one DML arrives — the
// idle ticks found nothing to do, which counts as the checkpointer
// being caught up.
func TestCheckpointStallIgnoresIdleSpell(t *testing.T) {
	const every = 20 * time.Millisecond
	e := New(stallConfig(t.TempDir(), every))
	defer e.Close()
	tb := stallTable(t, e)

	time.Sleep(10 * every) // idle well past checkpointStallFactor periods
	if _, err := tb.Insert(storage.NewTuple(storage.Int64Value(1))); err != nil {
		t.Fatal(err)
	}
	if h := e.DurabilityHealth(); !h.Healthy || h.CheckpointStalled {
		t.Fatalf("one DML after an idle spell reads as a stall: %+v", h)
	}
}

// TestCheckpointStallDetected: with log work pending and every
// checkpoint failing (page flushes refused), the checkpointer ages past
// checkpointStallFactor periods and the health surface flips unhealthy.
func TestCheckpointStallDetected(t *testing.T) {
	const every = 10 * time.Millisecond
	cfg := stallConfig(t.TempDir(), every)
	cfg.wrapStore = func(_ string, s pageStore) pageStore {
		fs := buffer.NewFaultStore(s)
		fs.SetWritesLeft(0)
		return fs
	}
	e := New(cfg)
	defer e.Close() // its final checkpoint fails too; only the files matter
	tb := stallTable(t, e)
	if _, err := tb.Insert(storage.NewTuple(storage.Int64Value(1))); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	var h DurabilityHealth
	for time.Now().Before(deadline) {
		if h = e.DurabilityHealth(); h.CheckpointStalled {
			break
		}
		time.Sleep(every)
	}
	if !h.CheckpointStalled || h.Healthy || !strings.Contains(h.Reason, "checkpointer stalled") {
		t.Fatalf("failing checkpoints never read as a stall: %+v", h)
	}
	if h.AppendedLSN <= h.CheckpointLSN {
		t.Fatalf("no log work pending: %+v", h)
	}
}
