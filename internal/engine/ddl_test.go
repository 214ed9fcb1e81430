package engine

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/index"
)

// TestFailedCreatePartialIndexLeavesNoIndex: when the column's buffer
// name is already taken in the Space, CreatePartialIndex fails without
// attaching the index, so a retry after the name is freed succeeds
// instead of reporting ErrDuplicateIndex.
func TestFailedCreatePartialIndexLeavesNoIndex(t *testing.T) {
	e, tb := newABC(t, Config{Space: core.Config{IMax: 100000, P: 1000}}, 500, 100)
	name := tb.bufferName(0)
	if _, err := e.Space().CreateBuffer(name, nil); err != nil {
		t.Fatal(err)
	}
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 50)); err == nil {
		t.Fatal("CreatePartialIndex succeeded with its buffer name taken")
	}
	if tb.Index(0) != nil || tb.Buffer(0) != nil {
		t.Fatalf("failed CreatePartialIndex left index %v, buffer %v", tb.Index(0), tb.Buffer(0))
	}
	e.Space().DropBuffer(name)
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 50)); err != nil {
		t.Fatalf("retry after freeing the name: %v", err)
	}
	if tb.Index(0) == nil || tb.Buffer(0) == nil || e.Space().Buffer(name) != tb.Buffer(0) {
		t.Fatal("retried CreatePartialIndex did not attach its index and buffer")
	}
}

// TestFailedRedefineIndexKeepsState fails RedefineIndex at every page
// read in turn and checks that each failure leaves the old coverage and
// the old, still registered buffer in place; with enough reads it
// succeeds and swaps both.
func TestFailedRedefineIndexKeepsState(t *testing.T) {
	var fs *buffer.FaultStore
	cfg := Config{Space: core.Config{IMax: 100000, P: 1000}, PoolPages: 4}
	cfg.wrapStore = func(_ string, s pageStore) pageStore {
		fs = buffer.NewFaultStore(s)
		return fs
	}
	e, tb := newABC(t, cfg, 1000, 100)
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 80)); err != nil {
		t.Fatal(err)
	}
	name := tb.bufferName(0)
	old := tb.Buffer(0)
	for reads := 0; ; reads++ {
		fs.SetReadsLeft(reads)
		err := tb.RedefineIndex(0, index.IntRange(50, 100))
		fs.SetReadsLeft(-1)
		if err == nil {
			break
		}
		if got := tb.Index(0).Coverage(); got != index.IntRange(1, 80) {
			t.Fatalf("reads=%d: failed redefinition changed coverage to %v", reads, got)
		}
		if tb.Buffer(0) != old || e.Space().Buffer(name) != old {
			t.Fatalf("reads=%d: failed redefinition replaced or dropped the buffer", reads)
		}
		if reads > 10*tb.heap.NumPages() {
			t.Fatal("redefinition never succeeded")
		}
	}
	if got := tb.Index(0).Coverage(); got != index.IntRange(50, 100) {
		t.Fatalf("coverage after redefinition = %v", got)
	}
	if b := tb.Buffer(0); b == old || e.Space().Buffer(name) != b {
		t.Fatal("redefinition did not register a fresh buffer")
	}
}

// TestFailedVacuumKeepsState fails Vacuum at every page read of the
// rewritten heap in turn — its copy and the rebuild of the index and
// buffer against it — and checks that each failure leaves the table
// answering every key exactly as before, RIDs included; with enough
// reads the vacuum succeeds and the answers keep their rows.
func TestFailedVacuumKeepsState(t *testing.T) {
	readsLeft := -1 // armed on each store as it is created
	var fs *buffer.FaultStore
	cfg := Config{Space: core.Config{IMax: 100000, P: 1000}, PoolPages: 4}
	cfg.wrapStore = func(_ string, s pageStore) pageStore {
		fs = buffer.NewFaultStore(s)
		fs.SetReadsLeft(readsLeft)
		return fs
	}
	_, tb := newABC(t, cfg, 1000, 100)
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 50)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tb.QueryEqual(0, iv(90)); err != nil { // warm the buffer
		t.Fatal(err)
	}
	churn(t, tb)
	answers := func(withRIDs bool) map[int64][]string {
		out := map[int64][]string{}
		for k := int64(1); k <= 100; k++ {
			ms, _, err := tb.QueryEqual(0, iv(k))
			if err != nil {
				t.Fatalf("key %d: %v", k, err)
			}
			for _, m := range ms {
				row := fmt.Sprint(m.Tuple)
				if withRIDs {
					row = fmt.Sprint(m.RID, row)
				}
				out[k] = append(out[k], row)
			}
			sort.Strings(out[k])
		}
		return out
	}
	want, wantRows := answers(true), answers(false)
	for reads := 0; ; reads++ {
		readsLeft = reads
		_, _, err := tb.Vacuum()
		readsLeft = -1
		fs.SetReadsLeft(-1) // the last store created: the vacuum's
		if err == nil {
			break
		}
		if got := answers(true); !reflect.DeepEqual(got, want) {
			t.Fatalf("reads=%d: failed vacuum (%v) changed the answers", reads, err)
		}
		if reads > 10*tb.heap.NumPages() {
			t.Fatal("vacuum never succeeded")
		}
	}
	if got := answers(false); !reflect.DeepEqual(got, wantRows) {
		t.Fatal("vacuum changed the answers' rows")
	}
}
