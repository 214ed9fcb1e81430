package btree

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/storage"
)

// dump flattens a tree into its (key, rid) entries in order.
func dump(t *Tree) []Entry {
	var out []Entry
	t.Ascend(func(k storage.Value, post []storage.RID) bool {
		for _, r := range post {
			out = append(out, Entry{k, r})
		}
		return true
	})
	return out
}

// TestCloneChainMatchesInPlace runs the same randomized insert/delete
// stream through a tree changed in place and through a chain of clones,
// one per operation as the partial index makes them, and diffs contents,
// counters and range scans.
func TestCloneChainMatchesInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	mt := New(4) // tiny order forces deep trees, splits and prunes
	ct := New(4)

	type pair struct {
		k storage.Value
		r storage.RID
	}
	var live []pair

	for op := 0; op < 4000; op++ {
		ct = ct.Clone()
		if rng.Intn(3) != 0 || len(live) == 0 {
			k := iv(int64(rng.Intn(60)))
			r := rid(rng.Intn(20), rng.Intn(8))
			ma, ca := mt.Insert(k, r), ct.Insert(k, r)
			if ma != ca {
				t.Fatalf("op %d: insert added in-place=%v clone=%v", op, ma, ca)
			}
			if ma {
				live = append(live, pair{k, r})
			}
		} else {
			i := rng.Intn(len(live))
			p := live[i]
			mr, cr := mt.Delete(p.k, p.r), ct.Delete(p.k, p.r)
			if mr != cr {
				t.Fatalf("op %d: delete removed in-place=%v clone=%v", op, mr, cr)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}

		if mt.EntryCount() != ct.EntryCount() || mt.Len() != ct.Len() {
			t.Fatalf("op %d: entries %d/%d distinct %d/%d",
				op, mt.EntryCount(), ct.EntryCount(), mt.Len(), ct.Len())
		}
		if op%97 == 0 {
			checkInvariants(t, mt)
			checkInvariants(t, ct)
			if !slices.Equal(dump(mt), dump(ct)) {
				t.Fatalf("op %d: contents diverged", op)
			}
			lo, hi := iv(int64(rng.Intn(40))), iv(int64(20+rng.Intn(40)))
			var mscan, cscan []string
			mt.AscendRange(lo, hi, func(k storage.Value, post []storage.RID) bool {
				mscan = append(mscan, k.String())
				return true
			})
			ct.AscendRange(lo, hi, func(k storage.Value, post []storage.RID) bool {
				cscan = append(cscan, k.String())
				return true
			})
			if !slices.Equal(mscan, cscan) {
				t.Fatalf("op %d: range [%v,%v] diverged: %v vs %v", op, lo, hi, mscan, cscan)
			}
			if mt.Min().String() != ct.Min().String() || mt.Max().String() != ct.Max().String() {
				t.Fatalf("op %d: min/max diverged", op)
			}
		}
	}
}

// TestClonePersistence checks isolation in both directions: a clone
// taken before a batch of mutations to the original is unchanged
// afterwards, and so is the original when the clone is mutated.
func TestClonePersistence(t *testing.T) {
	for _, mutateClone := range []bool{false, true} {
		tr := New(4)
		for i := 0; i < 200; i++ {
			tr.Insert(iv(int64(i%37)), rid(i%11, i%5))
		}
		snap, mutated := tr, tr.Clone()
		if !mutateClone {
			snap, mutated = mutated, snap
		}
		before := dump(snap)
		entries, distinct := snap.EntryCount(), snap.Len()

		for i := 0; i < 200; i++ {
			if i%2 == 0 {
				mutated.Insert(iv(int64(100+i)), rid(i%7, i%3))
			} else {
				mutated.Delete(iv(int64(i%37)), rid(i%11, i%5))
			}
		}
		if slices.Equal(before, dump(mutated)) {
			t.Fatal("mutations had no effect")
		}
		if !slices.Equal(before, dump(snap)) {
			t.Fatalf("mutateClone=%v: snapshot changed under mutation", mutateClone)
		}
		if snap.EntryCount() != entries || snap.Len() != distinct {
			t.Fatalf("mutateClone=%v: snapshot counters changed under mutation", mutateClone)
		}
		checkInvariants(t, snap)
		checkInvariants(t, mutated)
	}
}

// TestDeleteToEmpty drains a tree through a chain of clones, exercising
// cascading prunes down to the nil root.
func TestDeleteToEmpty(t *testing.T) {
	tr := New(4)
	const n = 300
	for i := 0; i < n; i++ {
		tr.Insert(iv(int64(i)), rid(i, 0))
	}
	for i := n - 1; i >= 0; i-- {
		tr = tr.Clone()
		if !tr.Delete(iv(int64(i)), rid(i, 0)) {
			t.Fatalf("delete %d failed", i)
		}
		if tr.EntryCount() != i {
			t.Fatalf("entries = %d after deleting down to %d", tr.EntryCount(), i)
		}
	}
	if tr.Height() != 0 || tr.Len() != 0 {
		t.Fatalf("drained tree: height %d distinct %d", tr.Height(), tr.Len())
	}
	if tr.Lookup(iv(3)) != nil {
		t.Fatal("lookup on drained tree")
	}
	if !tr.Insert(iv(9), rid(1, 1)) || tr.EntryCount() != 1 {
		t.Fatal("reinsert after drain failed")
	}
}

// TestBulkEmptyClone checks that an empty bulk tree and its clone are
// both empty and stay apart: an insert into the clone leaves the
// original with nil root.
func TestBulkEmptyClone(t *testing.T) {
	tr := Bulk(4, nil)
	cl := tr.Clone()
	for _, x := range []*Tree{tr, cl} {
		if x.EntryCount() != 0 || x.Height() != 0 {
			t.Fatal("empty bulk not empty")
		}
		x.Ascend(func(storage.Value, []storage.RID) bool {
			t.Fatal("ascend on empty tree called fn")
			return false
		})
	}
	if !cl.Insert(iv(1), rid(0, 0)) || cl.EntryCount() != 1 || cl.Height() != 1 {
		t.Fatalf("insert into clone: entries %d height %d", cl.EntryCount(), cl.Height())
	}
	if tr.EntryCount() != 0 || tr.Height() != 0 || dump(tr) != nil {
		t.Fatal("insert into clone reached the original")
	}
}

// TestDuplicateSemantics checks the posting-list rules on clones:
// duplicate pairs are no-ops, same-key rids accumulate in RID order.
func TestDuplicateSemantics(t *testing.T) {
	tr := NewDefault()
	tr = tr.Clone()
	a1 := tr.Insert(iv(7), rid(3, 1))
	tr = tr.Clone()
	a2 := tr.Insert(iv(7), rid(1, 2))
	tr = tr.Clone()
	a3 := tr.Insert(iv(7), rid(3, 1)) // duplicate
	if !a1 || !a2 || a3 {
		t.Fatalf("added = %v %v %v", a1, a2, a3)
	}
	post := tr.Lookup(iv(7))
	if len(post) != 2 || !post[0].Less(post[1]) {
		t.Fatalf("posting = %v, want 2 rids in order", post)
	}
	if !tr.Contains(iv(7), rid(1, 2)) || tr.Contains(iv(7), rid(9, 9)) {
		t.Fatal("contains wrong")
	}
	if tr.EntryCount() != 2 || tr.Len() != 1 {
		t.Fatalf("entries=%d distinct=%d", tr.EntryCount(), tr.Len())
	}
}

// TestBulkMatchesCloneInserts cross-checks bulk construction against
// one-at-a-time inserts through a chain of clones.
func TestBulkMatchesCloneInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var entries []Entry
	for i := 0; i < 1500; i++ {
		entries = append(entries, Entry{Key: iv(int64(rng.Intn(200))), RID: rid(rng.Intn(40), rng.Intn(6))})
	}
	inc := New(8)
	for _, e := range entries {
		inc = inc.Clone()
		inc.Insert(e.Key, e.RID)
	}
	bulk := Bulk(8, entries)
	if bulk.EntryCount() != inc.EntryCount() || bulk.Len() != inc.Len() {
		t.Fatalf("bulk entries=%d distinct=%d, incremental %d/%d",
			bulk.EntryCount(), bulk.Len(), inc.EntryCount(), inc.Len())
	}
	if !slices.Equal(dump(bulk), dump(inc)) {
		t.Fatal("bulk and incremental contents diverged")
	}
	checkInvariants(t, bulk)
}

// modelDump renders a map model in dump's form.
func modelDump(model map[int64]map[storage.RID]bool) []Entry {
	var out []Entry
	for k, rids := range model {
		for r := range rids {
			out = append(out, Entry{iv(k), r})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key.Int64() < out[j].Key.Int64()
		}
		return out[i].RID.Less(out[j].RID)
	})
	return out
}

// FuzzTreeClone decodes its bytes into insert, delete and clone
// operations on a few keys with many RIDs each, so postings shared with
// a clone get grown and shrunk. Every step is checked against a map
// model, and every earlier clone must still dump exactly as it did when
// taken. A clone op freezes either the receiver or the clone (bit 2 of
// the op byte) and keeps mutating the other, which checks isolation in
// both directions.
func FuzzTreeClone(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 1, 2, 3, 0, 0, 0, 1, 3, 2, 1, 1, 7, 0, 0})
	// Key 1 gets a posting of three RIDs with room for a fourth; the
	// receiver, cloned, then inserts a RID into the middle of it.
	f.Add([]byte{0, 1, 0, 0, 1, 2, 0, 1, 3, 3, 0, 0, 0, 1, 1})
	f.Add([]byte{0, 5, 9, 1, 5, 10, 1, 5, 11, 3, 0, 0, 2, 5, 10, 0, 5, 12, 3, 4, 0, 2, 5, 9, 1, 5, 13})
	seed := make([]byte, 300)
	rand.New(rand.NewSource(1)).Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, ops []byte) {
		// 40 ops reach splits, prunes and a dozen live clones; longer
		// inputs make every step check more clones and stall the
		// fuzzer's minimization.
		if len(ops) > 120 {
			ops = ops[:120]
		}
		live := New(4)
		model := map[int64]map[storage.RID]bool{}
		entries := 0
		type frozen struct {
			tr   *Tree
			dump []Entry
		}
		var snaps []frozen
		for step := 0; len(ops) >= 3; step++ {
			op, k, r := ops[0], int64(ops[1]%24), rid(int(ops[2]%4), int(ops[2]/4%4))
			ops = ops[3:]
			switch op % 4 {
			case 0, 1:
				was := model[k][r]
				if live.Insert(iv(k), r) == was {
					t.Fatalf("step %d: insert(%d, %v) disagrees with model (present=%v)", step, k, r, was)
				}
				if !was {
					if model[k] == nil {
						model[k] = map[storage.RID]bool{}
					}
					model[k][r] = true
					entries++
				}
			case 2:
				was := model[k][r]
				if live.Delete(iv(k), r) != was {
					t.Fatalf("step %d: delete(%d, %v) disagrees with model (present=%v)", step, k, r, was)
				}
				if was {
					delete(model[k], r)
					if len(model[k]) == 0 {
						delete(model, k)
					}
					entries--
				}
			case 3:
				c := live.Clone()
				if op&4 != 0 {
					live, c = c, live
				}
				snaps = append(snaps, frozen{c, dump(c)})
			}
			if live.EntryCount() != entries || live.Len() != len(model) {
				t.Fatalf("step %d: EntryCount=%d Len=%d, model %d/%d", step, live.EntryCount(), live.Len(), entries, len(model))
			}
			if got, want := dump(live), modelDump(model); !slices.Equal(got, want) {
				t.Fatalf("step %d: contents %v, model %v", step, got, want)
			}
			checkInvariants(t, live)
			for i, s := range snaps {
				if !slices.Equal(dump(s.tr), s.dump) {
					t.Fatalf("step %d: clone %d changed after it was taken", step, i)
				}
			}
		}
	})
}

// TestClonePublishRace has one goroutine clone the published tree,
// mutate the clone and publish it through an atomic pointer while
// readers walk whatever is published. Each published tree carries the
// checksum of its contents at publication; a reader that computes
// another saw a later mutation leak into an earlier clone. Run it with
// -race.
func TestClonePublishRace(t *testing.T) {
	type published struct {
		tr       *Tree
		entries  int
		checksum int64
	}
	sum := func(tr *Tree) (entries int, checksum int64) {
		tr.Ascend(func(k storage.Value, post []storage.RID) bool {
			for _, r := range post {
				entries++
				checksum += k.Int64()*1_000_003 + int64(r.Page)*64 + int64(r.Slot)
			}
			return true
		})
		return entries, checksum
	}
	var cur atomic.Pointer[published]
	cur.Store(&published{tr: New(4)})
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				p := cur.Load()
				if e, c := sum(p.tr); e != p.entries || c != p.checksum {
					t.Errorf("published tree changed: %d entries checksum %d, published %d/%d", e, c, p.entries, p.checksum)
					return
				}
				p.tr.Lookup(iv(3))
			}
		}()
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		tr := cur.Load().tr.Clone()
		for j := 0; j < 4; j++ {
			k, r := iv(int64(rng.Intn(24))), rid(rng.Intn(16), rng.Intn(4))
			if rng.Intn(3) == 0 {
				tr.Delete(k, r)
			} else {
				tr.Insert(k, r)
			}
		}
		e, c := sum(tr)
		cur.Store(&published{tr: tr, entries: e, checksum: c})
	}
	stop.Store(true)
	wg.Wait()
}
