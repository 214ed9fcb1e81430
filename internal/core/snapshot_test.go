package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/storage"
)

// TestCounterSnapshotProperty drives a buffer through a seeded random
// sequence of every operation that moves C[p] — ApplyPage, Table I
// maintenance, GrowPages past the page array, and displacement by a
// competing buffer — and after each one checks that the indexing scan's
// scan-start view (NonZeroPages) is exactly the pages whose locked
// counter is non-zero, and that C[p] is 0 for a buffered page and the
// uncovered count for an unbuffered one.
func TestCounterSnapshotProperty(t *testing.T) {
	displaced := uint64(0)
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSpace(Config{IMax: 4, P: 3, SpaceLimit: 15, Seed: seed})
		uncovered := make([]int, 8)
		for p := range uncovered {
			uncovered[p] = rng.Intn(4)
		}
		b, err := s.CreateBuffer("t.a", uncovered)
		if err != nil {
			t.Fatal(err)
		}
		other, err := s.CreateBuffer("t.b", []int{5, 5, 5, 5, 5, 5})
		if err != nil {
			t.Fatal(err)
		}

		type tuple struct {
			v    storage.Value
			rid  storage.RID
			inIX bool
		}
		var live []tuple // tuples the maintenance ops inserted
		slot := 0
		newTuple := func() tuple {
			slot++
			pages := b.NumPages() + 1 // sometimes one page past the array
			return tuple{iv(rng.Int63n(20)), storage.RID{Page: storage.PageID(rng.Intn(pages)), Slot: uint16(slot)}, rng.Intn(3) == 0}
		}
		entries := func(p storage.PageID, n int) []PageEntry {
			es := make([]PageEntry, n)
			for k := range es {
				slot++
				es[k] = PageEntry{Key: iv(rng.Int63n(20)), RID: storage.RID{Page: p, Slot: uint16(slot)}}
			}
			return es
		}
		unbuffered := func() (storage.PageID, bool) {
			for try := 0; try < 8; try++ {
				if p := storage.PageID(rng.Intn(b.NumPages())); !b.PageBuffered(p) {
					return p, true
				}
			}
			return 0, false
		}

		for op := 0; op < 300; op++ {
			var name string
			switch rng.Intn(6) {
			case 0:
				name = "ApplyPage"
				if p, ok := unbuffered(); ok {
					if err := b.ApplyPage(p, entries(p, b.Uncovered(p))); err != nil {
						t.Fatalf("seed %d op %d: %v", seed, op, err)
					}
				}
			case 1:
				name = "MaintainInsert"
				tu := newTuple()
				b.MaintainInsert(tu.v, tu.rid, tu.inIX)
				live = append(live, tu)
			case 2:
				name = "MaintainDelete"
				if len(live) > 0 {
					k := rng.Intn(len(live))
					tu := live[k]
					b.MaintainDelete(tu.v, tu.rid, tu.inIX)
					live = append(live[:k], live[k+1:]...)
				}
			case 3:
				name = "MaintainUpdate"
				if len(live) > 0 {
					k := rng.Intn(len(live))
					old, tu := live[k], newTuple()
					if rng.Intn(2) == 0 {
						tu.rid = old.rid // in place: only the value may change
					}
					b.MaintainUpdate(old.v, tu.v, old.rid, tu.rid, old.inIX, tu.inIX)
					live[k] = tu
				}
			case 4:
				name = "GrowPages"
				b.GrowPages(b.NumPages() + 1 + rng.Intn(3))
			case 5:
				name = "displacement"
				s.OnQuery(other, false)
				for _, p := range s.SelectPagesForBuffer(other, other.NumPages()) {
					if err := other.ApplyPage(p, entries(p, other.Uncovered(p))); err != nil {
						t.Fatalf("seed %d op %d: %v", seed, op, err)
					}
				}
				// Free the competitor again so the next round displaces anew.
				for _, part := range other.Partitions() {
					other.dropPartition(part)
				}
			}
			for _, buf := range []*IndexBuffer{b, other} {
				checkSnapshot(t, buf, seed, op, name)
			}
			if used, held := s.Used(), b.EntryCount()+other.EntryCount(); used != held {
				t.Fatalf("seed %d op %d (%s): Space.Used %d, buffers hold %d", seed, op, name, used, held)
			}
		}
		displaced += s.Stats().PartitionsDropped
	}
	if displaced == 0 {
		t.Error("no partition was ever displaced: the sequence missed displacement")
	}
}

// checkSnapshot asserts the scan-start view of buf lists, ascending,
// exactly the pages whose locked counter is non-zero (pages past the
// array read as 0, and a shorter scan range sees a prefix of the view),
// and that C[p] is 0 on buffered pages and the uncovered count
// elsewhere.
func checkSnapshot(t *testing.T, buf *IndexBuffer, seed int64, op int, name string) {
	t.Helper()
	pages := buf.NumPages() + 2
	var want []storage.PageID
	for p := 0; p < pages; p++ {
		if buf.Counter(storage.PageID(p)) != 0 {
			want = append(want, storage.PageID(p))
		}
	}
	if view := buf.NonZeroPages(pages); !slices.Equal(view, want) {
		t.Fatalf("seed %d op %d (%s) %s: scan view %v, non-zero counters on %v", seed, op, name, buf.Name(), view, want)
	}
	half := buf.NumPages() / 2
	n, _ := slices.BinarySearch(want, storage.PageID(half))
	if view, prefix := buf.NonZeroPages(half), want[:n]; !slices.Equal(view, prefix) {
		t.Fatalf("seed %d op %d (%s) %s: scan view of %d pages %v, want %v", seed, op, name, buf.Name(), half, view, prefix)
	}
	for p := 0; p < pages; p++ {
		pg := storage.PageID(p)
		c := buf.Counter(pg)
		want := buf.Uncovered(pg)
		if buf.PageBuffered(pg) {
			want = 0
		}
		if c != want {
			t.Fatalf("seed %d op %d (%s) %s: C[%d] = %d, want %d (buffered %v)", seed, op, name, buf.Name(), p, c, want, buf.PageBuffered(pg))
		}
	}
}
