package heap

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/storage"
)

func TestSpanListAdd(t *testing.T) {
	t.Parallel()
	cases := []struct {
		adds [][2]int
		want []Span
	}{
		{[][2]int{{0, 2}, {2, 4}}, []Span{{0, 4}}},
		{[][2]int{{0, 2}, {10, 14}}, []Span{{0, 14}}}, // a gap of spanMergeGap joins
		{[][2]int{{0, 2}, {11, 14}}, []Span{{0, 2}, {11, 14}}},
		{[][2]int{{100, 200}, {0, 4}, {50, 60}}, []Span{{0, 4}, {50, 60}, {100, 200}}},
		{[][2]int{{0, 4}, {50, 60}, {100, 200}, {30, 120}}, []Span{{0, 4}, {30, 200}}},
		{[][2]int{{8000, 8192}, {40, 44}, {8, 12}, {0, 2}}, []Span{{0, 12}, {40, 44}, {8000, 8192}}},
	}
	for i, c := range cases {
		var l spanList
		for _, a := range c.adds {
			l.add(a[0], a[1])
		}
		if !slices.Equal(l, c.want) {
			t.Errorf("case %d: spans %v, want %v", i, l, c.want)
		}
	}
}

// checkSpans holds one mutation of a page, before → after, to the span
// contract redo relies on: the spans lie inside the page, sorted and
// apart; every byte that changed lies inside one; and patching the
// spans' bytes of after onto before reproduces after.
func checkSpans(t *testing.T, what string, before, after []byte, spans spanList) {
	t.Helper()
	covered := make([]bool, len(after))
	for i, s := range spans {
		if s.Off < 0 || s.End > len(after) || s.Off >= s.End || i > 0 && s.Off <= spans[i-1].End+spanMergeGap {
			t.Fatalf("%s: malformed spans %v", what, spans)
		}
		for b := s.Off; b < s.End; b++ {
			covered[b] = true
		}
	}
	for b := range after {
		if before[b] != after[b] && !covered[b] {
			t.Fatalf("%s: byte %d changed (%d → %d) outside the spans %v", what, b, before[b], after[b], spans)
		}
	}
	patched := bytes.Clone(before)
	for _, s := range spans {
		copy(patched[s.Off:s.End], after[s.Off:s.End])
	}
	if !bytes.Equal(patched, after) {
		t.Fatalf("%s: the spans patched onto the image before do not give the image after", what)
	}
}

// spanOpPayload draws a payload of size class c with random content.
func spanOpPayload(rng *rand.Rand, c int) []byte {
	lo, hi := [4]int{1, 33, 301, 1501}[c], [4]int{32, 300, 1500, 4000}[c]
	b := make([]byte, lo+rng.Intn(hi-lo+1))
	rng.Read(b)
	return b
}

// FuzzPageSpans drives one page through a sequence of mutations decoded
// from ops and checks every mutation's reported spans with checkSpans.
// Each op byte picks a mutation (b%6) and a payload size class (b/6%4):
// an insert, a delete, an in-place update, a growing update (moved in
// the page, possibly by compaction), a relocation that fails and is
// undone by insertAt the way Table.Update undoes it, and a bare
// compaction. The page is also revalidated after every op.
func FuzzPageSpans(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 0, 0, 1, 1, 0, 2, 3, 4, 5})
	f.Add(int64(2), []byte{12, 12, 18, 18, 18, 1, 7, 13, 3, 9, 21, 4, 10, 22, 5, 0, 6, 12})
	f.Add(int64(3), []byte{18, 18, 18, 18, 18, 19, 22, 4, 16, 10, 4, 0, 0, 0})
	f.Add(int64(4), []byte{6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 1, 1, 1, 9, 15, 21, 22, 4, 0})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, buffer.PageSize)
		p, err := AsPage(data)
		if err != nil {
			t.Fatal(err)
		}
		var spans spanList
		p.spans = &spans
		live := func() []int {
			var s []int
			for i := 0; i < p.NumSlots(); i++ {
				if p.Live(i) {
					s = append(s, i)
				}
			}
			return s
		}
		for k, b := range ops {
			before := bytes.Clone(data)
			spans = spans[:0]
			kind, size := int(b%6), int(b/6%4)
			slots := live()
			slot := -1
			if len(slots) > 0 {
				slot = slots[rng.Intn(len(slots))]
			}
			what := fmt.Sprintf("op %d (kind %d, slot %d)", k, kind, slot)
			switch {
			case kind == 0:
				p.Insert(spanOpPayload(rng, size))
			case kind == 5:
				p.compact()
			case slot < 0:
				continue
			case kind == 1:
				if err := p.Delete(slot); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			case kind == 2:
				old, _ := p.Tuple(slot)
				pl := make([]byte, 1+rng.Intn(len(old)))
				rng.Read(pl)
				if ok, err := p.Update(slot, pl); !ok || err != nil {
					t.Fatalf("%s: shrinking update: ok=%v err=%v", what, ok, err)
				}
			case kind == 3 || kind == 4:
				raw, _ := p.Tuple(slot)
				old := bytes.Clone(raw)
				pl := spanOpPayload(rng, size)
				if kind == 4 {
					pl = make([]byte, buffer.PageSize) // fits no page: the relocation fails
				}
				ok, err := p.Update(slot, pl)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if !ok {
					if p.Live(slot) {
						if err := p.Delete(slot); err != nil {
							t.Fatalf("%s: %v", what, err)
						}
					}
					if !p.insertAt(slot, old) {
						t.Fatalf("%s: insertAt could not restore the row", what)
					}
					if got, _ := p.Tuple(slot); !bytes.Equal(got, old) {
						t.Fatalf("%s: the undo restored other bytes", what)
					}
				}
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("%s: page no longer validates: %v", what, err)
			}
			checkSpans(t, what, before, data, spans)
		}
	})
}

// TestTableSpansPending: a table records spans only once it tracks
// them; a page's spans wait until SpansLogged takes them, so the pending
// set holds only the pages written since their last record, and a
// logged row's spans cover exactly the bytes its insert changed.
func TestTableSpansPending(t *testing.T) {
	t.Parallel()
	tb, _ := newTable(t, 8)
	rid, err := tb.Insert(row(1, "untracked"))
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.Spans(rid.Page, nil); len(got) != 0 || len(tb.pending) != 0 {
		t.Fatalf("an untracked table recorded spans %v", got)
	}
	tb.TrackSpans()
	for i := 0; i < 300; i++ {
		var images [][]byte
		for p := 0; p < tb.NumPages(); p++ {
			f, err := tb.pool.Fetch(storage.PageID(p))
			if err != nil {
				t.Fatal(err)
			}
			images = append(images, bytes.Clone(f.Data()))
			tb.pool.Unpin(f)
		}
		images = append(images, make([]byte, buffer.PageSize)) // a fresh page starts zeroed
		rid, err := tb.Insert(row(int64(i), strings.Repeat("s", 10+i%90)))
		if err != nil {
			t.Fatal(err)
		}
		before := images[rid.Page]
		spans := tb.Spans(rid.Page, nil)
		if len(spans) == 0 {
			t.Fatalf("insert %d on page %d recorded no spans", i, rid.Page)
		}
		f, err := tb.pool.Fetch(rid.Page)
		if err != nil {
			t.Fatal(err)
		}
		checkSpans(t, fmt.Sprintf("insert %d", i), before, f.Data(), spans)
		tb.pool.Unpin(f)
		tb.SpansLogged(rid.Page)
		if got := tb.Spans(rid.Page, nil); len(got) != 0 {
			t.Fatalf("insert %d: spans %v left after SpansLogged", i, got)
		}
	}
	if len(tb.pending) != 1 {
		t.Fatalf("the pending set grew to %d entries for one page unlogged at a time", len(tb.pending))
	}
}
