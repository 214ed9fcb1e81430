package shell

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/storage"
)

// referenceCell is the display rule renderSelect implements, written
// the direct way: quote the whole value, and cut a quote longer than
// cellWidth to its first cellKeep bytes, backed off to a rune boundary.
func referenceCell(v storage.Value) string {
	text := v.String()
	if len(text) > cellWidth {
		k := cellKeep
		for !utf8.RuneStart(text[k]) {
			k--
		}
		text = text[:k] + `..."`
	}
	return text
}

// referenceSelect renders a SELECT result the direct way: a sorted copy
// of the matches, fmt per row and per RID, referenceCell per value.
func referenceSelect(matches []engineMatch, st engineStats) string {
	sorted := append([]engineMatch(nil), matches...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].RID.Less(sorted[j].RID) })
	var sb strings.Builder
	for _, m := range sorted {
		fmt.Fprintf(&sb, "[%v]", m.RID)
		for c := 0; c < m.Tuple.Len(); c++ {
			sb.WriteByte(' ')
			sb.WriteString(referenceCell(m.Tuple.Value(c)))
		}
		sb.WriteByte('\n')
	}
	mech := "indexing scan"
	switch {
	case st.EmptyRange:
		mech = "empty range"
	case st.PartialHit:
		mech = "partial index hit"
	case st.FullScan:
		mech = "full scan"
	case st.QuotaDegraded:
		mech = "degraded scan (tenant over quota)"
	}
	fmt.Fprintf(&sb, "%d row(s) | %s: %d pages read, %d skipped, %d buffer entries added",
		len(sorted), mech, st.PagesRead, st.PagesSkipped, st.EntriesAdded)
	return sb.String()
}

// TestVarcharCellKeepsRunes: a cut VARCHAR cell ends on a rune boundary.
// Cutting the quote at 21 bytes would split the tenth 'é' and leave
// invalid UTF-8 in the output.
func TestVarcharCellKeepsRunes(t *testing.T) {
	s := newShell(t)
	mustEval(t, s, "CREATE TABLE t (a INT, b VARCHAR)")
	mustEval(t, s, "INSERT INTO t VALUES (1, 'a"+strings.Repeat("é", 20)+"')")
	r := mustEval(t, s, "SELECT * FROM t WHERE a = 1")
	if !utf8.ValidString(r.Output) {
		t.Fatalf("output is not valid UTF-8: %q", r.Output)
	}
	row, _, _ := strings.Cut(r.Output, "\n")
	want := ` "a` + strings.Repeat("é", 9) + `..."`
	if !strings.HasSuffix(row, want) {
		t.Fatalf("row = %q, want suffix %q", row, want)
	}
}

// TestRenderSelect checks a 40-row covered range SELECT through EvalCtx
// against the reference rendering, that unsorted matches render in RID
// order, and that the render step allocates at most 4 times.
func TestRenderSelect(t *testing.T) {
	s := newShell(t)
	mustEval(t, s, "CREATE TABLE t (a INT, b INT, payload VARCHAR)")
	payloads := []string{
		strings.Repeat("p", 100),
		"short",
		"tab\there, quote '' and backslash \\ " + strings.Repeat("x", 60),
		"ü" + strings.Repeat("é", 50),
		strings.Repeat("日本", 30),
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO t VALUES ")
	for i := 0; i < 60; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, '%03d %s')", i, -i*1000003, i, payloads[i%len(payloads)])
	}
	mustEval(t, s, sb.String())
	mustEval(t, s, "CREATE PARTIAL INDEX ON t (a) COVERING 0 TO 49")

	r := mustEval(t, s, "SELECT * FROM t WHERE a BETWEEN 5 AND 44")
	if r.Rows != 40 || r.Stats == nil || !r.Stats.PartialHit {
		t.Fatalf("want a 40-row covered hit, got %d rows, stats %+v", r.Rows, r.Stats)
	}
	tbl := s.eng.TableFor(nil, "t")
	matches, stats, err := tbl.QueryRangeCtx(context.Background(), 0, storage.Int64Value(5), storage.Int64Value(44))
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceSelect(matches, stats); r.Output != want {
		t.Fatalf("EvalCtx output differs from the reference:\n got %q\nwant %q", r.Output, want)
	}

	slices.Reverse(matches)
	if got := renderSelect(matches, stats); got != r.Output {
		t.Fatalf("reversed matches render differently:\n got %q\nwant %q", got, r.Output)
	}

	var out string
	allocs := testing.AllocsPerRun(100, func() { out = renderSelect(matches, stats) })
	if allocs > 4 {
		t.Fatalf("rendering 40 rows made %.1f allocations, want at most 4", allocs)
	}
	_ = out
}
