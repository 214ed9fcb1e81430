package storage

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestRIDBasics(t *testing.T) {
	t.Parallel()
	r := RID{Page: 3, Slot: 7}
	if !r.IsValid() {
		t.Error("real RID should be valid")
	}
	if r.String() != "3:7" {
		t.Errorf("String() = %q", r.String())
	}
	if InvalidRID.IsValid() {
		t.Error("InvalidRID should be invalid")
	}
	if got := InvalidRID.String(); got != "<invalid-rid>" {
		t.Errorf("InvalidRID.String() = %q", got)
	}
}

func TestRIDLess(t *testing.T) {
	t.Parallel()
	cases := []struct {
		a, b RID
		want bool
	}{
		{RID{1, 0}, RID{2, 0}, true},
		{RID{2, 0}, RID{1, 9}, false},
		{RID{1, 3}, RID{1, 4}, true},
		{RID{1, 4}, RID{1, 4}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestTupleBasics(t *testing.T) {
	t.Parallel()
	tu := NewTuple(StringValue("FRA"), Int64Value(30))
	if tu.Len() != 2 {
		t.Fatalf("Len = %d", tu.Len())
	}
	if tu.Value(0).Str() != "FRA" || tu.Value(1).Int64() != 30 {
		t.Errorf("values = %v", tu)
	}
	if got := tu.String(); got != `("FRA", 30)` {
		t.Errorf("String() = %q", got)
	}
	tu2 := tu.WithValue(1, Int64Value(99))
	if tu.Value(1).Int64() != 30 {
		t.Error("WithValue mutated original")
	}
	if tu2.Value(1).Int64() != 99 {
		t.Error("WithValue did not replace")
	}
}

func TestTupleEncodeDecodeRoundTrip(t *testing.T) {
	t.Parallel()
	s := flightsSchema()
	tuples := []Tuple{
		NewTuple(StringValue("ORD"), Int64Value(0)),
		NewTuple(StringValue(""), Int64Value(-42)),
		NewTuple(StringValue(strings.Repeat("p", 512)), Int64Value(1<<40)),
	}
	for _, tu := range tuples {
		buf, err := EncodeTuple(s, tu, nil)
		if err != nil {
			t.Fatalf("EncodeTuple(%v): %v", tu, err)
		}
		if len(buf) != EncodedSize(s, tu) {
			t.Errorf("%v: encoded %d bytes, EncodedSize says %d", tu, len(buf), EncodedSize(s, tu))
		}
		got, err := DecodeTuple(s, buf)
		if err != nil {
			t.Fatalf("DecodeTuple: %v", err)
		}
		for i := 0; i < s.NumColumns(); i++ {
			if !got.Value(i).Equal(tu.Value(i)) {
				t.Errorf("column %d: got %v, want %v", i, got.Value(i), tu.Value(i))
			}
		}
	}
}

func TestTupleEncodeRejectsSchemaMismatch(t *testing.T) {
	t.Parallel()
	s := flightsSchema()
	if _, err := EncodeTuple(s, NewTuple(Int64Value(1), Int64Value(2)), nil); err == nil {
		t.Error("kind mismatch should fail")
	}
}

func TestTupleDecodeErrors(t *testing.T) {
	t.Parallel()
	s := flightsSchema()
	good, err := EncodeTuple(s, NewTuple(StringValue("ORD"), Int64Value(5)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTuple(s, good[:len(good)-1]); err == nil {
		t.Error("truncated tuple should fail")
	}
	if _, err := DecodeTuple(s, append(good, 0)); err == nil {
		t.Error("trailing bytes should fail")
	}
}

// TestDecodeInt64ColumnKinds: the typed decode reads the INTEGER column
// of flightsSchema (VARCHAR, INTEGER) and refuses its VARCHAR column and
// a column out of range.
func TestDecodeInt64ColumnKinds(t *testing.T) {
	t.Parallel()
	s := flightsSchema()
	good, err := EncodeTuple(s, NewTuple(StringValue("ORD"), Int64Value(-5)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if k, err := DecodeInt64Column(s, good, 1); err != nil || k != -5 {
		t.Errorf("DecodeInt64Column(col 1) = %d, %v; want -5", k, err)
	}
	for _, col := range []int{-1, 0, 2} {
		if _, err := DecodeInt64Column(s, good, col); err == nil {
			t.Errorf("DecodeInt64Column(col %d) of %v succeeded", col, s)
		}
	}
}

func TestTupleRoundTripProperty(t *testing.T) {
	t.Parallel()
	s := MustSchema(
		Column{Name: "a", Kind: KindInt64},
		Column{Name: "b", Kind: KindInt64},
		Column{Name: "c", Kind: KindInt64},
		Column{Name: "payload", Kind: KindString},
	)
	rng := rand.New(rand.NewSource(1))
	f := func(a, b, c int64, payload string) bool {
		if len(payload) > 512 {
			payload = payload[:512]
		}
		tu := NewTuple(Int64Value(a), Int64Value(b), Int64Value(c), StringValue(payload))
		buf, err := EncodeTuple(s, tu, nil)
		if err != nil {
			return false
		}
		got, err := DecodeTuple(s, buf)
		if err != nil {
			return false
		}
		for i := 0; i < 4; i++ {
			if !got.Value(i).Equal(tu.Value(i)) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
