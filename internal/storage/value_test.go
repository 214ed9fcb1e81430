package storage

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	t.Parallel()
	if got := KindInt64.String(); got != "INTEGER" {
		t.Errorf("KindInt64.String() = %q, want INTEGER", got)
	}
	if got := KindString.String(); got != "VARCHAR" {
		t.Errorf("KindString.String() = %q, want VARCHAR", got)
	}
	if got := KindInvalid.String(); !strings.Contains(got, "INVALID") {
		t.Errorf("KindInvalid.String() = %q, want INVALID(...)", got)
	}
}

func TestValueAccessors(t *testing.T) {
	t.Parallel()
	v := Int64Value(42)
	if v.Kind() != KindInt64 || v.Int64() != 42 {
		t.Errorf("Int64Value(42) = kind %v value %d", v.Kind(), v.Int64())
	}
	s := StringValue("ORD")
	if s.Kind() != KindString || s.Str() != "ORD" {
		t.Errorf("StringValue(ORD) = kind %v value %q", s.Kind(), s.Str())
	}
	var zero Value
	if zero.IsValid() {
		t.Error("zero Value should be invalid")
	}
	if !v.IsValid() || !s.IsValid() {
		t.Error("constructed values should be valid")
	}
}

func TestValueAccessorPanics(t *testing.T) {
	t.Parallel()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("Int64 on string", func() { StringValue("x").Int64() })
	mustPanic("Str on int", func() { Int64Value(1).Str() })
	mustPanic("encode invalid", func() { (Value{}).AppendEncode(nil) })
}

func TestValueCompare(t *testing.T) {
	t.Parallel()
	cases := []struct {
		a, b Value
		want int
	}{
		{Int64Value(1), Int64Value(2), -1},
		{Int64Value(2), Int64Value(1), 1},
		{Int64Value(7), Int64Value(7), 0},
		{Int64Value(math.MinInt64), Int64Value(math.MaxInt64), -1},
		{StringValue("a"), StringValue("b"), -1},
		{StringValue("b"), StringValue("a"), 1},
		{StringValue("FRA"), StringValue("FRA"), 0},
		{Int64Value(0), StringValue(""), -1}, // cross-kind orders by kind
		{StringValue(""), Int64Value(0), 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := c.a.Equal(c.b); got != (c.want == 0) {
			t.Errorf("Equal(%v, %v) = %v, want %v", c.a, c.b, got, c.want == 0)
		}
	}
}

func TestValueString(t *testing.T) {
	t.Parallel()
	if got := Int64Value(-3).String(); got != "-3" {
		t.Errorf("Int64Value(-3).String() = %q", got)
	}
	if got := StringValue("a\"b").String(); got != `"a\"b"` {
		t.Errorf("StringValue.String() = %q", got)
	}
	if got := (Value{}).String(); got != "<invalid>" {
		t.Errorf("invalid Value String() = %q", got)
	}
}

func TestValueEncodeDecodeRoundTrip(t *testing.T) {
	t.Parallel()
	vals := []Value{
		Int64Value(0), Int64Value(-1), Int64Value(math.MaxInt64), Int64Value(math.MinInt64),
		StringValue(""), StringValue("FRA"), StringValue(strings.Repeat("x", 512)),
	}
	for _, v := range vals {
		buf := v.AppendEncode(nil)
		if len(buf) != v.EncodedSize() {
			t.Errorf("%v: encoded %d bytes, EncodedSize says %d", v, len(buf), v.EncodedSize())
		}
		got, n, err := decodeValue(v.Kind(), buf)
		if err != nil {
			t.Fatalf("decodeValue(%v): %v", v, err)
		}
		if n != len(buf) {
			t.Errorf("%v: decode consumed %d of %d bytes", v, n, len(buf))
		}
		if !got.Equal(v) {
			t.Errorf("round trip: got %v, want %v", got, v)
		}
	}
}

func TestValueDecodeErrors(t *testing.T) {
	t.Parallel()
	if _, _, err := decodeValue(KindInt64, []byte{1, 2, 3}); err == nil {
		t.Error("short INTEGER decode should fail")
	}
	if _, _, err := decodeValue(KindString, []byte{9}); err == nil {
		t.Error("short VARCHAR length decode should fail")
	}
	// Length prefix claims 5 bytes but only 2 follow.
	if _, _, err := decodeValue(KindString, []byte{5, 0, 'a', 'b'}); err == nil {
		t.Error("short VARCHAR body decode should fail")
	}
	if _, _, err := decodeValue(KindInvalid, []byte{0}); err == nil {
		t.Error("invalid kind decode should fail")
	}
}

func TestValueCompareProperties(t *testing.T) {
	t.Parallel()
	// Antisymmetry and consistency with Equal over random int pairs.
	f := func(a, b int64) bool {
		va, vb := Int64Value(a), Int64Value(b)
		return va.Compare(vb) == -vb.Compare(va) &&
			(va.Compare(vb) == 0) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Round trip over random strings.
	g := func(s string) bool {
		if len(s) > maxStringLen {
			s = s[:maxStringLen]
		}
		v := StringValue(s)
		got, _, err := decodeValue(KindString, v.AppendEncode(nil))
		return err == nil && got.Equal(v)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

// TestValueBetween holds Between to its definition in Compare, across
// integers, strings and mixed kinds.
func TestValueBetween(t *testing.T) {
	vals := []Value{{}, Int64Value(math.MinInt64), Int64Value(-1), Int64Value(0), Int64Value(3), Int64Value(math.MaxInt64),
		StringValue(""), StringValue("a"), StringValue("b")}
	for _, v := range vals {
		for _, lo := range vals {
			for _, hi := range vals {
				want := v.Compare(lo) >= 0 && v.Compare(hi) <= 0
				if got := v.Between(lo, hi); got != want {
					t.Errorf("%v.Between(%v, %v) = %v, want %v", v, lo, hi, got, want)
				}
			}
		}
	}
}
