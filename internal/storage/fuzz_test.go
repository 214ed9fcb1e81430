package storage

import (
	"reflect"
	"testing"
)

func fuzzSchema() *Schema {
	return MustSchema(
		Column{Name: "a", Kind: KindInt64},
		Column{Name: "s", Kind: KindString},
		Column{Name: "b", Kind: KindInt64},
	)
}

func addFuzzSeeds(f *testing.F, s *Schema) {
	good, _ := EncodeTuple(s, NewTuple(Int64Value(42), StringValue("FRA"), Int64Value(-1)), nil)
	f.Add(good)
	f.Add(append(good, 0))    // one trailing byte
	f.Add(good[:len(good)-1]) // truncated last column
	f.Add(good[:9])           // truncated VARCHAR length
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
}

// FuzzDecodeTuple feeds arbitrary bytes to the tuple decoder; it must
// return an error or a valid tuple, never panic.
func FuzzDecodeTuple(f *testing.F) {
	s := fuzzSchema()
	addFuzzSeeds(f, s)

	f.Fuzz(func(t *testing.T, data []byte) {
		tu, err := DecodeTuple(s, data)
		if err != nil {
			return
		}
		// A successful decode must round-trip to the same bytes.
		out, err := EncodeTuple(s, tu, nil)
		if err != nil {
			t.Fatalf("re-encode of decoded tuple failed: %v", err)
		}
		if string(out) != string(data) {
			t.Fatalf("round trip mismatch: %x -> %x", data, out)
		}
	})
}

// columnSchemas are the layouts FuzzDecodeColumn holds the column
// decoders to: one INTEGER before the first VARCHAR, two (the
// benchmark's t(a, b, payload)), INTEGERs only, and a VARCHAR first,
// which has no fixed-offset prefix at all.
func columnSchemas() []*Schema {
	return []*Schema{
		fuzzSchema(),
		MustSchema(Column{Name: "a", Kind: KindInt64}, Column{Name: "b", Kind: KindInt64}, Column{Name: "p", Kind: KindString}),
		MustSchema(Column{Name: "a", Kind: KindInt64}, Column{Name: "b", Kind: KindInt64}),
		MustSchema(Column{Name: "s", Kind: KindString}, Column{Name: "a", Kind: KindInt64}),
	}
}

// FuzzDecodeColumn holds the key-first decoders to the full one: for any
// bytes, every schema of columnSchemas and every column, DecodeColumn
// fails exactly when DecodeTuple fails, with the same error text, and
// otherwise returns the tuple's value of that column; on an INTEGER
// column DecodeInt64Column does the same with the value as an int64.
func FuzzDecodeColumn(f *testing.F) {
	addFuzzSeeds(f, fuzzSchema())
	// The fixed-offset prefix of t(a, b, payload): a buffer one byte
	// short of it, exactly it, and one byte into the VARCHAR length.
	two, _ := EncodeTuple(columnSchemas()[1], NewTuple(Int64Value(7), Int64Value(-7), StringValue("pad")), nil)
	f.Add(two)
	f.Add(two[:15])
	f.Add(two[:16])
	f.Add(two[:17])
	f.Add(append(two, 1, 2))
	f.Add(make([]byte, 16))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, s := range columnSchemas() {
			tu, terr := DecodeTuple(s, data)
			for col := 0; col < s.NumColumns(); col++ {
				v, cerr := DecodeColumn(s, data, col)
				checkSameDecode(t, s, data, col, "DecodeColumn", terr, cerr)
				if terr == nil && !reflect.DeepEqual(v, tu.Value(col)) {
					t.Fatalf("%v col %d of %x: DecodeColumn = %v, want %v", s, col, data, v, tu.Value(col))
				}
				if s.Column(col).Kind != KindInt64 {
					continue
				}
				k, ierr := DecodeInt64Column(s, data, col)
				checkSameDecode(t, s, data, col, "DecodeInt64Column", terr, ierr)
				if terr == nil && k != tu.Value(col).Int64() {
					t.Fatalf("%v col %d of %x: DecodeInt64Column = %d, want %v", s, col, data, k, tu.Value(col))
				}
			}
		}
	})
}

// checkSameDecode fails t unless a column decoder's error matches
// DecodeTuple's: both nil, or both with the same text.
func checkSameDecode(t *testing.T, s *Schema, data []byte, col int, name string, terr, err error) {
	t.Helper()
	if (terr == nil) != (err == nil) || (terr != nil && terr.Error() != err.Error()) {
		t.Fatalf("%v col %d of %x: DecodeTuple err %v, %s err %v", s, col, data, terr, name, err)
	}
}
