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

// FuzzDecodeColumn holds the key-first decoder to the full one: for any
// bytes and every column, DecodeColumn fails exactly when DecodeTuple
// fails, with the same error text, and otherwise returns the tuple's
// value of that column.
func FuzzDecodeColumn(f *testing.F) {
	s := fuzzSchema()
	addFuzzSeeds(f, s)

	f.Fuzz(func(t *testing.T, data []byte) {
		tu, terr := DecodeTuple(s, data)
		for col := 0; col < s.NumColumns(); col++ {
			v, cerr := DecodeColumn(s, data, col)
			if (terr == nil) != (cerr == nil) {
				t.Fatalf("col %d of %x: DecodeTuple err %v, DecodeColumn err %v", col, data, terr, cerr)
			}
			if terr != nil {
				if terr.Error() != cerr.Error() {
					t.Fatalf("col %d of %x: error %q, want %q", col, data, cerr, terr)
				}
				continue
			}
			if want := tu.Value(col); !reflect.DeepEqual(v, want) {
				t.Fatalf("col %d of %x: DecodeColumn = %v, want %v", col, data, v, want)
			}
		}
	})
}
