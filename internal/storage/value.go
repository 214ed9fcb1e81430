// Package storage defines the primitive data model shared by every layer
// of the engine: typed values, column schemas, tuples, and record
// identifiers. It also owns the byte-level encoding of tuples so that the
// heap layer can treat tuple payloads as opaque slices.
package storage

import (
	"encoding/binary"
	"fmt"
	"strconv"
)

// Kind enumerates the value types supported by the engine. The paper's
// evaluation schema uses INTEGER key columns and a VARCHAR payload, so
// these two kinds cover the full reproduction; the enum leaves room for
// growth without changing the tuple wire format.
type Kind uint8

const (
	// KindInvalid is the zero Kind; it marks an uninitialized Value.
	KindInvalid Kind = iota
	// KindInt64 is a 64-bit signed integer.
	KindInt64
	// KindString is a variable-length UTF-8 string (VARCHAR).
	KindString
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt64:
		return "INTEGER"
	case KindString:
		return "VARCHAR"
	default:
		return fmt.Sprintf("INVALID(%d)", uint8(k))
	}
}

// Value is a single typed column value. Values are immutable and safe to
// copy; the zero Value has KindInvalid.
type Value struct {
	kind Kind
	i    int64
	s    string
}

// Int64Value returns an integer value.
func Int64Value(v int64) Value { return Value{kind: KindInt64, i: v} }

// StringValue returns a string value.
func StringValue(v string) Value { return Value{kind: KindString, s: v} }

// Kind reports the value's type.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether the value carries a type.
func (v Value) IsValid() bool { return v.kind != KindInvalid }

// Int64 returns the integer payload. It panics if the value is not an
// integer; callers are expected to have validated against the schema.
func (v Value) Int64() int64 {
	if v.kind != KindInt64 {
		panic(fmt.Sprintf("storage: Int64 called on %s value", v.kind))
	}
	return v.i
}

// Str returns the string payload. It panics if the value is not a string.
func (v Value) Str() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("storage: Str called on %s value", v.kind))
	}
	return v.s
}

// Compare orders v against o: -1 if v < o, 0 if equal, +1 if v > o.
// Values of different kinds order by kind, which gives indexes a total
// order without requiring homogeneous input (schemas enforce homogeneity
// anyway).
func (v Value) Compare(o Value) int {
	if v.kind != o.kind {
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindInt64:
		switch {
		case v.i < o.i:
			return -1
		case v.i > o.i:
			return 1
		default:
			return 0
		}
	case KindString:
		switch {
		case v.s < o.s:
			return -1
		case v.s > o.s:
			return 1
		default:
			return 0
		}
	default:
		return 0
	}
}

// Equal reports v == o under Compare semantics.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// Between reports lo <= v <= hi under Compare semantics. It is the scan
// kernel's predicate on a key that is not INTEGER; an INTEGER key is
// compared as an int64 against bounds compiled once per scan.
func (v Value) Between(lo, hi Value) bool {
	return v.Compare(lo) >= 0 && v.Compare(hi) <= 0
}

// String renders the value for logs and test failures.
func (v Value) String() string {
	switch v.kind {
	case KindInt64:
		return strconv.FormatInt(v.i, 10)
	case KindString:
		return strconv.Quote(v.s)
	default:
		return "<invalid>"
	}
}

// EncodedSize returns the number of bytes AppendEncode will add.
func (v Value) EncodedSize() int {
	switch v.kind {
	case KindInt64:
		return 8
	case KindString:
		return 2 + len(v.s)
	default:
		return 0
	}
}

// AppendEncode appends the value's wire form to buf. Integers are fixed
// 8-byte little-endian; strings are a 16-bit length prefix followed by
// the bytes. The kind itself is not encoded — the schema dictates it.
func (v Value) AppendEncode(buf []byte) []byte {
	switch v.kind {
	case KindInt64:
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], uint64(v.i))
		return append(buf, tmp[:]...)
	case KindString:
		if len(v.s) > maxStringLen {
			panic(fmt.Sprintf("storage: string value of %d bytes exceeds max %d", len(v.s), maxStringLen))
		}
		var tmp [2]byte
		binary.LittleEndian.PutUint16(tmp[:], uint16(len(v.s)))
		buf = append(buf, tmp[:]...)
		return append(buf, v.s...)
	default:
		panic("storage: encode of invalid value")
	}
}

// maxStringLen bounds string values to what a 16-bit length prefix can
// carry. The paper's payload column is VARCHAR(512), far below this.
const maxStringLen = 1<<16 - 1

// valueLen checks the framing of one encoded value of the given kind at
// the start of buf and returns its length in bytes, without
// materialising it; ok is false when buf does not hold such a value,
// and framingError says why. It is every decoder's per-column step, so
// it inlines and the error is built out of line.
func valueLen(kind Kind, buf []byte) (n int, ok bool) {
	switch {
	case kind == KindInt64:
		n = 8
	case kind == KindString && len(buf) >= 2:
		n = 2 + int(binary.LittleEndian.Uint16(buf))
	default:
		return 0, false
	}
	return n, len(buf) >= n
}

// framingError is the error for a value of kind that buf does not hold,
// as valueLen reports.
func framingError(kind Kind, buf []byte) error {
	switch kind {
	case KindInt64:
		return fmt.Errorf("storage: short buffer decoding INTEGER: have %d bytes", len(buf))
	case KindString:
		if len(buf) < 2 {
			return fmt.Errorf("storage: short buffer decoding VARCHAR length: have %d bytes", len(buf))
		}
		return fmt.Errorf("storage: short buffer decoding VARCHAR body: want %d, have %d", binary.LittleEndian.Uint16(buf), len(buf)-2)
	default:
		return fmt.Errorf("storage: cannot decode kind %v", kind)
	}
}

// decodeValue reads one value of the given kind from buf, returning the
// value and the number of bytes consumed.
func decodeValue(kind Kind, buf []byte) (Value, int, error) {
	n, ok := valueLen(kind, buf)
	if !ok {
		return Value{}, 0, framingError(kind, buf)
	}
	if kind == KindInt64 {
		return Int64Value(int64(binary.LittleEndian.Uint64(buf))), n, nil
	}
	return StringValue(string(buf[2:n])), n, nil
}
