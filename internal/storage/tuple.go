package storage

import (
	"fmt"
	"strings"
)

// PageID identifies a page within a table's heap file. Page numbering is
// dense and starts at 0.
type PageID uint32

// InvalidPageID marks "no page".
const InvalidPageID = PageID(^uint32(0))

// RID is a record identifier: the physical address of a tuple. The Index
// Buffer stores RIDs as postings, and page counters are keyed by
// RID.Page.
type RID struct {
	Page PageID
	Slot uint16
}

// InvalidRID is the zero-meaningful sentinel RID.
var InvalidRID = RID{Page: InvalidPageID, Slot: ^uint16(0)}

// IsValid reports whether the RID addresses a real slot.
func (r RID) IsValid() bool { return r.Page != InvalidPageID }

// String renders the RID as "page:slot".
func (r RID) String() string {
	if !r.IsValid() {
		return "<invalid-rid>"
	}
	return fmt.Sprintf("%d:%d", r.Page, r.Slot)
}

// Less orders RIDs by page then slot; posting lists keep this order so
// scans touch pages sequentially.
func (r RID) Less(o RID) bool {
	if r.Page != o.Page {
		return r.Page < o.Page
	}
	return r.Slot < o.Slot
}

// Tuple is an ordered list of values conforming to some schema. Tuples
// are immutable once constructed.
type Tuple struct {
	values []Value
}

// NewTuple builds a tuple from the given values.
func NewTuple(values ...Value) Tuple {
	return Tuple{values: append([]Value(nil), values...)}
}

// Len returns the number of values.
func (t Tuple) Len() int { return len(t.values) }

// Value returns the i-th value.
func (t Tuple) Value(i int) Value { return t.values[i] }

// WithValue returns a copy of t with column i replaced by v.
func (t Tuple) WithValue(i int, v Value) Tuple {
	vals := append([]Value(nil), t.values...)
	vals[i] = v
	return Tuple{values: vals}
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t.values {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// EncodedSize returns the number of bytes EncodeTuple will produce for t
// under schema s.
func EncodedSize(s *Schema, t Tuple) int {
	n := 0
	for i := 0; i < t.Len(); i++ {
		n += t.Value(i).EncodedSize()
	}
	_ = s
	return n
}

// EncodeTuple appends the wire form of t to buf. The layout is the
// concatenation of each value's encoding in schema order; the schema is
// required to decode.
func EncodeTuple(s *Schema, t Tuple, buf []byte) ([]byte, error) {
	if err := s.Validate(t); err != nil {
		return nil, err
	}
	for i := 0; i < t.Len(); i++ {
		buf = t.Value(i).AppendEncode(buf)
	}
	return buf, nil
}

// DecodeTuple parses a tuple of schema s from buf. The buffer must
// contain exactly one tuple (trailing bytes are an error), matching how
// slotted pages store one tuple per slot.
func DecodeTuple(s *Schema, buf []byte) (Tuple, error) {
	values := make([]Value, s.NumColumns())
	off := 0
	for i := 0; i < s.NumColumns(); i++ {
		v, n, err := decodeValue(s.Column(i).Kind, buf[off:])
		if err != nil {
			return Tuple{}, columnError(s, i, err)
		}
		values[i] = v
		off += n
	}
	if off != len(buf) {
		return Tuple{}, trailingError(len(buf) - off)
	}
	return Tuple{values: values}, nil
}

// DecodeColumn parses only column col of a tuple of schema s from buf.
// It checks every column's framing exactly as DecodeTuple does — the same
// bounds checks, the same trailing-byte check, the same errors — so it
// fails exactly when DecodeTuple fails and otherwise returns
// DecodeTuple(s, buf).Value(col). Only col is materialised: an INTEGER
// column costs no allocation. This is the key-first half of a page scan,
// which needs the predicate column of every tuple but the whole tuple
// only of those that match.
func DecodeColumn(s *Schema, buf []byte, col int) (Value, error) {
	if col < 0 || col >= s.NumColumns() {
		return Value{}, fmt.Errorf("storage: column %d out of range (schema has %d columns)", col, s.NumColumns())
	}
	var v Value
	off := 0
	for i := 0; i < s.NumColumns(); i++ {
		var n int
		var err error
		if i == col {
			v, n, err = decodeValue(s.Column(i).Kind, buf[off:])
		} else {
			n, err = valueLen(s.Column(i).Kind, buf[off:])
		}
		if err != nil {
			return Value{}, columnError(s, i, err)
		}
		off += n
	}
	if off != len(buf) {
		return Value{}, trailingError(len(buf) - off)
	}
	return v, nil
}

func columnError(s *Schema, i int, err error) error {
	return fmt.Errorf("storage: column %q: %w", s.Column(i).Name, err)
}

func trailingError(n int) error {
	return fmt.Errorf("storage: %d trailing bytes after tuple", n)
}
