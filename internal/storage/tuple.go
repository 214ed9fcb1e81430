package storage

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
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

// Compare is Less as a three-way comparison (-1, 0, +1), for
// slices.SortFunc and friends.
func (r RID) Compare(o RID) int {
	switch {
	case r.Less(o):
		return -1
	case o.Less(r):
		return 1
	}
	return 0
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
// slotted pages store one tuple per slot. It is a RowSlab of one row.
func DecodeTuple(s *Schema, buf []byte) (Tuple, error) {
	b := NewRowSlab(s, 1)
	err := b.Decode(buf)
	b.Finish()
	if err != nil {
		return Tuple{}, err
	}
	return b.Tuple(0), nil
}

// RowSlab decodes the tuples of one read into one []Value, sized exactly
// for the rows it was made for. The VARCHAR values of all its tuples
// become substrings of one string, so a read of n rows allocates twice
// (once with no VARCHAR column) however large n is; a retained tuple
// keeps the whole read's slab and string alive. A slab of one row
// converts each VARCHAR on its own, as DecodeTuple always did, which
// with one VARCHAR column is the same two allocations without the
// scratch buffer. Decode the rows, call Finish, then read them with
// Tuple.
type RowSlab struct {
	schema *Schema
	vals   []Value
	rows   int // rows decoded
	// strs holds the VARCHAR bytes decoded so far, in a pooled scratch
	// buffer taken at the first VARCHAR. Until Finish, a VARCHAR value
	// in vals carries its offset into strs << 16 | its length in i.
	strs *[]byte
}

// strScratch recycles RowSlab's VARCHAR scratch buffers; a buffer grown
// past maxPooledScratch is left to the collector.
var strScratch = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

const maxPooledScratch = 64 << 10

// NewRowSlab returns a slab for up to rows tuples of schema s.
func NewRowSlab(s *Schema, rows int) RowSlab {
	return RowSlab{schema: s, vals: make([]Value, rows*s.NumColumns())}
}

// Decode parses one tuple from buf into the next row, with DecodeTuple's
// checks and errors. A row that fails to decode is not kept.
func (b *RowSlab) Decode(buf []byte) error {
	c := b.schema.NumColumns()
	row := b.vals[b.rows*c : (b.rows+1)*c]
	off := 0
	for i := range row {
		kind := b.schema.kinds[i]
		n, ok := valueLen(kind, buf[off:])
		if !ok {
			return columnError(b.schema, i, framingError(kind, buf[off:]))
		}
		switch {
		case kind == KindInt64:
			row[i] = Int64Value(int64(binary.LittleEndian.Uint64(buf[off:])))
		case len(b.vals) == c: // one row: its VARCHARs need no scratch
			row[i] = StringValue(string(buf[off+2 : off+n]))
		default:
			if b.strs == nil {
				b.strs = strScratch.Get().(*[]byte)
			}
			row[i] = Value{kind: KindString, i: int64(len(*b.strs))<<16 | int64(n-2)}
			*b.strs = append(*b.strs, buf[off+2:off+n]...)
		}
		off += n
	}
	if off != len(buf) {
		return trailingError(len(buf) - off)
	}
	b.rows++
	return nil
}

// Finish makes the rows' one VARCHAR string and returns the scratch
// buffer. Call it once, after the last Decode.
func (b *RowSlab) Finish() {
	if b.strs == nil {
		return
	}
	all := string(*b.strs)
	for i := range b.vals[:b.rows*b.schema.NumColumns()] {
		if v := &b.vals[i]; v.kind == KindString {
			off, n := v.i>>16, v.i&0xffff
			v.s, v.i = all[off:off+n], 0
		}
	}
	if cap(*b.strs) <= maxPooledScratch {
		*b.strs = (*b.strs)[:0]
		strScratch.Put(b.strs)
	}
	b.strs = nil
}

// Rows returns the number of rows decoded.
func (b *RowSlab) Rows() int { return b.rows }

// Tuple returns row k, which must be below Rows, of a finished slab.
func (b *RowSlab) Tuple(k int) Tuple {
	c := b.schema.NumColumns()
	return Tuple{values: b.vals[k*c : (k+1)*c : (k+1)*c]}
}

// DecodeColumn parses only column col of a tuple of schema s from buf.
// It checks every column's framing exactly as DecodeTuple does — the same
// bounds checks, the same trailing-byte check, the same errors — so it
// fails exactly when DecodeTuple fails and otherwise returns
// DecodeTuple(s, buf).Value(col). Only col is materialised: an INTEGER
// column costs no allocation.
func DecodeColumn(s *Schema, buf []byte, col int) (Value, error) {
	if col < 0 || col >= s.NumColumns() {
		return Value{}, fmt.Errorf("storage: column %d out of range (schema has %d columns)", col, s.NumColumns())
	}
	at, err := s.frame(buf, col)
	if err != nil {
		return Value{}, err
	}
	v, _, _ := decodeValue(s.kinds[col], buf[at:])
	return v, nil
}

// DecodeInt64Column is DecodeColumn for an INTEGER column, typed: it
// fails exactly when DecodeColumn fails, with the same error, and
// otherwise returns the column's value as an int64. It is the key
// decode of a page scan, which needs the predicate column of every
// tuple but the whole tuple only of those that match. Both decoders
// check the framing with the same walk, frame.
func DecodeInt64Column(s *Schema, buf []byte, col int) (int64, error) {
	if col < 0 || col >= s.NumColumns() || s.kinds[col] != KindInt64 {
		return 0, fmt.Errorf("storage: column %d of %v is not an INTEGER column", col, s)
	}
	at, err := s.frame(buf, col)
	if err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(buf[at:])), nil
}

// frame walks buf's framing as one tuple of s, with DecodeTuple's
// bounds checks, trailing-byte check and errors, and returns the offset
// of column col, which must be in range. The leading INTEGER columns
// sit at fixed offsets, so when buf holds them all one length test
// covers them and the walk starts after them.
func (s *Schema) frame(buf []byte, col int) (at int, err error) {
	off, i := 0, 0
	if len(buf) >= s.intPrefix {
		off, i, at = s.intPrefix, s.intPrefix/8, 8*col
	}
	for ; i < len(s.kinds); i++ {
		if i == col {
			at = off
		}
		n, ok := valueLen(s.kinds[i], buf[off:])
		if !ok {
			return 0, columnError(s, i, framingError(s.kinds[i], buf[off:]))
		}
		off += n
	}
	if off != len(buf) {
		return 0, trailingError(len(buf) - off)
	}
	return at, nil
}

func columnError(s *Schema, i int, err error) error {
	return fmt.Errorf("storage: column %q: %w", s.Column(i).Name, err)
}

func trailingError(n int) error {
	return fmt.Errorf("storage: %d trailing bytes after tuple", n)
}
