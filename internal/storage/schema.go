package storage

import "fmt"

// Column describes one attribute of a table.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered, immutable set of columns. Construct with
// NewSchema; the zero Schema has no columns.
type Schema struct {
	cols   []Column
	byName map[string]int
	// kinds is each column's kind, the decoders' per-tuple walk.
	kinds []Kind
	// intPrefix is the byte length of the leading run of INTEGER
	// columns. Each of those columns, and the column after them, sits
	// at a fixed offset (8 bytes per INTEGER before it), so the decoders
	// check the run's framing with one length test.
	intPrefix int
}

// NewSchema builds a schema from the given columns. Column names must be
// non-empty and unique.
func NewSchema(cols ...Column) (*Schema, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("storage: schema needs at least one column")
	}
	s := &Schema{
		cols:   append([]Column(nil), cols...),
		byName: make(map[string]int, len(cols)),
	}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("storage: column %d has empty name", i)
		}
		if c.Kind != KindInt64 && c.Kind != KindString {
			return nil, fmt.Errorf("storage: column %q has invalid kind %v", c.Name, c.Kind)
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("storage: duplicate column name %q", c.Name)
		}
		s.byName[c.Name] = i
		s.kinds = append(s.kinds, c.Kind)
		if c.Kind == KindInt64 && s.intPrefix == 8*i {
			s.intPrefix += 8
		}
	}
	return s, nil
}

// MustSchema is NewSchema for statically known-good schemas; it panics on
// error and is intended for tests and examples.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumColumns returns the number of columns.
func (s *Schema) NumColumns() int { return len(s.cols) }

// Column returns the i-th column descriptor.
func (s *Schema) Column(i int) Column { return s.cols[i] }

// ColumnIndex resolves a column name to its position, or -1 if absent.
func (s *Schema) ColumnIndex(name string) int {
	i, ok := s.byName[name]
	if !ok {
		return -1
	}
	return i
}

// Validate checks that t conforms to the schema (arity and kinds).
func (s *Schema) Validate(t Tuple) error {
	if t.Len() != len(s.cols) {
		return fmt.Errorf("storage: tuple has %d values, schema has %d columns", t.Len(), len(s.cols))
	}
	for i, c := range s.cols {
		if got := t.Value(i).Kind(); got != c.Kind {
			return fmt.Errorf("storage: column %q: tuple value is %v, schema wants %v", c.Name, got, c.Kind)
		}
	}
	return nil
}

// String renders the schema as "(name KIND, ...)".
func (s *Schema) String() string {
	out := "("
	for i, c := range s.cols {
		if i > 0 {
			out += ", "
		}
		out += c.Name + " " + c.Kind.String()
	}
	return out + ")"
}
