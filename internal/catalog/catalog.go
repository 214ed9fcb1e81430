// Package catalog serializes an engine's metadata — tables, schemas,
// page counts, and partial index definitions — to JSON, so a file-backed
// database can be closed and reopened. Only *definitions* are persisted:
// partial indexes are rebuilt by a scan at load time, and Index Buffers
// are deliberately not persisted at all — they are volatile scratch-pad
// structures "without need for recovery" (paper §III), recreated empty
// with fresh counters.
package catalog

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/index"
	"repro/internal/storage"
)

// FileName is the catalog's name inside a database directory.
const FileName = "catalog.json"

// Catalog is the persisted database metadata.
type Catalog struct {
	FormatVersion int         `json:"format_version"`
	Tables        []TableMeta `json:"tables"`

	// CheckpointLSN is the WAL position this catalog is consistent with:
	// every logged change at or below it has reached the page files, so
	// recovery redoes only records above it. Zero — a catalog written
	// before any record was logged, or by a version without a WAL —
	// replays the whole log if one exists.
	CheckpointLSN uint64 `json:"checkpoint_lsn,omitempty"`
}

// TableMeta describes one table.
type TableMeta struct {
	Name string `json:"name"`
	// Tenant names the owning tenant; empty is the default tenant (and
	// every table of a catalog written before tenants were recorded).
	Tenant   string       `json:"tenant,omitempty"`
	Columns  []ColumnMeta `json:"columns"`
	NumPages int          `json:"num_pages"`
	Indexes  []IndexMeta  `json:"indexes"`
}

// ColumnMeta describes one column.
type ColumnMeta struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "int64" or "string"
}

// IndexMeta describes one partial index definition.
type IndexMeta struct {
	Column   int          `json:"column"`
	Coverage CoverageMeta `json:"coverage"`
}

// CoverageMeta is the serialized form of an index.Coverage.
type CoverageMeta struct {
	Type   string         `json:"type"` // "range", "set", "union", "none"
	Lo     *ValueMeta     `json:"lo,omitempty"`
	Hi     *ValueMeta     `json:"hi,omitempty"`
	Values []ValueMeta    `json:"values,omitempty"`
	Ranges []CoverageMeta `json:"ranges,omitempty"`
}

// ValueMeta is the serialized form of a storage.Value.
type ValueMeta struct {
	Kind string `json:"kind"`
	Int  int64  `json:"int,omitempty"`
	Str  string `json:"str,omitempty"`
}

// EncodeValue converts a storage value to its serialized form.
func EncodeValue(v storage.Value) (ValueMeta, error) {
	switch v.Kind() {
	case storage.KindInt64:
		return ValueMeta{Kind: "int64", Int: v.Int64()}, nil
	case storage.KindString:
		return ValueMeta{Kind: "string", Str: v.Str()}, nil
	default:
		return ValueMeta{}, fmt.Errorf("catalog: cannot encode value of kind %v", v.Kind())
	}
}

// DecodeValue restores a storage value.
func (m ValueMeta) DecodeValue() (storage.Value, error) {
	switch m.Kind {
	case "int64":
		return storage.Int64Value(m.Int), nil
	case "string":
		return storage.StringValue(m.Str), nil
	default:
		return storage.Value{}, fmt.Errorf("catalog: unknown value kind %q", m.Kind)
	}
}

// EncodeKind converts a column kind to its serialized name.
func EncodeKind(k storage.Kind) (string, error) {
	switch k {
	case storage.KindInt64:
		return "int64", nil
	case storage.KindString:
		return "string", nil
	default:
		return "", fmt.Errorf("catalog: cannot encode kind %v", k)
	}
}

// DecodeKind restores a column kind.
func DecodeKind(s string) (storage.Kind, error) {
	switch s {
	case "int64":
		return storage.KindInt64, nil
	case "string":
		return storage.KindString, nil
	default:
		return storage.KindInvalid, fmt.Errorf("catalog: unknown kind %q", s)
	}
}

// EncodeCoverage converts a coverage predicate to its serialized form.
// Unknown implementations (custom predicates) are rejected — persistable
// databases must use the library's coverage types.
func EncodeCoverage(cov index.Coverage) (CoverageMeta, error) {
	switch c := cov.(type) {
	case index.RangeCoverage:
		lo, err := EncodeValue(c.Lo)
		if err != nil {
			return CoverageMeta{}, err
		}
		hi, err := EncodeValue(c.Hi)
		if err != nil {
			return CoverageMeta{}, err
		}
		return CoverageMeta{Type: "range", Lo: &lo, Hi: &hi}, nil
	case index.SetCoverage:
		var vals []ValueMeta
		var encodeErr error
		c.ForEach(func(v storage.Value) {
			if encodeErr != nil {
				return
			}
			vm, err := EncodeValue(v)
			if err != nil {
				encodeErr = err
				return
			}
			vals = append(vals, vm)
		})
		if encodeErr != nil {
			return CoverageMeta{}, encodeErr
		}
		return CoverageMeta{Type: "set", Values: vals}, nil
	case index.UnionCoverage:
		var ranges []CoverageMeta
		for _, r := range c {
			rm, err := EncodeCoverage(r)
			if err != nil {
				return CoverageMeta{}, err
			}
			ranges = append(ranges, rm)
		}
		return CoverageMeta{Type: "union", Ranges: ranges}, nil
	case index.NoneCoverage:
		return CoverageMeta{Type: "none"}, nil
	default:
		return CoverageMeta{}, fmt.Errorf("catalog: cannot persist coverage type %T", cov)
	}
}

// DecodeCoverage restores a coverage predicate.
func (m CoverageMeta) DecodeCoverage() (index.Coverage, error) {
	switch m.Type {
	case "range":
		if m.Lo == nil || m.Hi == nil {
			return nil, fmt.Errorf("catalog: range coverage missing bounds")
		}
		lo, err := m.Lo.DecodeValue()
		if err != nil {
			return nil, err
		}
		hi, err := m.Hi.DecodeValue()
		if err != nil {
			return nil, err
		}
		return index.RangeCoverage{Lo: lo, Hi: hi}, nil
	case "set":
		vals := make([]storage.Value, len(m.Values))
		for i, vm := range m.Values {
			v, err := vm.DecodeValue()
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		return index.NewSetCoverage(vals...), nil
	case "union":
		var u index.UnionCoverage
		for _, rm := range m.Ranges {
			c, err := rm.DecodeCoverage()
			if err != nil {
				return nil, err
			}
			r, ok := c.(index.RangeCoverage)
			if !ok {
				return nil, fmt.Errorf("catalog: union member is %T, want range", c)
			}
			u = append(u, r)
		}
		return u, nil
	case "none":
		return index.NoneCoverage{}, nil
	default:
		return nil, fmt.Errorf("catalog: unknown coverage type %q", m.Type)
	}
}

// Save writes the catalog to dir atomically and durably: the temp file
// is fsynced before the rename and the directory is fsynced after, so a
// crash at any point surfaces either the complete old catalog or the
// complete new one — never an empty or torn file. (A rename alone
// reorders freely against the data blocks it points at; without the
// fsyncs a crash right after the rename could surface a zero-length
// catalog.)
func Save(dir string, c Catalog) error {
	c.FormatVersion = 1
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("catalog: marshal: %w", err)
	}
	tmp := filepath.Join(dir, FileName+".tmp")
	if err := WriteFileSync(tmp, data); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("catalog: write: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, FileName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("catalog: rename: %w", err)
	}
	if err := SyncDir(dir); err != nil {
		return fmt.Errorf("catalog: sync dir: %w", err)
	}
	return nil
}

// WriteFileSync writes data to path and fsyncs it before closing.
func WriteFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// SyncDir fsyncs a directory so a just-completed rename, creation or
// removal inside it is durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Load reads the catalog from dir.
func Load(dir string) (Catalog, error) {
	data, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		return Catalog{}, fmt.Errorf("catalog: read: %w", err)
	}
	var c Catalog
	if err := json.Unmarshal(data, &c); err != nil {
		return Catalog{}, fmt.Errorf("catalog: parse: %w", err)
	}
	if c.FormatVersion != 1 {
		return Catalog{}, fmt.Errorf("catalog: unsupported format version %d", c.FormatVersion)
	}
	return c, nil
}
