package catalog

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/index"
	"repro/internal/storage"
)

// FuzzCatalogLoad feeds arbitrary bytes to Load as catalog.json. Load
// must never panic; every kind, value and coverage it accepts must
// decode to something that encodes and decodes back to the same thing;
// and an accepted catalog must Save and Load again unchanged.
func FuzzCatalogLoad(f *testing.F) {
	dir := f.TempDir()
	cov := func(c index.Coverage) CoverageMeta {
		m, err := EncodeCoverage(c)
		if err != nil {
			f.Fatal(err)
		}
		return m
	}
	err := Save(dir, Catalog{CheckpointLSN: 7, Tables: []TableMeta{{
		Name:     "acme:flights",
		Tenant:   "acme",
		Columns:  []ColumnMeta{{Name: "a", Kind: "int64"}, {Name: "dest", Kind: "string"}},
		NumPages: 3,
		Indexes: []IndexMeta{
			{Column: 0, Coverage: cov(index.IntRange(1, 50))},
			{Column: 1, Coverage: cov(index.NewSetCoverage(storage.StringValue("FRA"), storage.StringValue("")))},
			{Column: 0, Coverage: cov(index.UnionCoverage{index.IntRange(1, 2), index.IntRange(8, 9)})},
		},
	}}})
	if err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"format_version":1}`))
	f.Add([]byte(`{"format_version":1,"tables":[{"indexes":[{"coverage":{"type":"union","ranges":[{"type":"set","values":[]}]}}]}]}`))
	f.Add([]byte(`{"format_version":1,"tables":[{"columns":[{"kind":"blob"}],"indexes":[{"coverage":{"type":"range","lo":{"kind":"int64","str":"x"}}}]}]}`))
	f.Add([]byte(`{"format_version":2,"tables":null}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		in := t.TempDir()
		if err := os.WriteFile(filepath.Join(in, FileName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Load(in)
		if err != nil {
			return
		}
		for _, tm := range c.Tables {
			for _, cm := range tm.Columns {
				k, err := DecodeKind(cm.Kind)
				if err != nil {
					continue
				}
				if s, err := EncodeKind(k); err != nil || s != cm.Kind {
					t.Fatalf("kind %q decodes to %v, which encodes to %q, %v", cm.Kind, k, s, err)
				}
			}
			for _, im := range tm.Indexes {
				checkCoverageRoundTrip(t, im.Coverage)
			}
		}

		out := t.TempDir()
		if err := Save(out, c); err != nil {
			t.Fatalf("accepted catalog does not save: %v", err)
		}
		saved, err := os.ReadFile(filepath.Join(out, FileName))
		if err != nil {
			t.Fatal(err)
		}
		again, err := Load(out)
		if err != nil {
			t.Fatalf("saved catalog does not load: %v", err)
		}
		if err := Save(out, again); err != nil {
			t.Fatal(err)
		}
		resaved, err := os.ReadFile(filepath.Join(out, FileName))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved, resaved) {
			t.Fatalf("catalog changed across Save and Load:\n%s\n%s", saved, resaved)
		}
	})
}

// checkCoverageRoundTrip requires a decodable coverage — and every value
// inside it — to encode and decode back to the same predicate.
func checkCoverageRoundTrip(t *testing.T, m CoverageMeta) {
	t.Helper()
	for _, vm := range m.Values {
		v, err := vm.DecodeValue()
		if err != nil {
			continue
		}
		enc, err := EncodeValue(v)
		if err != nil {
			t.Fatalf("decoded value %v does not encode: %v", v, err)
		}
		if got, err := enc.DecodeValue(); err != nil || !got.Equal(v) {
			t.Fatalf("value %v round-trips to %v, %v", v, got, err)
		}
	}
	cov, err := m.DecodeCoverage()
	if err != nil {
		return
	}
	enc, err := EncodeCoverage(cov)
	if err != nil {
		t.Fatalf("decoded coverage %v does not encode: %v", cov, err)
	}
	got, err := enc.DecodeCoverage()
	if err != nil || !sameCoverage(cov, got) {
		t.Fatalf("coverage %v round-trips to %v, %v", cov, got, err)
	}
}

// sameCoverage compares two coverage predicates; a set is compared as a
// set because its encoding lists the values in no particular order.
func sameCoverage(a, b index.Coverage) bool {
	as, ok := a.(index.SetCoverage)
	if !ok {
		return reflect.DeepEqual(a, b)
	}
	bs, ok := b.(index.SetCoverage)
	if !ok || as.Len() != bs.Len() {
		return false
	}
	same := true
	as.ForEach(func(v storage.Value) { same = same && bs.Covers(v) })
	return same
}
