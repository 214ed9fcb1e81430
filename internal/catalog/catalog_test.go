package catalog

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/index"
	"repro/internal/storage"
)

func iv(v int64) storage.Value { return storage.Int64Value(v) }

func TestValueRoundTrip(t *testing.T) {
	for _, v := range []storage.Value{iv(42), iv(-1), storage.StringValue("FRA"), storage.StringValue("")} {
		m, err := EncodeValue(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.DecodeValue()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(v) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
	if _, err := EncodeValue(storage.Value{}); err == nil {
		t.Error("invalid value should fail")
	}
	if _, err := (ValueMeta{Kind: "blob"}).DecodeValue(); err == nil {
		t.Error("unknown kind should fail")
	}
}

func TestKindRoundTrip(t *testing.T) {
	for _, k := range []storage.Kind{storage.KindInt64, storage.KindString} {
		s, err := EncodeKind(k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeKind(s)
		if err != nil {
			t.Fatal(err)
		}
		if got != k {
			t.Errorf("round trip %v -> %v", k, got)
		}
	}
	if _, err := EncodeKind(storage.KindInvalid); err == nil {
		t.Error("invalid kind should fail")
	}
	if _, err := DecodeKind("blob"); err == nil {
		t.Error("unknown kind name should fail")
	}
}

func TestCoverageRoundTrip(t *testing.T) {
	covs := []index.Coverage{
		index.IntRange(1, 5000),
		index.RangeCoverage{Lo: storage.StringValue("A"), Hi: storage.StringValue("M")},
		index.NewSetCoverage(iv(1), iv(7), storage.StringValue("ORD")),
		index.UnionCoverage{index.IntRange(1, 10), index.IntRange(50, 60)},
		index.NoneCoverage{},
	}
	probes := []storage.Value{
		iv(0), iv(1), iv(7), iv(55), iv(4999), iv(5001),
		storage.StringValue("ORD"), storage.StringValue("B"), storage.StringValue("Z"),
	}
	for _, cov := range covs {
		m, err := EncodeCoverage(cov)
		if err != nil {
			t.Fatalf("%T: %v", cov, err)
		}
		got, err := m.DecodeCoverage()
		if err != nil {
			t.Fatalf("%T: %v", cov, err)
		}
		for _, p := range probes {
			if got.Covers(p) != cov.Covers(p) {
				t.Errorf("%T: Covers(%v) differs after round trip", cov, p)
			}
		}
	}
	// Custom coverage types cannot be persisted.
	if _, err := EncodeCoverage(customCov{}); err == nil {
		t.Error("custom coverage should fail")
	}
	if _, err := (CoverageMeta{Type: "blob"}).DecodeCoverage(); err == nil {
		t.Error("unknown coverage type should fail")
	}
	if _, err := (CoverageMeta{Type: "range"}).DecodeCoverage(); err == nil {
		t.Error("range without bounds should fail")
	}
}

type customCov struct{}

func (customCov) Covers(storage.Value) bool { return false }
func (customCov) String() string            { return "custom" }

func TestSaveLoad(t *testing.T) {
	dir := t.TempDir()
	rangeCov, _ := EncodeCoverage(index.IntRange(1, 100))
	cat := Catalog{Tables: []TableMeta{{
		Name:     "flights",
		Columns:  []ColumnMeta{{Name: "a", Kind: "int64"}, {Name: "p", Kind: "string"}},
		NumPages: 7,
		Indexes:  []IndexMeta{{Column: 0, Coverage: rangeCov}},
	}}}
	if err := Save(dir, cat); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tables) != 1 || got.Tables[0].Name != "flights" || got.Tables[0].NumPages != 7 {
		t.Errorf("loaded = %+v", got)
	}
	if got.FormatVersion != 1 {
		t.Errorf("version = %d", got.FormatVersion)
	}
	// No temp file left behind.
	if _, err := os.Stat(filepath.Join(dir, FileName+".tmp")); !os.IsNotExist(err) {
		t.Error("temp file left behind")
	}
}

func TestLoadErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(dir); err == nil {
		t.Error("missing catalog should fail")
	}
	if err := os.WriteFile(filepath.Join(dir, FileName), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Error("corrupt catalog should fail")
	}
	if err := os.WriteFile(filepath.Join(dir, FileName), []byte(`{"format_version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Error("future format version should fail")
	}
}

func TestCheckpointLSNRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := Catalog{
		Tables:        []TableMeta{{Name: "t", Columns: []ColumnMeta{{Name: "id", Kind: "int64"}}}},
		CheckpointLSN: 1234,
	}
	if err := Save(dir, c); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.CheckpointLSN != 1234 {
		t.Fatalf("CheckpointLSN = %d, want 1234", got.CheckpointLSN)
	}
}

// TestSaveFailureKeepsOldCatalog injects a write fault (the tmp path is
// occupied by a directory, so the create fails) and asserts the
// previous catalog survives untouched and no tmp file is left behind.
func TestSaveFailureKeepsOldCatalog(t *testing.T) {
	dir := t.TempDir()
	old := Catalog{Tables: []TableMeta{{Name: "old"}}, CheckpointLSN: 7}
	if err := Save(dir, old); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, FileName+".tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Save(dir, Catalog{Tables: []TableMeta{{Name: "new"}}}); err == nil {
		t.Fatal("Save over an unwritable tmp path should fail")
	}
	os.Remove(tmp)
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tables) != 1 || got.Tables[0].Name != "old" || got.CheckpointLSN != 7 {
		t.Fatalf("old catalog damaged by failed save: %+v", got)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("tmp file left behind after failed save: %v", err)
	}
}

// TestSaveLeavesNoTmp asserts the durable save path cleans up its
// intermediate file.
func TestSaveLeavesNoTmp(t *testing.T) {
	dir := t.TempDir()
	if err := Save(dir, Catalog{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, FileName+".tmp")); !os.IsNotExist(err) {
		t.Errorf("tmp file present after successful save: %v", err)
	}
}
