package repro

import (
	"strings"
	"testing"
)

// TestOptionsValidateSelection covers the stochastic-selection knobs:
// Selection enum membership and the DisplacementJitter range.
func TestOptionsValidateSelection(t *testing.T) {
	cases := []struct {
		name    string
		opts    Options
		wantErr string
	}{
		{"zero value", Options{}, ""},
		{"random selection", Options{Selection: SelectRandom, Seed: 42}, ""},
		{"full jitter", Options{DisplacementJitter: 1}, ""},
		{"half jitter", Options{Selection: SelectRandom, DisplacementJitter: 0.5}, ""},
		{"unknown selection", Options{Selection: SelectionPolicy(7)}, "unknown Options.Selection"},
		{"one past the last policy", Options{Selection: SelectRandom + 1}, "unknown Options.Selection"},
		{"negative selection", Options{Selection: SelectionPolicy(-1)}, "unknown Options.Selection"},
		{"negative jitter", Options{DisplacementJitter: -0.1}, "outside [0, 1]"},
		{"jitter above one", Options{DisplacementJitter: 1.5}, "outside [0, 1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Open(tc.opts)
			if err == nil {
				db.Close()
			}
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Open failed: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Open err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestSelectRandomFacadeSmoke drives a few misses through a database
// opened with the stochastic knobs: queries must work and the Index
// Buffer must still build (the policy changes page order, not
// correctness).
func TestSelectRandomFacadeSmoke(t *testing.T) {
	db := MustOpen(Options{
		Selection:          SelectRandom,
		DisplacementJitter: 0.5,
		Seed:               7,
		IMax:               4,
	})
	defer db.Close()
	tb, err := db.CreateTable("t", Int64Column("k"), StringColumn("v"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if _, err := tb.Insert(int64(i%100), "x"); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.CreatePartialRangeIndex("k", 0, 9); err != nil {
		t.Fatal(err)
	}
	for k := 10; k < 20; k++ {
		rows, _, err := tb.Query("k", int64(k))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4 {
			t.Fatalf("key %d returned %d rows, want 4", k, len(rows))
		}
	}
	stats := db.BufferStats()
	if len(stats) != 1 || stats[0].Entries == 0 {
		t.Fatalf("index buffer did not build under SelectRandom: %+v", stats)
	}
}
