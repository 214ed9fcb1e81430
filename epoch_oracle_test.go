package repro

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/engine"
)

// This file is the epoch read-path arm of the serial-oracle property
// harness (see parallel_oracle_test.go for the parallel-scan arm). The
// oracle engine runs maximally conservative — scan parallelism 1 and
// the lock-free read path disabled, so every query goes
// through the table RWMutex — while the subject engine runs with the
// fast path enabled at parallelism 1, 2 and NumCPU. Both are driven
// through the same seeded mixed stream of queries, DML, index
// redefinitions and displacement-inducing buffer pressure, and every
// observable — result sets, query stats, the per-page counter table
// C[p] — must stay bit-identical after every operation, in memory and
// on a DataDir with its write-ahead log. Any divergence is a fast-path bug: a probe served from a
// stale snapshot, a side effect applied twice or not at all, a torn
// read that validated. CI runs this under -race as the epoch stress
// step.

// newEpochHarness builds one engine of the oracle pair. disableEpoch
// selects the oracle arm; wal adds a DataDir-backed write-ahead log so
// DML commits through the group-commit path the fast path is meant to
// overlap with.
func newEpochHarness(t *testing.T, parallelism int, disableEpoch, wal bool, rows, keyDomain, covered int) *oracleHarness {
	t.Helper()
	o := Options{
		IMax:           60,
		PartitionPages: 8,
		SpaceLimit:     220, // tight: steady displacement under the stream below
		PoolPages:      48,
		Seed:           11,
	}
	if wal {
		o.DataDir = t.TempDir()
	}
	db := openTuned(t, o, false, func(c *engine.Config) {
		c.ScanParallelism = parallelism
		c.DisableEpochReadPath = disableEpoch
	})
	t.Cleanup(func() { db.Close() })
	tb, err := db.CreateTable("data", Int64Column("k"), Int64Column("v"), StringColumn("pad"))
	if err != nil {
		t.Fatal(err)
	}
	h := &oracleHarness{db: db, tb: tb}
	for i := 0; i < rows; i++ {
		rid, err := tb.Insert(int64(i%keyDomain), int64(i), fmt.Sprintf("pad-%04d-%0160d", i, i))
		if err != nil {
			t.Fatal(err)
		}
		h.rids = append(h.rids, rid)
	}
	if err := tb.CreatePartialRangeIndex("k", 0, covered-1); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestEpochSerialOracleBattery drives the locked oracle and the
// lock-free subject through the same seeded mixed stream and checks
// identity after every operation, at subject parallelism 1, 2 and
// NumCPU, in memory (wal=false) and on a DataDir (wal=true). The covered fraction is large enough
// that a healthy subject serves a meaningful share of the stream on the
// fast path — asserted at the end.
func TestEpochSerialOracleBattery(t *testing.T) {
	const (
		rows      = 400
		keyDomain = 40
		covered   = 14
		ops       = 220
	)
	levels := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		levels = append(levels, n)
	}
	for _, wal := range []bool{false, true} {
		for _, par := range levels {
			t.Run(fmt.Sprintf("wal=%v/parallelism=%d", wal, par), func(t *testing.T) {
				oracle := newEpochHarness(t, 1, true, wal, rows, keyDomain, covered)
				subject := newEpochHarness(t, par, false, wal, rows, keyDomain, covered)
				rng := rand.New(rand.NewSource(1234))
				nextRow := rows
				coveredLo, coveredHi := 0, covered-1
				for i := 0; i < ops; i++ {
					var op string
					switch c := rng.Intn(20); {
					case c < 7: // equality query on a covered key: the fast path's case
						k := int64(coveredLo + rng.Intn(coveredHi-coveredLo+1))
						op = fmt.Sprintf("op %d: covered query k=%d", i, k)
						sr, ss, se := oracle.tb.Query("k", k)
						pr, ps, pe := subject.tb.Query("k", k)
						diffQuery(t, op, sr, pr, ss, ps, se, pe)
					case c < 11: // equality query over the full domain (misses scan+displace)
						k := int64(rng.Intn(keyDomain))
						op = fmt.Sprintf("op %d: query k=%d", i, k)
						sr, ss, se := oracle.tb.Query("k", k)
						pr, ps, pe := subject.tb.Query("k", k)
						diffQuery(t, op, sr, pr, ss, ps, se, pe)
					case c < 13: // range query, sometimes covered, sometimes empty
						lo := int64(rng.Intn(keyDomain))
						hi := lo + int64(rng.Intn(keyDomain/4)) - 1
						op = fmt.Sprintf("op %d: range [%d,%d]", i, lo, hi)
						sr, ss, se := oracle.tb.QueryRange("k", lo, hi)
						pr, ps, pe := subject.tb.QueryRange("k", lo, hi)
						diffQuery(t, op, sr, pr, ss, ps, se, pe)
					case c < 16: // insert
						k := int64(rng.Intn(keyDomain))
						op = fmt.Sprintf("op %d: insert k=%d", i, k)
						sr, se := oracle.tb.Insert(k, int64(nextRow), fmt.Sprintf("pad-%04d-%0160d", nextRow, nextRow))
						pr, pe := subject.tb.Insert(k, int64(nextRow), fmt.Sprintf("pad-%04d-%0160d", nextRow, nextRow))
						nextRow++
						if se != nil || pe != nil || sr != pr {
							t.Fatalf("%s: oracle (%v, %v), subject (%v, %v)", op, sr, se, pr, pe)
						}
						oracle.rids = append(oracle.rids, sr)
						subject.rids = append(subject.rids, pr)
					case c < 17: // delete a random live row
						if len(oracle.rids) == 0 {
							continue
						}
						j := rng.Intn(len(oracle.rids))
						op = fmt.Sprintf("op %d: delete %v", i, oracle.rids[j])
						se := oracle.tb.Delete(oracle.rids[j])
						pe := subject.tb.Delete(subject.rids[j])
						if se != nil || pe != nil {
							t.Fatalf("%s: oracle %v, subject %v", op, se, pe)
						}
						oracle.rids = append(oracle.rids[:j], oracle.rids[j+1:]...)
						subject.rids = append(subject.rids[:j], subject.rids[j+1:]...)
					case c < 19: // update a random live row to a new key
						if len(oracle.rids) == 0 {
							continue
						}
						j := rng.Intn(len(oracle.rids))
						k := int64(rng.Intn(keyDomain))
						op = fmt.Sprintf("op %d: update %v k=%d", i, oracle.rids[j], k)
						sr, se := oracle.tb.Update(oracle.rids[j], k, int64(nextRow), fmt.Sprintf("pad-%04d-%0160d", nextRow, nextRow))
						pr, pe := subject.tb.Update(subject.rids[j], k, int64(nextRow), fmt.Sprintf("pad-%04d-%0160d", nextRow, nextRow))
						nextRow++
						if se != nil || pe != nil || sr != pr {
							t.Fatalf("%s: oracle (%v, %v), subject (%v, %v)", op, sr, se, pr, pe)
						}
						oracle.rids[j], subject.rids[j] = sr, pr
					default: // redefine the index: DDL republication under the fast path
						coveredLo = rng.Intn(keyDomain - covered)
						coveredHi = coveredLo + covered - 1
						op = fmt.Sprintf("op %d: redefine [%d,%d]", i, coveredLo, coveredHi)
						se := oracle.tb.RedefineRangeIndex("k", coveredLo, coveredHi)
						pe := subject.tb.RedefineRangeIndex("k", coveredLo, coveredHi)
						if se != nil || pe != nil {
							t.Fatalf("%s: oracle %v, subject %v", op, se, pe)
						}
					}
					diffCounters(t, op, oracle, subject)
				}

				// The subject actually exercised the lock-free path.
				oes, ses := oracle.db.EpochStats(), subject.db.EpochStats()
				if oes.FastHits != 0 {
					t.Errorf("oracle (fast path disabled) recorded %d fast hits", oes.FastHits)
				}
				if ses.FastHits == 0 {
					t.Error("subject recorded zero fast hits; the battery never exercised the lock-free path")
				}
			})
		}
	}
}
