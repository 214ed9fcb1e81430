package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// This file turns -seed into a workload's inputs: the table rows and,
// per connection, an endless statement stream. The generator keeps an
// exact model of the table next to the stream, so every statement
// carries the row count its response must report; the program under
// test sees only the statement text.

// class is the statement class latency is reported by. It is also the
// mechanism the server's response must name: a hit answers from the
// partial index, a miss runs a table scan.
type class uint8

const (
	classHit class = iota
	classMiss
	classDML
	numClasses
)

func (c class) String() string { return [...]string{"hit", "miss", "dml"}[c] }

type opKind uint8

const (
	opPoint  opKind = iota // SELECT ... WHERE col = key
	opRange                // SELECT ... WHERE col BETWEEN key AND hi
	opInsert               // INSERT of len(rows) rows
	opUpdate               // UPDATE t SET a = newKey WHERE a = key
	opDelete               // DELETE FROM t WHERE a = key
)

// row is one tuple. The id is unique per row and leads the payload, so
// a row can be recognised after recovery whatever its keys became.
type row struct {
	id   int32
	a, b int64
}

var payloadPad = strings.Repeat("x", payloadLen-9)

func (r row) payload() string { return fmt.Sprintf("%09d", r.id) + payloadPad }

func payloadID(p string) (int32, bool) {
	if len(p) < 9 {
		return 0, false
	}
	n, err := strconv.Atoi(p[:9])
	return int32(n), err == nil
}

// stmt is one generated statement with its oracle answer.
type stmt struct {
	kind     opKind
	class    class
	col      string // "a" or "b"
	key, hi  int64  // hi: range end (opRange) or new key (opUpdate)
	rows     []row  // opInsert
	text     string
	wantRows int
	flip     bool // mixed_shift: the first miss after the column flipped
}

// dataset draws the table's rows. Column b takes a's parity so that in
// dml_durable a connection owning one key residue owns whole rows.
func dataset(seed int64, n int) []row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]row, n)
	for i := range rows {
		a := rng.Int63n(keyDomain) + 1
		rows[i] = row{id: int32(i), a: a, b: sameParity(rng, a, 1, keyDomain)}
	}
	return rows
}

// sameParity draws a key uniform in [lo, hi] with k's parity.
func sameParity(rng *rand.Rand, k, lo, hi int64) int64 {
	v := lo + rng.Int63n(hi-lo+1)
	if v&1 != k&1 {
		if v < hi {
			v++
		} else {
			v--
		}
	}
	return v
}

// counts is the static oracle of the read-only workloads: rows per key,
// as prefix sums so a range is two lookups.
type counts struct{ a, b []int32 }

func newCounts(rows []row) *counts {
	c := &counts{a: make([]int32, keyDomain+2), b: make([]int32, keyDomain+2)}
	for _, r := range rows {
		c.a[r.a+1]++
		c.b[r.b+1]++
	}
	for k := 1; k < len(c.a); k++ {
		c.a[k] += c.a[k-1]
		c.b[k] += c.b[k-1]
	}
	return c
}

// between returns the number of rows with lo <= col <= hi.
func (c *counts) between(col string, lo, hi int64) int {
	p := c.a
	if col == "b" {
		p = c.b
	}
	return int(p[hi+1] - p[lo])
}

// stream is one connection's statement generator.
type stream struct {
	sp   spec
	conn int
	rng  *rand.Rand
	n    int // statements generated so far

	static *counts // read-only workloads

	// dml_durable: this connection's exact model. It owns every key a
	// with a&1 == conn, hence (by the dataset's parity rule) whole rows.
	byA    map[int64][]row
	hot    []int64
	isHot  map[int64]bool
	nextID int32

	misses int // mixed_shift: misses issued, for the column flip
}

// newStreams builds the per-connection generators of a workload. They
// share the read-only oracle; dml_durable models are per connection.
func newStreams(sp spec, seed int64, rows []row) [numConns]*stream {
	var out [numConns]*stream
	var static *counts
	if !sp.Durable {
		static = newCounts(rows)
	}
	for c := range out {
		// Sub-streams derive from the one seed by fixed offsets, the
		// repository's seeding convention.
		s := &stream{sp: sp, conn: c, static: static,
			rng: rand.New(rand.NewSource(seed + 1000*int64(c) + 7))}
		if sp.Durable {
			s.byA = make(map[int64][]row)
			for _, r := range rows {
				if int(r.a&1) == c {
					s.byA[r.a] = append(s.byA[r.a], r)
				}
			}
			s.isHot = make(map[int64]bool)
			for len(s.hot) < hotKeys {
				k := sameParity(s.rng, int64(c), 1, coveredHi)
				if !s.isHot[k] {
					s.isHot[k] = true
					s.hot = append(s.hot, k)
				}
			}
			s.nextID = int32(len(rows) + c*10_000_000)
		}
		out[c] = s
	}
	return out
}

func (s *stream) covered() int64   { return 1 + s.rng.Int63n(coveredHi) }
func (s *stream) uncovered() int64 { return coveredHi + 1 + s.rng.Int63n(keyDomain-coveredHi) }

func (s *stream) next() stmt {
	s.n++
	switch s.sp.Name {
	case "hit_point":
		return s.hit()
	case "miss_steady":
		col := "a"
		if s.rng.Intn(2) == 1 {
			col = "b"
		}
		return s.point(col, s.uncovered(), classMiss)
	case "mixed_shift":
		if s.conn == 0 {
			return s.hit()
		}
		col := "a"
		if (s.misses/shiftEvery)%2 == 1 {
			col = "b"
		}
		st := s.point(col, s.uncovered(), classMiss)
		st.flip = s.misses%shiftEvery == 0
		s.misses++
		return st
	default:
		return s.dml()
	}
}

// hit is the hit_point mix: 80 % covered points, 20 % covered ten-key
// ranges.
func (s *stream) hit() stmt {
	if s.rng.Intn(5) > 0 {
		return s.point("a", s.covered(), classHit)
	}
	k := 1 + s.rng.Int63n(coveredHi-9)
	return stmt{kind: opRange, class: classHit, col: "a", key: k, hi: k + 9,
		text:     fmt.Sprintf("SELECT * FROM t WHERE a BETWEEN %d AND %d", k, k+9),
		wantRows: s.static.between("a", k, k+9)}
}

func (s *stream) point(col string, k int64, c class) stmt {
	st := stmt{kind: opPoint, class: c, col: col, key: k,
		text: fmt.Sprintf("SELECT * FROM t WHERE %s = %d", col, k)}
	if s.static != nil {
		st.wantRows = s.static.between(col, k, k)
	} else {
		st.wantRows = len(s.byA[k])
	}
	return st
}

// coldCovered draws a covered key of this connection outside the hot
// set; with wantRow it retries (bounded) until the key has a row.
func (s *stream) coldCovered(wantRow bool) int64 {
	for try := 0; ; try++ {
		k := sameParity(s.rng, int64(s.conn), 1, coveredHi)
		if s.isHot[k] || (wantRow && try < 16 && len(s.byA[k]) == 0) {
			continue
		}
		return k
	}
}

// dml is the dml_durable mix: 40 % one-row INSERT, 10 % 20-row INSERT,
// 20 % UPDATE, 10 % DELETE, 20 % covered SELECT. Multi-row inserts and
// half the single ones land on the connection's hot keys and DELETE
// removes one hot key, so the row count levels off instead of growing
// with the window; the other single inserts are uniform over the whole
// domain, so Table I's uncovered-insert case runs too.
func (s *stream) dml() stmt {
	own := int64(s.conn)
	switch p := s.rng.Intn(10); {
	case p < 4:
		k := s.hot[s.rng.Intn(hotKeys)]
		if s.rng.Intn(2) == 0 {
			k = sameParity(s.rng, own, 1, keyDomain)
		}
		return s.insert([]int64{k})
	case p < 5:
		ks := make([]int64, 20)
		for i := range ks {
			ks[i] = s.hot[s.rng.Intn(hotKeys)]
		}
		return s.insert(ks)
	case p < 7:
		k := s.coldCovered(true)
		// The new key crosses the coverage boundary half the time.
		nk := s.coldCovered(false)
		if s.rng.Intn(2) == 0 {
			nk = sameParity(s.rng, own, coveredHi+1, keyDomain)
		}
		moved := s.byA[k]
		delete(s.byA, k)
		for _, r := range moved {
			r.a = nk
			s.byA[nk] = append(s.byA[nk], r)
		}
		return stmt{kind: opUpdate, class: classDML, col: "a", key: k, hi: nk,
			text:     fmt.Sprintf("UPDATE t SET a = %d WHERE a = %d", nk, k),
			wantRows: len(moved)}
	case p < 8:
		k := s.hot[s.rng.Intn(hotKeys)]
		n := len(s.byA[k])
		delete(s.byA, k)
		return stmt{kind: opDelete, class: classDML, col: "a", key: k,
			text: fmt.Sprintf("DELETE FROM t WHERE a = %d", k), wantRows: n}
	default:
		return s.point("a", s.coldCovered(true), classHit)
	}
}

func (s *stream) insert(keys []int64) stmt {
	st := stmt{kind: opInsert, class: classDML, col: "a", wantRows: len(keys)}
	var sb strings.Builder
	sb.WriteString("INSERT INTO t VALUES ")
	for i, k := range keys {
		r := row{id: s.nextID, a: k, b: sameParity(s.rng, k, 1, keyDomain)}
		s.nextID++
		s.byA[k] = append(s.byA[k], r)
		st.rows = append(st.rows, r)
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, '%s')", r.a, r.b, r.payload())
	}
	st.text = sb.String()
	return st
}

// userBytes is the tuple data a DML statement writes: 8 bytes per
// integer column plus the payload, per row inserted or rewritten.
func (st stmt) userBytes() int {
	switch st.kind {
	case opInsert:
		return len(st.rows) * (16 + payloadLen)
	case opUpdate:
		return st.wantRows * (16 + payloadLen)
	}
	return 0
}

// streamSHA fingerprints a seed's inputs: every table row and the first
// shaPrefix statements of each connection, generated on throwaway
// streams. Two runs that print the same value replayed the same inputs.
func streamSHA(sp spec, seed int64, rows []row) string {
	h := sha256.New()
	for _, r := range rows {
		fmt.Fprintf(h, "%d,%d,%d\n", r.id, r.a, r.b)
	}
	for c, s := range newStreams(sp, seed, rows) {
		for i := 0; i < shaPrefix; i++ {
			fmt.Fprintf(h, "%d:%s\n", c, s.next().text)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
