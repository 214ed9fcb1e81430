package shell

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/flight"
	"repro/internal/index"
	"repro/internal/storage"
	"repro/internal/timeline"
)

// Aliases keep the rendering helpers readable.
type (
	engineMatch       = exec.Match
	engineStats       = exec.QueryStats
	engineConvergence = timeline.Convergence
)

// Shell evaluates commands against one engine, optionally scoped to one
// tenant: a tenant shell sees only the tenant's tables and buffers, and
// its tables charge the tenant's Index-Buffer quota. A Shell holds no
// mutable state — isolation comes entirely from the engine — so
// concurrent EvalCtx calls on one Shell are safe; the statements race
// exactly as the underlying engine operations would.
type Shell struct {
	eng    *engine.Engine
	tenant *core.Tenant // nil = default tenant
}

// New creates a shell over the engine, scoped to the default tenant.
func New(eng *engine.Engine) *Shell { return &Shell{eng: eng} }

// NewTenant creates a shell scoped to tn (nil = default tenant).
func NewTenant(eng *engine.Engine, tn *core.Tenant) *Shell {
	return &Shell{eng: eng, tenant: tn}
}

// Result is the outcome of one command.
type Result struct {
	Output string           // human-readable response, possibly multi-line
	Rows   int              // rows returned (SELECT) or affected (INSERT/DELETE/UPDATE)
	Stats  *exec.QueryStats // execution stats of a SELECT, else nil
	Quit   bool             // the user asked to leave
}

// EvalCtx parses and executes one command line. Empty lines and comments
// (lines starting with --) are no-ops. ctx is checked up front and
// threaded into the query paths (SELECT, the lookups of DELETE and
// UPDATE, and DML WAL commits), so a long scan is abandoned between page
// reads when the caller gives up.
//
// When the engine's flight recorder is enabled, every non-empty
// statement gets a flight record: the trace ID is taken from ctx (a
// wire client may have supplied one) or minted here, and the completed
// record — span tree, mechanism, WAL commit latency, duration, error —
// lands in the recorder's rings when the statement finishes.
func (s *Shell) EvalCtx(ctx context.Context, line string) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	trimmed := strings.TrimSpace(line)
	if trimmed == "" || strings.HasPrefix(trimmed, "--") {
		return Result{}, nil
	}
	if fr := s.eng.Flight(); fr.Enabled() {
		var act *flight.Active
		act, ctx = fr.Begin(ctx, s.tenantName(), trimmed)
		res, err := s.evalCtx(ctx, trimmed)
		fr.Complete(act, err)
		return res, err
	}
	return s.evalCtx(ctx, trimmed)
}

// tenantName labels the shell's tenant for flight records.
func (s *Shell) tenantName() string {
	if s.tenant != nil {
		return s.tenant.Name()
	}
	return "default"
}

// evalCtx dispatches one trimmed, non-empty statement.
func (s *Shell) evalCtx(ctx context.Context, trimmed string) (Result, error) {
	toks, err := lex(trimmed)
	if err != nil {
		return Result{}, err
	}
	p := &parser{toks: toks}
	head, err := p.next()
	if err != nil {
		return Result{}, err
	}
	if head.kind != tokWord {
		return Result{}, fmt.Errorf("commands start with a keyword, got %q", head.text)
	}
	switch head.text {
	case "EXIT", "QUIT":
		return Result{Output: "bye", Quit: true}, nil
	case "HELP":
		return Result{Output: helpText}, nil
	case "CREATE":
		return s.evalCreate(p)
	case "INSERT":
		return s.evalInsert(ctx, p)
	case "DELETE":
		return s.evalDelete(ctx, p)
	case "UPDATE":
		return s.evalUpdate(ctx, p)
	case "SELECT":
		return s.evalSelect(ctx, p, false)
	case "EXPLAIN":
		if err := p.word("SELECT"); err != nil {
			return Result{}, err
		}
		return s.evalSelect(ctx, p, true)
	case "DROP":
		if err := p.word("INDEX"); err != nil {
			return Result{}, err
		}
		if err := p.word("ON"); err != nil {
			return Result{}, err
		}
		tname, err := p.ident()
		if err != nil {
			return Result{}, err
		}
		t, err := s.table(tname)
		if err != nil {
			return Result{}, err
		}
		if err := p.punct("("); err != nil {
			return Result{}, err
		}
		cname, err := p.ident()
		if err != nil {
			return Result{}, err
		}
		col, err := column(t, cname)
		if err != nil {
			return Result{}, err
		}
		if err := p.punct(")"); err != nil {
			return Result{}, err
		}
		if err := t.DropIndex(col); err != nil {
			return Result{}, err
		}
		return Result{Output: fmt.Sprintf("dropped index on %s(%s)", tname, cname)}, nil
	case "SHOW":
		return s.evalShow(p)
	case "VACUUM":
		tname, err := p.ident()
		if err != nil {
			return Result{}, err
		}
		t, err := s.table(tname)
		if err != nil {
			return Result{}, err
		}
		before, after, err := t.Vacuum()
		if err != nil {
			return Result{}, err
		}
		return Result{Output: fmt.Sprintf("vacuumed %s: %d -> %d pages", tname, before, after)}, nil
	case "SAVE":
		if err := s.eng.Checkpoint(); err != nil {
			return Result{}, err
		}
		return Result{Output: "database saved"}, nil
	default:
		return Result{}, fmt.Errorf("unknown command %q (try HELP)", head.text)
	}
}

const helpText = `commands:
  CREATE TABLE name (col INT|VARCHAR, ...)
  CREATE PARTIAL INDEX ON table (col) COVERING lo TO hi
  CREATE PARTIAL INDEX ON table (col) COVERING (v1, v2, ...)
  DROP INDEX ON table (col)
  INSERT INTO table VALUES (v1, ...) [, (v1, ...) ...]
  DELETE FROM table WHERE col = value
  UPDATE table SET col = value WHERE col = value
  SELECT * FROM table WHERE col = value
  SELECT * FROM table WHERE col BETWEEN lo AND hi
  EXPLAIN SELECT * FROM table WHERE ...
  SHOW TABLES | SHOW BUFFERS | SHOW INDEXES | SHOW STATS | SHOW TIMELINE
  SHOW SLOW [n]   (slowest captured statements from the flight recorder)
  VACUUM table
  SAVE   (checkpoint a DataDir-backed database)
  HELP | EXIT`

// table resolves a table name within the shell's tenant.
func (s *Shell) table(name string) (*engine.Table, error) {
	t := s.eng.TableFor(s.tenant, name)
	if t == nil {
		return nil, fmt.Errorf("no table %q", name)
	}
	return t, nil
}

// column resolves a column name within a table.
func column(t *engine.Table, name string) (int, error) {
	i := t.Schema().ColumnIndex(name)
	if i < 0 {
		return 0, fmt.Errorf("table %s has no column %q", t.Name(), name)
	}
	return i, nil
}

// value parses a literal token into a storage value.
func value(t token) (storage.Value, error) {
	switch t.kind {
	case tokNumber:
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return storage.Value{}, fmt.Errorf("bad number %q", t.text)
		}
		return storage.Int64Value(n), nil
	case tokString:
		return storage.StringValue(t.text), nil
	default:
		return storage.Value{}, fmt.Errorf("expected a literal, got %q", t.text)
	}
}

func (s *Shell) evalCreate(p *parser) (Result, error) {
	t, err := p.next()
	if err != nil {
		return Result{}, err
	}
	switch t.text {
	case "TABLE":
		return s.evalCreateTable(p)
	case "PARTIAL":
		if err := p.word("INDEX"); err != nil {
			return Result{}, err
		}
		return s.evalCreateIndex(p)
	default:
		return Result{}, fmt.Errorf("CREATE %s not supported (want TABLE or PARTIAL INDEX)", t.text)
	}
}

func (s *Shell) evalCreateTable(p *parser) (Result, error) {
	name, err := p.ident()
	if err != nil {
		return Result{}, err
	}
	if err := p.punct("("); err != nil {
		return Result{}, err
	}
	var cols []storage.Column
	for {
		cname, err := p.ident()
		if err != nil {
			return Result{}, err
		}
		kind, err := p.next()
		if err != nil {
			return Result{}, err
		}
		var k storage.Kind
		switch kind.text {
		case "INT", "INTEGER", "BIGINT":
			k = storage.KindInt64
		case "VARCHAR", "TEXT", "STRING":
			k = storage.KindString
		default:
			return Result{}, fmt.Errorf("unknown type %q (want INT or VARCHAR)", kind.text)
		}
		cols = append(cols, storage.Column{Name: cname, Kind: k})
		sep, err := p.next()
		if err != nil {
			return Result{}, err
		}
		if sep.text == ")" {
			break
		}
		if sep.text != "," {
			return Result{}, fmt.Errorf("expected , or ) in column list, got %q", sep.text)
		}
	}
	schema, err := storage.NewSchema(cols...)
	if err != nil {
		return Result{}, err
	}
	if _, err := s.eng.CreateTableFor(s.tenant, name, schema); err != nil {
		return Result{}, err
	}
	return Result{Output: fmt.Sprintf("created table %s %s", name, schema)}, nil
}

func (s *Shell) evalCreateIndex(p *parser) (Result, error) {
	if err := p.word("ON"); err != nil {
		return Result{}, err
	}
	tname, err := p.ident()
	if err != nil {
		return Result{}, err
	}
	t, err := s.table(tname)
	if err != nil {
		return Result{}, err
	}
	if err := p.punct("("); err != nil {
		return Result{}, err
	}
	cname, err := p.ident()
	if err != nil {
		return Result{}, err
	}
	col, err := column(t, cname)
	if err != nil {
		return Result{}, err
	}
	if err := p.punct(")"); err != nil {
		return Result{}, err
	}
	if err := p.word("COVERING"); err != nil {
		return Result{}, err
	}

	// Either "(v1, v2, ...)" or "lo TO hi".
	nxt, ok := p.peek()
	if !ok {
		return Result{}, fmt.Errorf("expected coverage after COVERING")
	}
	var cov index.Coverage
	if nxt.kind == tokPunct && nxt.text == "(" {
		p.pos++
		var vals []storage.Value
		for {
			v, err := p.literal()
			if err != nil {
				return Result{}, err
			}
			vals = append(vals, v)
			sep, err := p.next()
			if err != nil {
				return Result{}, err
			}
			if sep.text == ")" {
				break
			}
			if sep.text != "," {
				return Result{}, fmt.Errorf("expected , or ) in value list, got %q", sep.text)
			}
		}
		cov = index.NewSetCoverage(vals...)
	} else {
		lo, err := p.literal()
		if err != nil {
			return Result{}, err
		}
		if err := p.word("TO"); err != nil {
			return Result{}, err
		}
		hi, err := p.literal()
		if err != nil {
			return Result{}, err
		}
		cov = index.RangeCoverage{Lo: lo, Hi: hi}
	}
	if err := t.CreatePartialIndex(col, cov); err != nil {
		return Result{}, err
	}
	return Result{Output: fmt.Sprintf("created partial index on %s(%s) covering %s", tname, cname, cov)}, nil
}

func (s *Shell) evalInsert(ctx context.Context, p *parser) (Result, error) {
	if err := p.word("INTO"); err != nil {
		return Result{}, err
	}
	tname, err := p.ident()
	if err != nil {
		return Result{}, err
	}
	t, err := s.table(tname)
	if err != nil {
		return Result{}, err
	}
	if err := p.word("VALUES"); err != nil {
		return Result{}, err
	}
	// Parse and validate every tuple before the first row is applied, so
	// a malformed or mistyped tuple anywhere fails the whole statement.
	var rows []storage.Tuple
	for {
		if err := p.punct("("); err != nil {
			return Result{}, err
		}
		var vals []storage.Value
		for {
			v, err := p.literal()
			if err != nil {
				return Result{}, err
			}
			vals = append(vals, v)
			sep, err := p.next()
			if err != nil {
				return Result{}, err
			}
			if sep.text == ")" {
				break
			}
			if sep.text != "," {
				return Result{}, fmt.Errorf("expected , or ) in tuple, got %q", sep.text)
			}
		}
		tu := storage.NewTuple(vals...)
		if err := t.Schema().Validate(tu); err != nil {
			return Result{}, err
		}
		rows = append(rows, tu)
		if p.done() {
			break
		}
		if err := p.punct(","); err != nil {
			return Result{}, err
		}
	}
	err = t.Exec(ctx, func(st *engine.Stmt) error {
		for _, tu := range rows {
			if _, err := st.Insert(tu); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return Result{Output: fmt.Sprintf("inserted %d row(s)", len(rows)), Rows: len(rows)}, nil
}

// wherePredicate parses "WHERE col = literal" and returns the column
// ordinal and key.
func (s *Shell) wherePredicate(p *parser, t *engine.Table) (int, storage.Value, error) {
	if err := p.word("WHERE"); err != nil {
		return 0, storage.Value{}, err
	}
	cname, err := p.ident()
	if err != nil {
		return 0, storage.Value{}, err
	}
	col, err := column(t, cname)
	if err != nil {
		return 0, storage.Value{}, err
	}
	if err := p.punct("="); err != nil {
		return 0, storage.Value{}, err
	}
	key, err := p.literal()
	if err != nil {
		return 0, storage.Value{}, err
	}
	return col, key, nil
}

func (s *Shell) evalDelete(ctx context.Context, p *parser) (Result, error) {
	if err := p.word("FROM"); err != nil {
		return Result{}, err
	}
	tname, err := p.ident()
	if err != nil {
		return Result{}, err
	}
	t, err := s.table(tname)
	if err != nil {
		return Result{}, err
	}
	col, key, err := s.wherePredicate(p, t)
	if err != nil {
		return Result{}, err
	}
	matches, _, err := t.QueryEqualCtx(ctx, col, key)
	if err != nil {
		return Result{}, err
	}
	err = t.Exec(ctx, func(st *engine.Stmt) error {
		for _, m := range matches {
			if err := st.Delete(m.RID); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return Result{Output: fmt.Sprintf("deleted %d row(s)", len(matches)), Rows: len(matches)}, nil
}

func (s *Shell) evalUpdate(ctx context.Context, p *parser) (Result, error) {
	tname, err := p.ident()
	if err != nil {
		return Result{}, err
	}
	t, err := s.table(tname)
	if err != nil {
		return Result{}, err
	}
	if err := p.word("SET"); err != nil {
		return Result{}, err
	}
	setName, err := p.ident()
	if err != nil {
		return Result{}, err
	}
	setCol, err := column(t, setName)
	if err != nil {
		return Result{}, err
	}
	if err := p.punct("="); err != nil {
		return Result{}, err
	}
	newVal, err := p.literal()
	if err != nil {
		return Result{}, err
	}
	col, key, err := s.wherePredicate(p, t)
	if err != nil {
		return Result{}, err
	}
	matches, _, err := t.QueryEqualCtx(ctx, col, key)
	if err != nil {
		return Result{}, err
	}
	rows := make([]storage.Tuple, len(matches))
	for i, m := range matches {
		rows[i] = m.Tuple.WithValue(setCol, newVal)
		if err := t.Schema().Validate(rows[i]); err != nil {
			return Result{}, err
		}
	}
	err = t.Exec(ctx, func(st *engine.Stmt) error {
		for i, m := range matches {
			if _, err := st.Update(m.RID, rows[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return Result{Output: fmt.Sprintf("updated %d row(s)", len(matches)), Rows: len(matches)}, nil
}

func (s *Shell) evalSelect(ctx context.Context, p *parser, explain bool) (Result, error) {
	if err := p.punct("*"); err != nil {
		return Result{}, err
	}
	if err := p.word("FROM"); err != nil {
		return Result{}, err
	}
	tname, err := p.ident()
	if err != nil {
		return Result{}, err
	}
	t, err := s.table(tname)
	if err != nil {
		return Result{}, err
	}
	if err := p.word("WHERE"); err != nil {
		return Result{}, err
	}
	cname, err := p.ident()
	if err != nil {
		return Result{}, err
	}
	col, err := column(t, cname)
	if err != nil {
		return Result{}, err
	}
	op, err := p.next()
	if err != nil {
		return Result{}, err
	}

	// "= v" is the range [v, v]; the two forms differ only in parsing.
	var lo, hi storage.Value
	switch {
	case op.kind == tokPunct && op.text == "=":
		if lo, err = p.literal(); err != nil {
			return Result{}, err
		}
		hi = lo
	case op.kind == tokWord && op.text == "BETWEEN":
		if lo, err = p.literal(); err != nil {
			return Result{}, err
		}
		if err := p.word("AND"); err != nil {
			return Result{}, err
		}
		if hi, err = p.literal(); err != nil {
			return Result{}, err
		}
	default:
		return Result{}, fmt.Errorf("expected = or BETWEEN, got %q", op.text)
	}
	if explain {
		plan, err := t.ExplainRange(col, lo, hi)
		if err != nil {
			return Result{}, err
		}
		return Result{Output: plan.String()}, nil
	}
	matches, stats, err := t.QueryRangeCtx(ctx, col, lo, hi)
	if err != nil {
		return Result{}, err
	}
	return Result{Output: renderSelect(matches, stats), Rows: len(matches), Stats: &stats}, nil
}

// A rendered cell is at most cellWidth bytes: a longer quoted VARCHAR
// keeps its first cellKeep bytes, cut back to a rune boundary, and ends
// in `..."`.
const (
	cellWidth = 24
	cellKeep  = 21
)

// renderSelect formats a SELECT's rows in RID order, one line each,
// then the trailer line, appending everything into one buffer. It sorts
// matches in place: the engine hands every query a slice of its own (a
// shared scan demultiplexes into one slice per attached query), and a
// hit's arrives in RID order already.
func renderSelect(matches []engineMatch, st engineStats) string {
	slices.SortFunc(matches, func(a, b engineMatch) int {
		if c := cmp.Compare(a.RID.Page, b.RID.Page); c != 0 {
			return c
		}
		return cmp.Compare(a.RID.Slot, b.RID.Slot)
	})
	b := make([]byte, 0, 64*len(matches)+96)
	for _, m := range matches {
		b = append(b, '[')
		b = strconv.AppendUint(b, uint64(m.RID.Page), 10)
		b = append(b, ':')
		b = strconv.AppendUint(b, uint64(m.RID.Slot), 10)
		b = append(b, ']')
		for c := 0; c < m.Tuple.Len(); c++ {
			b = append(b, ' ')
			b = appendCell(b, m.Tuple.Value(c))
		}
		b = append(b, '\n')
	}
	b = strconv.AppendInt(b, int64(len(matches)), 10)
	b = append(b, " row(s) | "...)
	b = appendStats(b, st)
	return string(b)
}

// appendCell appends one value as the SELECT output shows it: an
// integer in decimal, a VARCHAR Go-quoted and cut to cellWidth bytes.
func appendCell(b []byte, v storage.Value) []byte {
	switch v.Kind() {
	case storage.KindInt64:
		return strconv.AppendInt(b, v.Int64(), 10) // at most 20 bytes: never cut
	case storage.KindString:
		return appendVarchar(b, v.Str())
	}
	return append(b, v.String()...)
}

// appendVarchar appends strconv.Quote(s), cut as a cell. Every rune
// quotes to at least one byte, so only the first cellWidth-1 runes can
// reach the kept bytes, and a string with more is cut whatever its tail
// holds: only that prefix is quoted. When the bytes that reach the cell
// are printable ASCII other than '"' and '\', the quote keeps them as
// they are, and they are appended directly.
func appendVarchar(b []byte, s string) []byte {
	shown, long := s, len(s) > cellWidth-2
	if long {
		shown = s[:cellKeep-1]
	}
	if plainASCII(shown) {
		b = append(b, '"')
		b = append(b, shown...)
		if long {
			return append(b, `..."`...)
		}
		return append(b, '"')
	}
	end := 0
	for n := 0; end < len(s) && n < cellWidth-1; n++ {
		_, w := utf8.DecodeRuneInString(s[end:])
		end += w
	}
	start := len(b)
	b = strconv.AppendQuote(b, s[:end])
	if end == len(s) && len(b)-start <= cellWidth {
		return b
	}
	cut := start + cellKeep
	for !utf8.RuneStart(b[cut]) {
		cut--
	}
	return append(b[:cut], `..."`...)
}

// plainASCII reports whether every byte of s is one strconv.Quote
// copies unchanged: printable ASCII other than '"' and '\'.
func plainASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// appendStats appends the trailer's mechanism and page counts.
func appendStats(b []byte, st engineStats) []byte {
	mech := "indexing scan"
	switch {
	case st.EmptyRange:
		mech = "empty range"
	case st.PartialHit:
		mech = "partial index hit"
	case st.FullScan:
		mech = "full scan"
	case st.QuotaDegraded:
		mech = "degraded scan (tenant over quota)"
	}
	b = append(b, mech...)
	b = append(b, ": "...)
	b = strconv.AppendInt(b, int64(st.PagesRead), 10)
	b = append(b, " pages read, "...)
	b = strconv.AppendInt(b, int64(st.PagesSkipped), 10)
	b = append(b, " skipped, "...)
	b = strconv.AppendInt(b, int64(st.EntriesAdded), 10)
	return append(b, " buffer entries added"...)
}

func (s *Shell) evalShow(p *parser) (Result, error) {
	what, err := p.next()
	if err != nil {
		return Result{}, err
	}
	switch what.text {
	case "BUFFERS":
		// A tenant session sees only its own buffers and its own ledger;
		// the default session sees everything plus the global occupancy.
		var sb strings.Builder
		n := 0
		for _, b := range s.eng.Space().Buffers() {
			if s.tenant != nil && b.Tenant() != s.tenant {
				continue
			}
			fmt.Fprintf(&sb, "%s: %d entries, %d partitions, %d pages buffered, benefit %.2f\n",
				b.Name(), b.EntryCount(), b.PartitionCount(), b.BufferedPages(), b.Benefit())
			n++
		}
		if n == 0 {
			return Result{Output: "no index buffers"}, nil
		}
		if s.tenant != nil {
			fmt.Fprintf(&sb, "tenant %s used: %d entries (quota %d, degraded %d)",
				s.tenant.Name(), s.tenant.Used(), s.tenant.Quota(), s.tenant.Degraded())
		} else {
			fmt.Fprintf(&sb, "space used: %d entries", s.eng.Space().Used())
		}
		return Result{Output: sb.String(), Rows: n}, nil
	case "TABLES":
		names := s.eng.TableNamesFor(s.tenant)
		if len(names) == 0 {
			return Result{Output: "no tables"}, nil
		}
		var sb strings.Builder
		for i, n := range names {
			if i > 0 {
				sb.WriteByte('\n')
			}
			t := s.eng.TableFor(s.tenant, n)
			fmt.Fprintf(&sb, "%s %s (%d pages)", n, t.Schema(), t.NumPages())
		}
		return Result{Output: sb.String(), Rows: len(names)}, nil
	case "STATS":
		return Result{Output: s.eng.Tracer().Report()}, nil
	case "TIMELINE":
		return s.showTimeline()
	case "SLOW":
		n := 10
		if !p.done() {
			nt, err := p.next()
			if err != nil {
				return Result{}, err
			}
			v, err := strconv.Atoi(nt.text)
			if err != nil || v <= 0 {
				return Result{}, fmt.Errorf("SHOW SLOW wants a positive count, got %q", nt.text)
			}
			n = v
		}
		return s.showSlow(n)
	case "INDEXES":
		var sb strings.Builder
		found := false
		for _, n := range s.eng.TableNamesFor(s.tenant) {
			t := s.eng.TableFor(s.tenant, n)
			for c := 0; c < t.Schema().NumColumns(); c++ {
				if ix := t.Index(c); ix != nil {
					if found {
						sb.WriteByte('\n')
					}
					found = true
					fmt.Fprintf(&sb, "%s: covering %s, %d entries", ix.Name(), ix.Coverage(), ix.EntryCount())
				}
			}
		}
		if !found {
			return Result{Output: "no indexes"}, nil
		}
		return Result{Output: sb.String()}, nil
	default:
		return Result{}, fmt.Errorf("SHOW %s not supported (want TABLES, BUFFERS, INDEXES, STATS, TIMELINE or SLOW)", what.text)
	}
}

// showSlow renders the flight recorder's slow-query capture: the n
// slowest completed statements, slowest first. A tenant shell sees only
// its own statements.
func (s *Shell) showSlow(n int) (Result, error) {
	fr := s.eng.Flight()
	if !fr.Enabled() {
		return Result{Output: "flight recorder is off (start aibserver, or enable it programmatically)"}, nil
	}
	recs := fr.Slow(n)
	if s.tenant != nil {
		kept := recs[:0]
		for _, r := range recs {
			if r.Tenant == s.tenant.Name() {
				kept = append(kept, r)
			}
		}
		recs = kept
	}
	if len(recs) == 0 {
		return Result{Output: fmt.Sprintf("no statements above the slow threshold (%s) yet", fr.SlowThreshold())}, nil
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s %-10s %10s %8s %6s %6s %8s  %s\n",
		"trace", "tenant", "ms", "mech", "rows", "pages", "wal_ms", "statement")
	for _, r := range recs {
		stmt := r.Stmt
		if len(stmt) > 48 {
			stmt = stmt[:45] + "..."
		}
		mech := r.Mechanism
		if mech == "" {
			mech = "-"
		}
		fmt.Fprintf(&sb, "%-24s %-10s %10.2f %8s %6d %6d %8.2f  %s\n",
			r.Trace, r.Tenant, float64(r.DurationNanos)/1e6, mech,
			r.Matches, r.PagesRead, float64(r.WALCommitNanos)/1e6, stmt)
	}
	fmt.Fprintf(&sb, "slow threshold %s; %d captured since enable", fr.SlowThreshold(), fr.Stats().Slow)
	return Result{Output: sb.String(), Rows: len(recs)}, nil
}

// showTimeline renders the adaptation timeline: one line per buffer
// with the latest coverage sample and the convergence verdict.
func (s *Shell) showTimeline() (Result, error) {
	tl := s.eng.Timeline()
	if !tl.Enabled() {
		return Result{Output: "timeline sampling is off (start aibshell with -listen, or enable it programmatically)"}, nil
	}
	series := tl.Series()
	if len(series) == 0 {
		return Result{Output: "no timeline samples yet (run some queries)"}, nil
	}
	verdicts := make(map[string]engineConvergence, len(series))
	for _, c := range s.eng.Convergence() {
		verdicts[c.Buffer] = c
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s %8s %9s %10s %9s %10s %8s %8s\n",
		"buffer", "queries", "coverage", "converged", "entries", "bytes", "displ", "samples")
	for _, ser := range series {
		var last engineConvergence = verdicts[ser.Buffer]
		conv := "-"
		if last.Achieved {
			conv = fmt.Sprintf("@%d", last.QueriesToTarget)
			if last.Regressed {
				conv += "!"
			}
		}
		entries, bytes := 0, 0
		var displ uint64
		if n := len(ser.Samples); n > 0 {
			latest := ser.Samples[n-1]
			entries, bytes = latest.Entries, latest.Bytes
			displ = latest.Displacements
		}
		fmt.Fprintf(&sb, "%-20s %8d %8.1f%% %10s %9d %10d %8d %8d\n",
			ser.Buffer, last.Queries, 100*last.Coverage, conv, entries, bytes, displ, len(ser.Samples))
	}
	fmt.Fprintf(&sb, "coverage target %.0f%%; '@N' = converged at query N, '!' = regressed below target",
		100*tl.Target())
	return Result{Output: sb.String()}, nil
}
