package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"
)

// client is one closed-loop wire connection: the line protocol allows
// one outstanding statement, so the caller waits for every reply.
type client struct {
	conn     net.Conn
	r        *bufio.Reader
	out      []byte // reused request buffer
	bytesIn  int64
	lastRecv time.Time
}

func dial(addr string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &client{conn: conn, r: bufio.NewReaderSize(conn, 64<<10)}, nil
}

func (c *client) close() { c.conn.Close() }

// reply is one decoded response line.
type reply struct {
	OK     bool   `json:"ok"`
	Output string `json:"output"`
	Rows   int    `json:"rows"`
	Code   string `json:"code"`
	Error  string `json:"error"`
	Trace  string `json:"trace"`
}

// roundTrip sends one line and reads the response line, returning the
// send and receive instants around exactly that; decoding is the
// caller's (untimed) business.
func (c *client) roundTrip(line string) (raw []byte, sent, recv time.Time, err error) {
	c.out = append(append(c.out[:0], line...), '\n')
	sent = time.Now()
	if _, err = c.conn.Write(c.out); err != nil {
		return nil, sent, sent, fmt.Errorf("send: %w", err)
	}
	raw, err = c.r.ReadBytes('\n')
	recv = time.Now()
	if err != nil {
		return nil, sent, recv, fmt.Errorf("receive: %w", err)
	}
	c.bytesIn += int64(len(raw))
	return raw, sent, recv, nil
}

// outcome is what one statement's response said, whatever depth it was
// issued at; the ladder compares these across depths.
type outcome struct {
	rows, pagesRead, pagesSkipped, entriesAdded int
	hit                                         bool // answered by the partial index
}

// parseTrailer reads the "N row(s) | mechanism: R pages read, S skipped,
// E buffer entries added" line a SELECT's output ends with.
func parseTrailer(output string) (outcome, bool) {
	line := output[strings.LastIndexByte(output, '\n')+1:]
	_, rest, ok := strings.Cut(line, " | ")
	if !ok {
		return outcome{}, false
	}
	mech, nums, ok := strings.Cut(rest, ": ")
	if !ok {
		return outcome{}, false
	}
	var o outcome
	o.hit = mech == "partial index hit"
	f := strings.Fields(nums)
	if len(f) != 9 {
		return outcome{}, false
	}
	var e1, e2, e3 error
	o.pagesRead, e1 = strconv.Atoi(f[0])
	o.pagesSkipped, e2 = strconv.Atoi(f[3])
	o.entriesAdded, e3 = strconv.Atoi(f[5])
	return o, e1 == nil && e2 == nil && e3 == nil
}

// exec runs one generated statement over the wire and checks the reply
// against the oracle; a transport failure is returned, a wrong answer
// is reported through ok.
func (c *client) exec(st stmt) (o outcome, sent, recv time.Time, ok bool, err error) {
	raw, sent, recv, err := c.roundTrip(st.text)
	if err != nil {
		return o, sent, recv, false, err
	}
	var r reply
	if err := json.Unmarshal(raw, &r); err != nil {
		return o, sent, recv, false, nil
	}
	o, ok = checkReply(st, r.OK, r.Rows, r.Output)
	return o, sent, recv, ok, nil
}

// checkReply is the oracle: the statement succeeded, reported the
// model's row count, and (for a SELECT) ran by the expected mechanism.
func checkReply(st stmt, okFlag bool, rows int, output string) (outcome, bool) {
	o := outcome{rows: rows}
	if !okFlag || rows != st.wantRows {
		return o, false
	}
	if st.class == classDML {
		return o, true
	}
	t, ok := parseTrailer(output)
	if !ok {
		return o, false
	}
	t.rows = rows
	return t, t.hit == (st.class == classHit)
}

// tally accumulates one connection's measured window.
type tally struct {
	lat       [numClasses][]time.Duration
	overhead  []time.Duration // response received -> next statement sent
	attempted int
	failed    int
	elapsed   time.Duration

	missPagesRead, missPagesSkipped, missEntries, missRows int
	dmlRows, userBytes                                     int
	// recoverAfterFlip: misses from each column flip until a miss reads
	// under 5 % of the table's pages (mixed_shift).
	recoverAfterFlip []int
}

// runLoop drives one connection closed-loop. With until zero it runs
// exactly ops statements (warm-up, ladder); otherwise it runs until the
// first response after the deadline. tablePages feeds the flip-recovery
// count; onAck, when set, is called after every checked reply.
func runLoop(c *client, s *stream, ops int, until time.Time, tablePages int, onAck func(n int)) (*tally, error) {
	t := &tally{}
	c.lastRecv = time.Time{}
	start := time.Now()
	sinceFlip, recovering := 0, false
	for i := 0; ; i++ {
		if until.IsZero() && i >= ops || !until.IsZero() && !time.Now().Before(until) {
			break
		}
		st := s.next()
		o, sent, recv, ok, err := c.exec(st)
		if err != nil {
			return t, fmt.Errorf("conn %d statement %d (%s): %w", s.conn, s.n, st.text, err)
		}
		if !c.lastRecv.IsZero() {
			t.overhead = append(t.overhead, sent.Sub(c.lastRecv))
		}
		c.lastRecv = recv
		t.attempted++
		if !ok {
			t.failed++
		}
		t.lat[st.class] = append(t.lat[st.class], recv.Sub(sent))
		switch st.class {
		case classMiss:
			t.missPagesRead += o.pagesRead
			t.missPagesSkipped += o.pagesSkipped
			t.missEntries += o.entriesAdded
			t.missRows += o.rows
			if st.flip {
				sinceFlip, recovering = 0, true
			}
			if recovering {
				sinceFlip++
				if o.pagesRead*20 < tablePages {
					t.recoverAfterFlip = append(t.recoverAfterFlip, sinceFlip)
					recovering = false
				}
			}
		case classDML:
			t.dmlRows += st.wantRows
			t.userBytes += st.userBytes()
		}
		if onAck != nil {
			onAck(s.n)
		}
	}
	t.elapsed = time.Since(start)
	return t, nil
}

// merge folds another connection's tally into t (elapsed is kept per
// connection by the caller).
func (t *tally) merge(o *tally) {
	for c := range t.lat {
		t.lat[c] = append(t.lat[c], o.lat[c]...)
	}
	t.overhead = append(t.overhead, o.overhead...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.missPagesRead += o.missPagesRead
	t.missPagesSkipped += o.missPagesSkipped
	t.missEntries += o.missEntries
	t.missRows += o.missRows
	t.dmlRows += o.dmlRows
	t.userBytes += o.userBytes
	t.recoverAfterFlip = append(t.recoverAfterFlip, o.recoverAfterFlip...)
}
