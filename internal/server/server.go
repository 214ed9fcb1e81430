package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"

	"repro"
	"repro/internal/flight"
)

// Config tunes one Server. The zero value is usable: an ephemeral
// loopback port, a worker pool sized to the machine, and generous
// deadlines.
type Config struct {
	// Addr is the TCP listen address; "" means "127.0.0.1:0".
	Addr string
	// Workers bounds concurrently executing statements across all
	// connections — the same pool discipline as the scan-execution
	// stage: connections are cheap goroutines, execution slots are the
	// scarce resource. 0 means 4×GOMAXPROCS.
	Workers int
	// ReadTimeout is the per-statement read deadline: a connection idle
	// longer is closed. 0 means 5 minutes.
	ReadTimeout time.Duration
	// WriteTimeout is the per-response write deadline. 0 means 30s.
	WriteTimeout time.Duration
	// MaxLineBytes bounds one statement line. 0 means 1 MiB.
	MaxLineBytes int
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Workers <= 0 {
		c.Workers = 4 * runtime.GOMAXPROCS(0)
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 5 * time.Minute
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.MaxLineBytes <= 0 {
		c.MaxLineBytes = 1 << 20
	}
	return c
}

// Server accepts TCP connections and executes their statement streams:
// goroutine per connection, a bounded worker pool for execution, and a
// graceful drain on Shutdown. Every statement goes through the
// repro.DB.Exec / Session.Exec front door.
type Server struct {
	db  *repro.DB
	cfg Config

	sem    chan struct{} // execution slots
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining bool

	wg sync.WaitGroup // accept loop + connection handlers

	statements atomic.Uint64
	errored    atomic.Uint64
}

// New builds a server over db. Call Start to listen.
func New(db *repro.DB, cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		db:     db,
		cfg:    cfg,
		sem:    make(chan struct{}, cfg.Workers),
		ctx:    ctx,
		cancel: cancel,
		conns:  make(map[net.Conn]struct{}),
	}
}

// Start binds the configured address and begins accepting connections
// in a background goroutine. It returns the bound address (useful with
// the default ephemeral port).
func (s *Server) Start() (net.Addr, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return nil, errors.New("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			// The listener is closed by Shutdown; anything else on a
			// closed-for-business server is equally final.
			return
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// response is one protocol response line.
type response struct {
	OK     bool   `json:"ok"`
	Output string `json:"output,omitempty"`
	Rows   int    `json:"rows,omitempty"`
	Code   string `json:"code,omitempty"`
	Error  string `json:"error,omitempty"`
	// Trace is the statement's trace ID — the client-supplied one (the
	// "TRACE <id> <stmt>" prefix) echoed back, or the one the server
	// minted when the flight recorder is on. Correlate it with
	// /debug/queries?trace=<id> on the observability listener and with
	// the trace field of exported span records.
	Trace string `json:"trace,omitempty"`
}

func errResponse(err error) response {
	return response{Code: CodeOf(err), Error: err.Error()}
}

// tenantStmt recognizes the "TENANT <name>" handshake. Lines that do
// not start with the keyword return before any allocation, so ordinary
// statements pay nothing for the check.
func tenantStmt(line string) (string, bool) {
	const kw = "TENANT"
	if t := strings.TrimLeftFunc(line, unicode.IsSpace); len(t) < len(kw) || !strings.EqualFold(t[:len(kw)], kw) {
		return "", false
	}
	f := strings.Fields(line)
	if len(f) == 2 && strings.EqualFold(f[0], kw) {
		return f[1], true
	}
	return "", false
}

// traceStmt recognizes the optional "TRACE <id> <stmt>" statement
// prefix: the client names the trace ID the statement should execute
// under, and the server echoes it in the response. The ID is a single
// whitespace-free token.
func traceStmt(line string) (id, rest string, ok bool) {
	first, tail, found := strings.Cut(line, " ")
	if !found || !strings.EqualFold(first, "TRACE") {
		return "", "", false
	}
	id, rest, found = strings.Cut(strings.TrimSpace(tail), " ")
	if !found || id == "" {
		return "", "", false
	}
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return "", "", false
	}
	return id, rest, true
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	sess, err := s.db.Session("")
	if err != nil {
		return // closed database; nothing to say
	}
	// The scanner's limit counts the newline; a line of MaxLineBytes is
	// accepted, one byte more is refused.
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, min(64<<10, s.cfg.MaxLineBytes+1)), s.cfg.MaxLineBytes+1)
	var out []byte // response line, reused across the connection's statements
	for {
		_ = conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		var resp response
		quit := false
		switch {
		case sc.Scan():
			resp, quit = s.serveLine(&sess, strings.TrimSpace(sc.Text()))
		case errors.Is(sc.Err(), bufio.ErrTooLong):
			// The rest of the line was never read, so no statement
			// boundary is left to resume from: answer, then close.
			s.errored.Add(1)
			resp = response{Code: CodeBadStatement, Error: fmt.Sprintf("statement line exceeds %d bytes", s.cfg.MaxLineBytes)}
			quit = true
		default:
			// EOF, idle timeout, or the drain poke from Shutdown (which
			// expires the pending read).
			return
		}

		_ = conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		out = appendResponse(out[:0], resp)
		if _, err := conn.Write(out); err != nil {
			return
		}
		if cap(out) > 64<<10 {
			out = nil // one large result must not pin its buffer for the connection's life
		}
		if quit || s.isDraining() {
			return
		}
	}
}

// serveLine executes one request line: the TENANT handshake rebinds the
// session in place; everything else acquires a worker slot and runs
// through the statement API.
func (s *Server) serveLine(sess **repro.Session, line string) (response, bool) {
	if name, ok := tenantStmt(line); ok {
		ns, err := s.db.Session(name)
		if err != nil {
			s.errored.Add(1)
			return errResponse(err), false
		}
		*sess = ns
		return response{OK: true, Output: "tenant " + name}, false
	}

	// Resolve the statement's trace ID before execution: a client-
	// supplied TRACE prefix wins; otherwise one is minted while the
	// flight recorder is on, so every response can be correlated with
	// its flight record. With the recorder off and no prefix, the
	// statement runs untraced and the response omits the field.
	ctx := s.ctx
	traceID, rest, ok := traceStmt(line)
	if ok {
		line = rest
	} else if s.db.FlightRecorderEnabled() {
		traceID = s.db.MintTraceID()
	}
	if traceID != "" {
		ctx = flight.WithTrace(ctx, traceID)
	}

	select {
	case s.sem <- struct{}{}:
	case <-s.ctx.Done():
		return errResponse(s.ctx.Err()), true
	}
	res, err := (*sess).Exec(ctx, line)
	<-s.sem

	s.statements.Add(1)
	if err != nil {
		s.errored.Add(1)
		resp := errResponse(err)
		resp.Trace = traceID
		return resp, false
	}
	return response{OK: true, Output: res.Output, Rows: res.Rows, Trace: traceID}, res.Quit
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Statements returns the number of executed statements (excluding
// TENANT handshakes).
func (s *Server) Statements() uint64 { return s.statements.Load() }

// Errors returns the number of statements (and handshakes) that failed,
// counting an over-long request line as one.
func (s *Server) Errors() uint64 { return s.errored.Load() }

// Shutdown drains the server: the listener closes, idle connections are
// woken and closed, and in-flight statements run to completion. If ctx
// expires first, in-flight statements are canceled (their scans abort
// between page reads) and connections are closed forcibly; Shutdown
// still waits for every handler to return, so no goroutine outlives it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	// Wake blocked readers so their handlers observe the drain; a
	// handler mid-statement finishes and closes after its response.
	now := time.Now()
	for _, c := range conns {
		_ = c.SetReadDeadline(now)
	}

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	s.cancel() // abort in-flight scans
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	<-done
	return ctx.Err()
}
