package timeline

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/flight"
)

// Record type tags, first field of every exported line.
const (
	// RecordSample tags a timeline sample line.
	RecordSample = "sample"
	// RecordSpan tags a trace span line.
	RecordSpan = "span"
	// RecordFlight tags a completed per-statement flight record.
	RecordFlight = "flight"
)

// SampleRecord is one exported timeline sample: the record envelope
// (type + series identity) around the embedded Sample fields.
type SampleRecord struct {
	Type   string `json:"type"`
	Buffer string `json:"buffer"`
	Table  string `json:"table,omitempty"`
	Column string `json:"column,omitempty"`
	Sample
}

// spanLine and flightLine are the exported span and flight-record
// lines: the type tag around the flight package's Span and Record
// fields.
type spanLine struct {
	Type string `json:"type"`
	flight.Span
}

type flightLine struct {
	Type string `json:"type"`
	flight.Record
}

// SinkStats is a point-in-time reading of a sink's counters.
type SinkStats struct {
	Lines  uint64 // records successfully written
	Errors uint64 // write or marshal failures (records dropped)
}

// Sink streams telemetry records to an io.Writer as JSONL — one JSON
// object per line, append-only, so a crash mid-run loses at most the
// last line and aibench can replay Fig. 5/6-style curves from the file.
// Writes are serialized by an internal mutex; a failed write drops that
// record and bumps Errors rather than blocking or panicking, keeping
// the telemetry path non-fatal to the engine.
type Sink struct {
	mu      sync.Mutex
	w       io.Writer
	lines   atomic.Uint64
	errors  atomic.Uint64
	lastErr atomic.Pointer[error]
}

// NewSink wraps w. The caller owns w's lifecycle (flush/close).
func NewSink(w io.Writer) *Sink {
	return &Sink{w: w}
}

// WriteSample exports one sample record.
func (s *Sink) WriteSample(rec SampleRecord) {
	rec.Type = RecordSample
	s.writeJSON(rec)
}

// WriteSpan exports one span record.
func (s *Sink) WriteSpan(sp flight.Span) {
	s.writeJSON(spanLine{Type: RecordSpan, Span: sp})
}

// WriteFlight exports one completed flight record.
func (s *Sink) WriteFlight(rec flight.Record) {
	s.writeJSON(flightLine{Type: RecordFlight, Record: rec})
}

func (s *Sink) writeJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		s.fail(err)
		return
	}
	b = append(b, '\n')
	s.mu.Lock()
	_, err = s.w.Write(b)
	s.mu.Unlock()
	if err != nil {
		s.fail(err)
		return
	}
	s.lines.Add(1)
}

func (s *Sink) fail(err error) {
	s.errors.Add(1)
	s.lastErr.Store(&err)
}

// Stats reads the sink's counters.
func (s *Sink) Stats() SinkStats {
	return SinkStats{Lines: s.lines.Load(), Errors: s.errors.Load()}
}

// Err returns the most recent write/marshal failure, nil if none.
func (s *Sink) Err() error {
	if p := s.lastErr.Load(); p != nil {
		return *p
	}
	return nil
}

// ScanRecords decodes a JSONL telemetry stream, dispatching each record
// to the matching callback (any may be nil to skip that type). It
// returns the number of records decoded; a malformed line, an unknown
// record type, or a callback error stops the scan with an error naming
// the line. This is the decode half of the sink — aibench's
// -verify-telemetry mode and the replay tests are built on it.
func ScanRecords(r io.Reader, onSample func(SampleRecord) error, onSpan func(flight.Span) error, onFlight func(flight.Record) error) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	n, line := 0, 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return n, fmt.Errorf("timeline: line %d: %w", line, err)
		}
		var err error
		switch probe.Type {
		case RecordSample:
			err = decode(raw, onSample)
		case RecordSpan:
			err = decode(raw, func(l spanLine) error { return call(onSpan, l.Span) })
		case RecordFlight:
			err = decode(raw, func(l flightLine) error { return call(onFlight, l.Record) })
		default:
			err = fmt.Errorf("unknown record type %q", probe.Type)
		}
		if err != nil {
			return n, fmt.Errorf("timeline: line %d: %w", line, err)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return n, fmt.Errorf("timeline: %w", err)
	}
	return n, nil
}

// decode unmarshals one line as T and hands it to fn.
func decode[T any](raw []byte, fn func(T) error) error {
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		return err
	}
	return call(fn, v)
}

// call runs fn on v unless fn is nil (that record type is skipped).
func call[T any](fn func(T) error, v T) error {
	if fn == nil {
		return nil
	}
	return fn(v)
}
