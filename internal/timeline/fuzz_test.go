package timeline

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/flight"
)

// decoded is every record one ScanRecords pass delivered, in order.
type decoded struct {
	samples []SampleRecord
	spans   []flight.Span
	flights []flight.Record
}

func scanAll(data []byte) (decoded, int, error) {
	var d decoded
	n, err := ScanRecords(bytes.NewReader(data),
		func(rec SampleRecord) error { d.samples = append(d.samples, rec); return nil },
		func(sp flight.Span) error { d.spans = append(d.spans, sp); return nil },
		func(rec flight.Record) error {
			if len(rec.Spans) == 0 {
				rec.Spans = nil // "spans": [] and an omitted list are the same record
			}
			d.flights = append(d.flights, rec)
			return nil
		})
	return d, n, err
}

// FuzzScanRecords feeds arbitrary streams to the telemetry decoder — the
// parser behind aibench -verify-telemetry, which reads a file the user
// supplies. The decoder must never panic, and any stream it accepts must
// survive a round trip: re-written through a Sink, it decodes to the
// same records.
func FuzzScanRecords(f *testing.F) {
	var seed bytes.Buffer
	sink := NewSink(&seed)
	sink.WriteSample(SampleRecord{Buffer: "t.a", Table: "t", Column: "a", Sample: Sample{Query: 3, Event: EventQuery, TotalPages: 4, Skippable: 2, Coverage: 0.5, Hits: 2, IndexingScans: 1}})
	sink.WriteSpan(flight.Span{Seq: 9, Kind: "displace", Target: "u.b", Page: -1, N: 12, Trace: "tr-1"})
	sink.WriteFlight(flight.Record{Seq: 1, Trace: "tr-1", Table: "t", Column: "a", Mechanism: "indexing-scan", PagesRead: 7,
		Spans: []flight.Span{{Seq: 9, Kind: "displace", Target: "u.b", Page: -1, N: 12, Trace: "tr-1"}}})
	stream := seed.Bytes()
	f.Add(stream)
	for _, cut := range []int{1, len(stream) / 3, len(stream) / 2, len(stream) - 2} {
		f.Add(stream[:cut])
	}
	f.Add([]byte("{\"type\":\"mystery\"}\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// JSON escaping can grow a line up to sixfold; keep the re-written
		// stream within the decoder's 1 MiB line limit.
		if len(data) > 64<<10 {
			return
		}
		first, n, err := scanAll(data)
		if err != nil {
			return
		}
		var out bytes.Buffer
		w := NewSink(&out)
		for _, rec := range first.samples {
			w.WriteSample(rec)
		}
		for _, sp := range first.spans {
			w.WriteSpan(sp)
		}
		for _, rec := range first.flights {
			w.WriteFlight(rec)
		}
		if st := w.Stats(); st.Errors != 0 || st.Lines != uint64(n) {
			t.Fatalf("re-writing %d records: %+v", n, st)
		}
		second, n2, err := scanAll(out.Bytes())
		if err != nil {
			t.Fatalf("re-written stream rejected: %v\n%s", err, out.Bytes())
		}
		if n2 != n || !reflect.DeepEqual(first, second) {
			t.Fatalf("round trip changed the records:\n%+v\n%+v", first, second)
		}
	})
}
