package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/storage"
)

func dmlRecord(table string, lsnHint int) *Record {
	img := make([]byte, 64)
	for i := range img {
		img[i] = byte(lsnHint + i)
	}
	return &Record{
		Kind:   KindInsert,
		Table:  table,
		Pages:  lsnHint + 1,
		RID:    storage.RID{Page: storage.PageID(lsnHint), Slot: 3},
		OldRID: storage.InvalidRID,
		Images: []PageImage{{Page: storage.PageID(lsnHint), Data: img}},
	}
}

func TestRoundTrip(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	w, err := Create(dir, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 20; i++ {
		rec := dmlRecord("t", i)
		if i%4 == 3 {
			rec.Kind = KindUpdate
			rec.OldRID = storage.RID{Page: storage.PageID(i + 7), Slot: 1}
		}
		lsn, err := w.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != LSN(i+1) {
			t.Fatalf("lsn = %d, want %d", lsn, i+1)
		}
		if err := w.Commit(lsn); err != nil {
			t.Fatal(err)
		}
		want = append(want, *rec)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var got []Record
	info, err := Replay(dir, 0, func(r *Record) error {
		got = append(got, *r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 20 || info.Last != 20 || info.Next != 21 || info.TornBytes != 0 {
		t.Fatalf("info = %+v", info)
	}
	for i := range want {
		g, wnt := got[i], want[i]
		if g.LSN != LSN(i+1) || g.Kind != wnt.Kind || g.Table != wnt.Table ||
			g.Pages != wnt.Pages || g.RID != wnt.RID || g.OldRID != wnt.OldRID {
			t.Fatalf("record %d: got %+v want %+v", i, g, wnt)
		}
		if len(g.Images) != len(wnt.Images) {
			t.Fatalf("record %d: %d images, want %d", i, len(g.Images), len(wnt.Images))
		}
		for j := range g.Images {
			if g.Images[j].Page != wnt.Images[j].Page || string(g.Images[j].Data) != string(wnt.Images[j].Data) {
				t.Fatalf("record %d image %d mismatch", i, j)
			}
		}
	}
}

// legacyQueryFrameHex is one complete frame — CRC, length, payload — of
// the query record earlier versions logged on every successful query:
// LSN 2, table "t", column 1, flag byte 0, range [5, 9]. It was produced
// by that version's encoder and must keep replaying.
const legacyQueryFrameHex = "2e0cd4f3230000000200000000000000" +
	"040100740100000000010500000000000000010900000000000000"

// legacyFlagOffset is the flag byte's offset in the legacy payload:
// lsn, kind, name length, name "t", column.
const legacyFlagOffset = 8 + 1 + 2 + 1 + 4

// legacyQueryPayload returns the fixture's payload after checking that
// its header matches it.
func legacyQueryPayload(t testing.TB) []byte {
	t.Helper()
	whole, err := hex.DecodeString(legacyQueryFrameHex)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame(whole[8:]), whole) {
		t.Fatal("legacy fixture header does not match its payload")
	}
	return whole[8:]
}

// frame wraps a payload in its CRC and length header.
func frame(payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], crc32.Checksum(payload, crcTable))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	return append(hdr[:], payload...)
}

func dmlPayload(t testing.TB, lsn LSN) []byte {
	t.Helper()
	rec := dmlRecord("t", int(lsn))
	rec.LSN = lsn
	buf, err := encodePayload(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// spanRecord is a two-page update at lsn: three spans of page 4 (the
// page header, a slot entry and a payload) and one of page 9.
func spanRecord(lsn LSN) *Record {
	return &Record{
		LSN: lsn, Kind: KindUpdate, Table: "t", Pages: 10,
		RID: storage.RID{Page: 9, Slot: 0}, OldRID: storage.RID{Page: 4, Slot: 2},
		Images: []PageImage{
			{Page: 4, Off: 0, Data: []byte{3, 0, 0x10, 0x1f}},
			{Page: 4, Off: 16, Data: []byte{0xff, 0xff, 0, 0}},
			{Page: 4, Off: 8000, Data: bytes.Repeat([]byte{7}, 192)},
			{Page: 9, Off: 8, Data: []byte{0xc0, 0x1f, 0x40, 0}},
		},
	}
}

func encoded(t testing.TB, rec *Record) []byte {
	t.Helper()
	buf, err := encodePayload(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// legacyDMLPayload is the encoder of versions that logged full page
// images: the kind byte without spanLayout, and each entry
// page(u32) | size(u32) | image.
func legacyDMLPayload(rec *Record) []byte {
	var buf []byte
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rec.LSN))
	buf = append(buf, byte(rec.Kind))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(rec.Table)))
	buf = append(buf, rec.Table...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rec.Pages))
	buf = appendRID(buf, rec.RID)
	buf = appendRID(buf, rec.OldRID)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(rec.Images)))
	for _, im := range rec.Images {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(im.Page))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(im.Data)))
		buf = append(buf, im.Data...)
	}
	return buf
}

// legacyImageRecord is a full-image insert at lsn, as earlier versions
// logged every insert.
func legacyImageRecord(lsn LSN) *Record {
	img := make([]byte, buffer.PageSize)
	for i := range img {
		img[i] = byte(i * 7)
	}
	return &Record{LSN: lsn, Kind: KindInsert, Table: "t", Pages: 3,
		RID: storage.RID{Page: 2, Slot: 5}, OldRID: storage.InvalidRID,
		Images: []PageImage{{Page: 2, Data: img}}}
}

// outOfPagePayload is spanRecord(lsn) with its payload span's length
// field grown by one byte, so the span ends one byte past the page; the
// bytes after it still parse.
func outOfPagePayload(t testing.TB, lsn LSN) []byte {
	t.Helper()
	rec := spanRecord(lsn)
	rec.Images = rec.Images[2:3]
	buf := encoded(t, rec)
	lenAt := len(buf) - 192 - 2
	if binary.LittleEndian.Uint16(buf[lenAt:]) != 192 {
		t.Fatal("out-of-page fixture: length field not where expected")
	}
	binary.LittleEndian.PutUint16(buf[lenAt:], 193)
	return append(buf, 7)
}

// TestSpanRecordLayouts round-trips a multi-span two-page record,
// decodes a full-image record of an earlier version as one span at
// offset 0, and refuses spans that do not lie inside their page at both
// ends of the codec.
func TestSpanRecordLayouts(t *testing.T) {
	t.Parallel()
	want := spanRecord(5)
	var got Record
	if err := decodePayload(encoded(t, want), &got); err != nil {
		t.Fatal(err)
	}
	if got.LSN != want.LSN || got.Kind != want.Kind || got.Pages != want.Pages ||
		got.RID != want.RID || got.OldRID != want.OldRID || len(got.Images) != len(want.Images) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	for i, im := range got.Images {
		w := want.Images[i]
		if im.Page != w.Page || im.Off != w.Off || !bytes.Equal(im.Data, w.Data) {
			t.Fatalf("span %d: %+v, want %+v", i, im, w)
		}
	}

	legacy := legacyImageRecord(6)
	var old Record
	if err := decodePayload(legacyDMLPayload(legacy), &old); err != nil {
		t.Fatal(err)
	}
	if old.Kind != KindInsert || len(old.Images) != 1 || old.Images[0].Page != 2 || old.Images[0].Off != 0 ||
		!bytes.Equal(old.Images[0].Data, legacy.Images[0].Data) {
		t.Fatalf("legacy full image decoded as %+v", old)
	}

	if err := decodePayload(outOfPagePayload(t, 7), &got); err == nil {
		t.Fatal("decoded a span that ends past the page")
	}
	for _, im := range []PageImage{
		{Page: 1, Off: buffer.PageSize - 3, Data: make([]byte, 4)},
		{Page: 1, Off: 0, Data: make([]byte, buffer.PageSize+1)},
		{Page: 1, Off: 12},
	} {
		rec := spanRecord(8)
		rec.Images = append(rec.Images, im)
		if _, err := encodePayload(nil, rec); err == nil {
			t.Errorf("encoded a span of %d bytes at offset %d", len(im.Data), im.Off)
		}
	}
	tooLong := legacyImageRecord(9)
	tooLong.Images[0].Data = append(tooLong.Images[0].Data, 0)
	if err := decodePayload(legacyDMLPayload(tooLong), &got); err == nil {
		t.Fatal("decoded a full image larger than a page")
	}
}

// writeSegment writes one segment starting at LSN 1 holding the given
// frames back to back.
func writeSegment(t *testing.T, dir string, frames ...[]byte) {
	t.Helper()
	var seg []byte
	for _, f := range frames {
		seg = append(seg, f...)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestQueryRecordFlagByte replays a log written before reads stopped
// logging: a legacy query frame between two DML records, with its flag
// byte 0 (as written) or 1 (a point query's former equality flag). Both
// DML records are delivered, the query frame is not, and Last/Next
// advance past all three.
func TestQueryRecordFlagByte(t *testing.T) {
	t.Parallel()
	for _, flag := range []byte{0, 1} {
		legacy := legacyQueryPayload(t)
		if legacy[legacyFlagOffset] != 0 {
			t.Fatalf("fixture flag byte = %d, want 0", legacy[legacyFlagOffset])
		}
		legacy[legacyFlagOffset] = flag
		dir := t.TempDir()
		writeSegment(t, dir, frame(dmlPayload(t, 1)), frame(legacy), frame(dmlPayload(t, 3)))

		var lsns []LSN
		info, err := Replay(dir, 0, func(r *Record) error {
			if r.Kind != KindInsert {
				t.Errorf("flag %d: delivered a %s record", flag, r.Kind)
			}
			lsns = append(lsns, r.LSN)
			return nil
		})
		if err != nil {
			t.Fatalf("flag %d: %v", flag, err)
		}
		if len(lsns) != 2 || lsns[0] != 1 || lsns[1] != 3 {
			t.Fatalf("flag %d: delivered %v, want [1 3]", flag, lsns)
		}
		if info.Records != 2 || info.Last != 3 || info.Next != 4 || info.TornBytes != 0 {
			t.Fatalf("flag %d: info = %+v", flag, info)
		}
	}
}

// TestLegacyQueryTruncatedBodyFails: a CRC-valid legacy query frame
// whose body is cut short is structural corruption — replay refuses
// rather than repairing it as a torn tail.
func TestLegacyQueryTruncatedBodyFails(t *testing.T) {
	t.Parallel()
	legacy := legacyQueryPayload(t)
	for cut := legacyFlagOffset - 4; cut < len(legacy); cut++ {
		dir := t.TempDir()
		writeSegment(t, dir, frame(dmlPayload(t, 1)), frame(legacy[:cut]))
		info, err := Replay(dir, 0, func(*Record) error { return nil })
		if err == nil {
			t.Fatalf("cut %d: replay accepted a truncated query body (info %+v)", cut, info)
		}
		if info.TornBytes != 0 {
			t.Fatalf("cut %d: truncated body repaired as a torn tail", cut)
		}
	}
}

// FuzzDecodePayload: the decoder never panics, never allocates beyond
// maxPayload whatever the claimed counts and lengths, and every DML
// record it accepts re-encodes to the identical bytes — in the span
// layout, which a full-image record of an earlier version re-encodes to
// as the same record.
func FuzzDecodePayload(f *testing.F) {
	dml := dmlPayload(f, 1)
	legacy := legacyQueryPayload(f)
	seeds := [][]byte{dml, legacy, encoded(f, spanRecord(2)),
		outOfPagePayload(f, 3), legacyDMLPayload(legacyImageRecord(4))}
	for _, seed := range seeds {
		f.Add(seed)
		for _, cut := range []int{1, 11, 12, len(seed) / 2, len(seed) - 1} {
			f.Add(seed[:cut])
		}
	}
	// A DML header claiming 65535 page images with no bytes behind them.
	const imageCount = 8 + 1 + 2 + 1 + 4 + 6 + 6 // lsn … old RID, name "t"
	f.Add(append(dml[:imageCount:imageCount], 0xff, 0xff))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var r Record
		err := decodePayload(payload, &r)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > maxPayload {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(payload), grew)
		}
		if err != nil || r.Kind == kindQuery {
			return
		}
		re, err := encodePayload(nil, &r)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		if payload[8]&spanLayout == 0 {
			// A full-image record: its span layout must carry the same
			// record, which the old encoder then reproduces.
			var again Record
			if err := decodePayload(re, &again); err != nil {
				t.Fatalf("re-encoded full-image record does not decode: %v", err)
			}
			if !bytes.Equal(legacyDMLPayload(&again), payload) {
				t.Fatalf("full-image record %x changed in the span layout", payload)
			}
			return
		}
		if !bytes.Equal(re, payload) {
			t.Fatalf("re-encoded %x, decoded from %x", re, payload)
		}
	})
}

// FuzzReplay writes a segment of n%4 valid records followed by
// arbitrary bytes. Replay never panics; when it succeeds it delivers
// the valid prefix and strictly increasing LSNs, and a second replay of
// the repaired log delivers the same records with nothing to repair.
func FuzzReplay(f *testing.F) {
	f.Add(uint8(3), []byte{})
	f.Add(uint8(2), frame(dmlPayload(f, 3))[:20])
	f.Add(uint8(2), frame(dmlPayload(f, 3)))
	f.Add(uint8(2), frame(dmlPayload(f, 2))) // an LSN out of order
	f.Add(uint8(1), frame(legacyQueryPayload(f)))
	f.Add(uint8(0), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add(uint8(1), frame(encoded(f, spanRecord(2))))
	f.Add(uint8(3), frame(outOfPagePayload(f, 4)))
	f.Add(uint8(2), frame(legacyDMLPayload(legacyImageRecord(3))))
	f.Fuzz(func(t *testing.T, n uint8, tail []byte) {
		dir := t.TempDir()
		prefix := int(n % 4)
		var frames [][]byte
		for lsn := 1; lsn <= prefix; lsn++ {
			frames = append(frames, frame(dmlPayload(t, LSN(lsn))))
		}
		writeSegment(t, dir, append(frames, tail)...)
		replay := func() ([]LSN, ReplayInfo, error) {
			var lsns []LSN
			info, err := Replay(dir, 0, func(r *Record) error {
				lsns = append(lsns, r.LSN)
				return nil
			})
			return lsns, info, err
		}
		first, _, err := replay()
		if err != nil {
			return
		}
		if len(first) < prefix {
			t.Fatalf("delivered %v, lost part of the %d-record valid prefix", first, prefix)
		}
		for i, lsn := range first {
			if i < prefix && lsn != LSN(i+1) || i > 0 && lsn <= first[i-1] {
				t.Fatalf("delivered LSNs %v", first)
			}
		}
		again, info, err := replay()
		if err != nil || info.TornBytes != 0 || !slices.Equal(again, first) {
			t.Fatalf("second replay: %v %+v %v, first delivered %v", again, info, err, first)
		}
	})
}

func TestReplayWatermarkSkips(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	w, err := Create(dir, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := w.Append(dmlRecord("t", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var first LSN
	info, err := Replay(dir, 6, func(r *Record) error {
		if first == 0 {
			first = r.LSN
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != 7 || info.Records != 4 || info.Skipped != 6 {
		t.Fatalf("first=%d info=%+v", first, info)
	}
}

// TestTornTailRepair crashes mid-record: the log's last frame is cut at
// every possible byte boundary and replay must deliver exactly the
// records before it, truncating the garbage.
func TestTornTailRepair(t *testing.T) {
	t.Parallel()
	build := func(dir string) string {
		w, err := Create(dir, Options{Policy: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := w.Append(dmlRecord("t", i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := listSegments(dir)
		if err != nil || len(segs) != 1 {
			t.Fatalf("segments: %v %v", segs, err)
		}
		return segs[0].path
	}

	ref := t.TempDir()
	path := build(ref)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Find the offset of the third record by replaying two.
	sizes := []int{}
	off := 0
	for off < len(whole) {
		size := int(uint32(whole[off+4]) | uint32(whole[off+5])<<8 | uint32(whole[off+6])<<16 | uint32(whole[off+7])<<24)
		sizes = append(sizes, 8+size)
		off += 8 + size
	}
	if len(sizes) != 3 {
		t.Fatalf("found %d frames", len(sizes))
	}
	rec3Start := sizes[0] + sizes[1]

	for cut := rec3Start + 1; cut < len(whole); cut += 7 {
		dir := t.TempDir()
		p := build(dir)
		if err := os.Truncate(p, int64(cut)); err != nil {
			t.Fatal(err)
		}
		n := 0
		info, err := Replay(dir, 0, func(*Record) error { n++; return nil })
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if n != 2 || info.Last != 2 || info.TornBytes != int64(cut-rec3Start) {
			t.Fatalf("cut %d: n=%d info=%+v", cut, n, info)
		}
		// The repair is durable: a second replay sees a clean log.
		info2, err := Replay(dir, 0, func(*Record) error { return nil })
		if err != nil || info2.TornBytes != 0 || info2.Last != 2 {
			t.Fatalf("cut %d second replay: %+v %v", cut, info2, err)
		}
	}
}

// TestCorruptTailRepair flips bytes inside the final record — the CRC
// must reject it and replay must truncate.
func TestCorruptTailRepair(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	w, err := Create(dir, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Append(dmlRecord("t", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0xff
	if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	n := 0
	info, err := Replay(dir, 0, func(*Record) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || info.Last != 2 || info.TornBytes == 0 {
		t.Fatalf("n=%d info=%+v", n, info)
	}
}

// TestCorruptMiddleSegmentFails: corruption before the final segment
// would lose acknowledged records — replay must refuse, not repair.
func TestCorruptMiddleSegmentFails(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	w, err := Create(dir, Options{Policy: SyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := w.Append(dmlRecord("t", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("only %d segments; rotation broken?", len(segs))
	}
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, 0, func(*Record) error { return nil }); err == nil {
		t.Fatal("replay of corrupt middle segment should fail")
	}
}

func TestSegmentRotationAndTruncate(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	w, err := Create(dir, Options{Policy: SyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := w.Append(dmlRecord("t", i)); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := listSegments(dir)
	if len(segs) < 4 {
		t.Fatalf("%d segments, want >= 4", len(segs))
	}
	// Truncating to LSN 20 must keep every record > 20 replayable.
	if err := w.TruncateTo(20); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	after, _ := listSegments(dir)
	if len(after) >= len(segs) {
		t.Fatalf("truncate removed nothing: %d -> %d segments", len(segs), len(after))
	}
	var lsns []LSN
	if _, err := Replay(dir, 20, func(r *Record) error { lsns = append(lsns, r.LSN); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(lsns) != 20 || lsns[0] != 21 || lsns[len(lsns)-1] != 40 {
		t.Fatalf("replayed %v", lsns)
	}
}

func TestOpenContinuesLSNs(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	w, err := Create(dir, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := w.Append(dmlRecord("t", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := Replay(dir, 0, func(*Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Options{Policy: SyncNever}, info.Next)
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := w2.Append(dmlRecord("t", 99))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 6 {
		t.Fatalf("continued lsn = %d, want 6", lsn)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	if _, err := Replay(dir, 0, func(*Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("replayed %d records, want 6", n)
	}
}

// TestGroupCommitDurability: concurrent committers under SyncBatch all
// return with their record durable, and the fsync count stays well
// below one per commit.
func TestGroupCommitDurability(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	w, err := Create(dir, Options{Policy: SyncBatch, SyncDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lsn, err := w.Append(dmlRecord("t", g*per+i))
				if err != nil {
					t.Error(err)
					return
				}
				if err := w.Commit(lsn); err != nil {
					t.Error(err)
					return
				}
				if w.DurableLSN() < lsn {
					t.Errorf("commit returned before durable: %d < %d", w.DurableLSN(), lsn)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := w.Stats()
	if st.Appends != workers*per {
		t.Fatalf("appends = %d", st.Appends)
	}
	if st.Syncs >= st.Commits {
		t.Errorf("group commit did not batch: %d syncs for %d commits", st.Syncs, st.Commits)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	if _, err := Replay(dir, 0, func(*Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != workers*per {
		t.Fatalf("replayed %d, want %d", n, workers*per)
	}
}

// BenchmarkGroupCommit runs two committers that each spend cpu of
// processor time per statement, as a server does parsing and
// answering, then append and commit one record: the shape in which a
// handed-over fsync slot must start its fsync at once.
//
//	go test -run '^$' -bench GroupCommit -benchtime 3000x ./internal/wal
func BenchmarkGroupCommit(b *testing.B) {
	const committers, cpu = 2, 100 * time.Microsecond
	w, err := Create(b.TempDir(), Options{Policy: SyncBatch})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	var wg sync.WaitGroup
	b.ResetTimer()
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < b.N; i += committers {
				for end := time.Now().Add(cpu); time.Now().Before(end); {
				}
				lsn, err := w.Append(dmlRecord("t", i))
				if err == nil {
					err = w.Commit(lsn)
				}
				if err != nil {
					b.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	b.StopTimer()
	st := w.Stats()
	b.ReportMetric(float64(st.Commits)/float64(st.Syncs), "commits/fsync")
}

// TestLoneCommitterOneFsyncPerCommit: with no other committer to share
// with, group commit pays exactly one fsync per Commit.
func TestLoneCommitterOneFsyncPerCommit(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	w, err := Create(dir, Options{Policy: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		lsn, err := w.Append(dmlRecord("t", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if st := w.Stats(); st.Syncs != 10 {
		t.Errorf("a lone committer issued %d fsyncs for 10 commits", st.Syncs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestForceWriteAhead: Force fsyncs under every policy, including
// SyncNever, only when the log is not yet durable through the LSN, and
// never counts as a Commit.
func TestForceWriteAhead(t *testing.T) {
	t.Parallel()
	w, err := Create(t.TempDir(), Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	first, err := w.Append(dmlRecord("t", 1))
	if err != nil {
		t.Fatal(err)
	}
	second, err := w.Append(dmlRecord("t", 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Force(first); err != nil {
		t.Fatal(err)
	}
	if got := w.DurableLSN(); got != second {
		t.Fatalf("DurableLSN after Force = %d, want %d (everything appended)", got, second)
	}
	if err := w.Force(second); err != nil { // already durable: no fsync
		t.Fatal(err)
	}
	if st := w.Stats(); st.Syncs != 1 || st.Commits != 0 {
		t.Fatalf("after two Forces: %d fsyncs, %d commits; want 1, 0", st.Syncs, st.Commits)
	}
}

func TestCreateClearsStaleSegments(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	stale := filepath.Join(dir, segName(1))
	if err := os.WriteFile(stale, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := Create(dir, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := Replay(dir, 0, func(*Record) error { return nil })
	if err != nil || info.Records != 0 {
		t.Fatalf("stale log not cleared: %+v %v", info, err)
	}
}

// TestCrashLoopReopenKeepsAcknowledgedRecords is the crash / restart /
// no-appends / crash / restart sequence: the second Open lands on a
// tail segment whose first LSN equals the resume point. A duplicate
// w.segs entry there let TruncateTo read the duplicate as a successor
// and unlink the live segment, so every later acknowledged commit went
// to an unlinked inode and vanished on the next replay.
func TestCrashLoopReopenKeepsAcknowledgedRecords(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	opts := Options{Policy: SyncBatch}
	w, err := Create(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		lsn, err := w.Append(dmlRecord("t", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart 1: replay, reopen, crash again without appending — the
	// fresh tail segment stays empty with first LSN == next.
	info, err := Replay(dir, 0, func(*Record) error { return nil })
	if err != nil || info.Next != 4 {
		t.Fatalf("replay 1: %+v %v", info, err)
	}
	w, err = Open(dir, opts, info.Next)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart 2: reopen at the same LSN, checkpoint-truncate at the
	// replayed watermark, then append and acknowledge more records.
	info, err = Replay(dir, 0, func(*Record) error { return nil })
	if err != nil || info.Records != 3 || info.Next != 4 {
		t.Fatalf("replay 2: %+v %v", info, err)
	}
	w, err = Open(dir, opts, info.Next)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.TruncateTo(info.Next - 1); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 5; i++ {
		lsn, err := w.Append(dmlRecord("t", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(lsn); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: no Close. The acknowledged records must be on disk.
	var lsns []LSN
	info, err = Replay(dir, 3, func(r *Record) error {
		lsns = append(lsns, r.LSN)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lsns) != 2 || lsns[0] != 4 || lsns[1] != 5 {
		t.Fatalf("replay after crash loop delivered %v, want [4 5] (info %+v)", lsns, info)
	}
}

// TestSyncDuringRotationNotSticky races two committers, each appending
// and forcing its own records, against segments that rotate every few
// records. An fsync that loses the race — its captured file is rotated
// away and closed before the fsync — must not record the resulting
// ErrClosed as the sticky syncErr: the rotation already made those
// bytes durable.
func TestSyncDuringRotationNotSticky(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	w, err := Create(dir, Options{Policy: SyncBatch, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			lsn, err := w.Append(dmlRecord("t", i))
			if err != nil {
				errCh <- err
				return
			}
			if err := w.Commit(lsn); err != nil {
				errCh <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			lsn, err := w.Append(dmlRecord("t", 300+i))
			if err != nil {
				errCh <- err
				return
			}
			if err := w.Force(lsn); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("sync/rotation race surfaced an error: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := Replay(dir, 0, func(*Record) error { return nil })
	if err != nil || info.Records != 600 {
		t.Fatalf("replay: %+v %v", info, err)
	}
}

// TestSyncNeverCommitReachesOSCache: SyncNever's contract is that a
// committed record survives a process crash (only an OS crash may lose
// it), so Commit must at least flush the user-space buffer.
func TestSyncNeverCommitReachesOSCache(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	w, err := Create(dir, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := w.Append(dmlRecord("t", 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close, no Sync. The record must be visible in the file.
	var got int
	info, err := Replay(dir, 0, func(*Record) error { got++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 || info.Last != 1 {
		t.Fatalf("after SyncNever commit + process crash: %d records (info %+v), want 1", got, info)
	}
	w.Close()
}

// TestTelemetryCountsMatchStats pins the /metrics acceptance contract:
// under group commit the fsync-latency histogram observes exactly once
// per counted fsync, and the batch-size histogram's total equals the
// records made durable.
func TestTelemetryCountsMatchStats(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	w, err := Create(dir, Options{Policy: SyncBatch, SyncDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lsn, err := w.Append(dmlRecord("t", g*per+i))
				if err != nil {
					t.Error(err)
					return
				}
				if err := w.Commit(lsn); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	tel := w.Telemetry()
	if tel.Appends != workers*per || tel.Commits != workers*per {
		t.Fatalf("counters wrong: %+v", tel.Stats)
	}
	if got, want := tel.FsyncLatency.Count, int(tel.Syncs); got != want {
		t.Errorf("fsync histogram observed %d times, Stats.Syncs = %d", got, want)
	}
	if tel.FsyncLatency.Max < (time.Millisecond).Seconds() {
		t.Errorf("fsync latency max %.6fs below the simulated 1ms device delay", tel.FsyncLatency.Max)
	}
	if got := uint64(tel.CommitBatch.Sum); got != uint64(tel.DurableLSN) {
		t.Errorf("batch-size histogram sums to %d, durable LSN is %d", got, tel.DurableLSN)
	}
	if tel.CommitBatch.Count == 0 || tel.LastBatch == 0 {
		t.Errorf("batch telemetry empty: %+v", tel)
	}
	if tel.SyncErr != "" {
		t.Errorf("healthy writer reports sync error %q", tel.SyncErr)
	}
	if tel.ActiveSegments < 1 {
		t.Errorf("active segments = %d, want >= 1", tel.ActiveSegments)
	}
	if w.SyncError() != nil {
		t.Errorf("SyncError = %v on a healthy writer", w.SyncError())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
