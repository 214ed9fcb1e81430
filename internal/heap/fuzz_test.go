package heap

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/buffer"
	"repro/internal/storage"
)

// FuzzSlottedPageValidate feeds arbitrary page images through Validate
// and, when a page validates, exercises every read operation. The
// contract under test: Validate-approved pages never cause panics or
// out-of-bounds slices.
func FuzzSlottedPageValidate(f *testing.F) {
	// Seed: an empty page, and one with a few real tuples.
	f.Add(make([]byte, buffer.PageSize))
	seeded := make([]byte, buffer.PageSize)
	sp, _ := AsPage(seeded)
	sp.Insert([]byte("hello"))
	sp.Insert(bytes.Repeat([]byte("x"), 300))
	f.Add(seeded)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) != buffer.PageSize {
			// Pad/trim to page size so the fuzzer explores headers.
			fixed := make([]byte, buffer.PageSize)
			copy(fixed, data)
			data = fixed
		}
		p, err := AsPage(data)
		if err != nil {
			t.Fatalf("AsPage on full-size buffer: %v", err)
		}
		if err := p.Validate(); err != nil {
			return // corrupt image correctly rejected
		}
		// A validated page must be fully readable without panics.
		n := p.NumSlots()
		live := 0
		for i := 0; i < n; i++ {
			if !p.Live(i) {
				continue
			}
			live++
			if _, err := p.Tuple(i); err != nil {
				t.Errorf("validated page: Tuple(%d) failed: %v", i, err)
			}
		}
		if got := p.LiveCount(); got != live {
			t.Errorf("LiveCount %d != counted %d", got, live)
		}
		_ = p.FreeSpace()
	})
}

// scanLayouts are FuzzScanPage's schemas, each scanned by its column 1:
// an INTEGER key after an INTEGER (the fixed-offset path), an INTEGER
// key after a VARCHAR (a walk from the first column), and a VARCHAR key.
var scanLayouts = []struct {
	name   string
	schema *storage.Schema
}{
	{"integer-first", storage.MustSchema(
		storage.Column{Name: "a", Kind: storage.KindInt64},
		storage.Column{Name: "b", Kind: storage.KindInt64},
		storage.Column{Name: "p", Kind: storage.KindString})},
	{"varchar-before-integer", storage.MustSchema(
		storage.Column{Name: "s", Kind: storage.KindString},
		storage.Column{Name: "k", Kind: storage.KindInt64})},
	{"varchar-key", storage.MustSchema(
		storage.Column{Name: "k", Kind: storage.KindInt64},
		storage.Column{Name: "s", Kind: storage.KindString})},
}

// fuzzPage builds a page image from fuzz bytes, a run of records: a
// flag byte, a length byte, then that many body bytes. Flag bit 0 makes
// the body a well-formed tuple of s (encodeFrom) instead of raw bytes;
// bit 1 appends a byte and bit 2 drops the last one; bit 3 deletes the
// slot again, so pages have dead slots.
func fuzzPage(s *storage.Schema, data []byte) []byte {
	img := make([]byte, buffer.PageSize)
	sp, _ := AsPage(img)
	for len(data) >= 2 {
		flag, n := data[0], int(data[1])
		body := data[2:min(2+n, len(data))]
		data = data[2+len(body):]
		payload := append([]byte(nil), body...)
		if flag&1 != 0 {
			payload = encodeFrom(s, body)
		}
		if flag&2 != 0 {
			payload = append(payload, flag)
		}
		if flag&4 != 0 && len(payload) > 0 {
			payload = payload[:len(payload)-1]
		}
		if slot, ok := sp.Insert(payload); ok && flag&8 != 0 {
			_ = sp.Delete(slot)
		}
	}
	return img
}

// encodeFrom encodes a tuple of s whose values come from body: 8 bytes
// per INTEGER, and for a VARCHAR a length byte (mod 32) and that many
// bytes; missing bytes read as zero.
func encodeFrom(s *storage.Schema, body []byte) []byte {
	next := func(n int) []byte {
		out := make([]byte, n)
		body = body[copy(out, body):]
		return out
	}
	vals := make([]storage.Value, s.NumColumns())
	for i := range vals {
		if s.Column(i).Kind == storage.KindInt64 {
			b := next(8)
			vals[i] = storage.Int64Value(int64(uint64(b[0]) | uint64(b[1])<<8 | uint64(b[7])<<56))
		} else {
			vals[i] = storage.StringValue(string(next(int(next(1)[0] % 32))))
		}
	}
	out, err := storage.EncodeTuple(s, storage.NewTuple(vals...), nil)
	if err != nil {
		panic(err)
	}
	return out
}

// FuzzScanPage holds the page kernel to a per-slot reference over page
// images built from fuzz bytes, for each of scanLayouts: the reference
// walks the live slots in order and takes each one's key from
// storage.DecodeTuple. The kernel checks framing with DecodeColumn's
// walk; DecodeTuple walks it on its own (RowSlab.Decode), and
// FuzzDecodeColumn holds the two decoders to the same answers. The
// kernel must fail exactly when the reference fails, with the error of
// the first slot that fails, without calling its callback; otherwise it
// calls the callback once, with a batch that equals the reference slot
// by slot: slot number, key and raw bytes. It holds to this both when
// it reads the page resident in the pool and when it reads the page
// past the pool into the batch's own image.
func FuzzScanPage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 20, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 3, 'a', 'b', 'c'})
	f.Add([]byte{1, 12, 9, 9, 9, 9, 9, 9, 9, 9, 2, 'x', 'y', 0, 9, 4, 1, 1, 1, 1, 1, 10, 0})
	f.Add([]byte{3, 10, 5, 0, 0, 0, 0, 0, 0, 0, 1, 'q', 5, 10, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 4, 1, 2, 3, 4, 1, 9, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, l := range scanLayouts {
			checkScanPage(t, l.name, l.schema, fuzzPage(l.schema, data))
		}
	})
}

// checkScanPage runs the kernel over img, as page 0 of a table of
// schema s keyed by column 1, and compares it with the reference.
func checkScanPage(t *testing.T, name string, s *storage.Schema, img []byte) {
	t.Helper()
	const col = 1
	d := buffer.NewSimDisk()
	if _, err := d.Allocate(); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(0, img); err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.NewPool(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := OpenTable(s, pool, 1)
	if err != nil {
		t.Fatalf("%s: a page built by Insert does not open: %v", name, err)
	}

	var slots []uint16
	var keys []storage.Value
	var raws [][]byte
	var wantErr error
	sp, _ := AsPage(img)
	for i := 0; i < sp.NumSlots() && wantErr == nil; i++ {
		if !sp.Live(i) {
			continue
		}
		raw, err := sp.Tuple(i)
		if err != nil {
			t.Fatalf("%s: slot %d of a page built by Insert: %v", name, i, err)
		}
		tu, err := storage.DecodeTuple(s, raw)
		if err != nil {
			wantErr = err
			continue
		}
		slots, keys, raws = append(slots, uint16(i)), append(keys, tu.Value(col)), append(raws, raw)
	}

	// The kernel reads the page resident, then, once an allocation has
	// evicted it, into a batch's own image.
	for _, readPast := range []bool{false, true} {
		if readPast {
			f, err := pool.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			pool.Unpin(f)
		}
		// A batch left over from another page must not leak into this one.
		b := PageBatch{Page: 9, Slots: []uint16{7}, Ints: []int64{7}, Keys: []storage.Value{storage.Int64Value(7)}, Raw: [][]byte{{7}}}
		checkScanBatch(t, fmt.Sprintf("%s (read past the pool: %v)", name, readPast), tb, s, &b, slots, keys, raws, wantErr)
	}
}

// checkScanBatch runs the kernel over page 0 of tb with b and compares
// it with the reference rows and error.
func checkScanBatch(t *testing.T, name string, tb *Table, s *storage.Schema, b *PageBatch, slots []uint16, keys []storage.Value, raws [][]byte, wantErr error) {
	t.Helper()
	const col = 1
	calls := 0
	err := tb.ScanPage(0, col, b, func(b *PageBatch) error {
		calls++
		if b.Page != 0 || !slices.Equal(b.Slots, slots) || len(b.Raw) != len(slots) {
			t.Fatalf("%s: batch of page %d has slots %v, %d raw; reference slots %v", name, b.Page, b.Slots, len(b.Raw), slots)
		}
		intKey := s.Column(col).Kind == storage.KindInt64
		if n := len(slots); (intKey && (len(b.Ints) != n || len(b.Keys) != 0)) || (!intKey && (len(b.Keys) != n || len(b.Ints) != 0)) {
			t.Fatalf("%s: %d rows with %d ints and %d keys", name, n, len(b.Ints), len(b.Keys))
		}
		for i := range slots {
			if !reflect.DeepEqual(b.Key(i), keys[i]) || !bytes.Equal(b.Raw[i], raws[i]) {
				t.Fatalf("%s: slot %d: key %v raw %x; reference key %v raw %x", name, slots[i], b.Key(i), b.Raw[i], keys[i], raws[i])
			}
		}
		return nil
	})
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%s: kernel err %v, reference err %v", name, err, wantErr)
	}
	if want := map[bool]int{true: 1, false: 0}[wantErr == nil]; calls != want {
		t.Fatalf("%s: callback ran %d times, want %d (reference err %v)", name, calls, want, wantErr)
	}
}
