// Package wal is the engine's write-ahead log: segmented append-only
// files of CRC-framed records that make DataDir-backed tables
// crash-consistent. Every record is DML: it carries both the
// operation's logical description and, for each heap page it dirtied,
// the byte spans the operation wrote. Recovery (ARIES-style redo,
// physical variant) patches the spans onto the page files in LSN order
// on top of the last checkpoint. That is idempotent whichever dirty
// pages the buffer pool had flushed before the crash: every byte
// changed since the checkpoint gets the last value the log holds for
// it, and every other byte is the same in every durable version of the
// page. Reads never write the log: the Index Buffers are volatile by
// design (paper §III) and start empty after recovery.
//
// Logs written by earlier versions stay readable. Their DML records
// carry full page images, which decode as one span at offset 0 of each
// page, and they may hold query records (kind 4), which Replay
// validates and steps past without delivering.
//
// Durability is governed by a SyncPolicy: SyncBatch (the default) is
// group commit — a commit forces the log through its record, and
// committers that queue behind an fsync in flight are covered by the
// next one, so throughput scales with the commit concurrency — while
// SyncNever leaves syncing to the OS (and to Force, which checkpoints
// and the write-ahead rule always call).
//
// On-disk format, little-endian throughout:
//
//	segment file  <dir>/wal-<firstLSN:016x>.seg
//	frame         crc32c(u32) | payloadLen(u32) | payload
//	payload       lsn(u64) | kind(u8) | tableLen(u16) | table | body
//	DML body      pages(u32) | rid | oldRID | count(u16) | count × span
//	rid           page(u32) | slot(u16)
//	span          page(u32) | offset(u16) | len(u16) | len bytes
//
// A DML record's kind byte has the spanLayout bit set. Without it
// (earlier versions) each of the count entries is
// page(u32) | size(u32) | size bytes, a full image.
//
// The CRC covers the payload only; a torn or corrupt frame at the tail
// of the last segment is repaired (truncated) during replay, which is
// exactly the crash case: the record was never acknowledged.
package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/storage"
)

// LSN is a log sequence number. LSNs start at 1 and increase by one per
// appended record; 0 means "before the first record" (an empty log's
// checkpoint position).
type LSN uint64

// Kind discriminates record types.
type Kind uint8

const (
	// KindInsert logs one tuple insert: RID is the assigned location,
	// Images holds the spans it wrote on the dirtied heap page.
	KindInsert Kind = 1
	// KindDelete logs one tuple delete at RID.
	KindDelete Kind = 2
	// KindUpdate logs one tuple update: OldRID is the pre-image
	// location, RID the (possibly relocated) result; Images holds the
	// spans of one or two dirtied pages. An update that failed after
	// changing its page (a relocation undone) is logged as an update of
	// the row onto itself, RID == OldRID, so that change is logged too.
	KindUpdate Kind = 3
	// kindQuery is a legacy query descriptor that earlier versions
	// logged on every successful query. Nothing writes it any more;
	// decodePayload still validates its body (column u32, flag byte, two
	// values) and Replay steps past it without delivering it.
	kindQuery Kind = 4

	// spanLayout marks a DML record's kind byte on disk: its page
	// entries are spans. A DML kind byte without it is the full-image
	// layout earlier versions wrote.
	spanLayout = 0x80
)

func (k Kind) String() string {
	switch k {
	case KindInsert:
		return "insert"
	case KindDelete:
		return "delete"
	case KindUpdate:
		return "update"
	case kindQuery:
		return "query"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// PageImage is one span of a heap page that a record's operation
// wrote: after the operation, the bytes Data sit at byte Off of page
// Page. A full page image is the span at Off 0 with buffer.PageSize
// bytes; it is what a record carries for a page whose writes were not
// tracked, and what a full-image record of an earlier version decodes
// to.
type PageImage struct {
	Page storage.PageID
	Off  int
	Data []byte
}

// Record is one DML log record.
type Record struct {
	LSN   LSN
	Kind  Kind
	Table string

	// Pages is the table's heap page count after the operation, so
	// recovery knows the final heap extent without probing the file.
	Pages  int
	RID    storage.RID
	OldRID storage.RID
	// Images is every span the operation wrote, page by page, in the
	// order redo patches them. Each lies inside its page: Off >= 0,
	// Data non-empty, Off+len(Data) <= buffer.PageSize.
	Images []PageImage
}

// maxPayload bounds a decoded frame's claimed payload size, so a torn
// length field cannot trigger a giant allocation. Two full 8 KiB pages
// plus slack is the largest legitimate record by far.
const maxPayload = 1 << 20

// checkSpan reports whether a span of n bytes at off lies inside a page.
func checkSpan(page storage.PageID, off, n int) error {
	if off < 0 || n <= 0 || off+n > buffer.PageSize {
		return fmt.Errorf("wal: span of %d bytes at offset %d of page %d is not inside the page", n, off, page)
	}
	return nil
}

// value kind tags in the payload encoding.
const (
	valInvalid = 0
	valInt64   = 1
	valString  = 2
)

// readValue decodes a storage.Value, returning the remaining buffer.
// Only legacy query records carry values.
func readValue(buf []byte) (storage.Value, []byte, error) {
	if len(buf) < 1 {
		return storage.Value{}, nil, fmt.Errorf("wal: truncated value")
	}
	tag := buf[0]
	buf = buf[1:]
	switch tag {
	case valInvalid:
		return storage.Value{}, buf, nil
	case valInt64:
		if len(buf) < 8 {
			return storage.Value{}, nil, fmt.Errorf("wal: truncated int64 value")
		}
		v := storage.Int64Value(int64(binary.LittleEndian.Uint64(buf)))
		return v, buf[8:], nil
	case valString:
		if len(buf) < 4 {
			return storage.Value{}, nil, fmt.Errorf("wal: truncated string length")
		}
		n := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		if n < 0 || len(buf) < n {
			return storage.Value{}, nil, fmt.Errorf("wal: truncated string value")
		}
		return storage.StringValue(string(buf[:n])), buf[n:], nil
	default:
		return storage.Value{}, nil, fmt.Errorf("wal: unknown value tag %d", tag)
	}
}

func appendRID(buf []byte, rid storage.RID) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rid.Page))
	return binary.LittleEndian.AppendUint16(buf, rid.Slot)
}

func readRID(buf []byte) (storage.RID, []byte, error) {
	if len(buf) < 6 {
		return storage.RID{}, nil, fmt.Errorf("wal: truncated RID")
	}
	rid := storage.RID{
		Page: storage.PageID(binary.LittleEndian.Uint32(buf)),
		Slot: binary.LittleEndian.Uint16(buf[4:]),
	}
	return rid, buf[6:], nil
}

// encodePayload appends the record's payload (everything the CRC
// covers) to buf.
func encodePayload(buf []byte, r *Record) ([]byte, error) {
	if len(r.Table) > 1<<16-1 {
		return nil, fmt.Errorf("wal: table name of %d bytes", len(r.Table))
	}
	switch r.Kind {
	case KindInsert, KindDelete, KindUpdate:
	default:
		return nil, fmt.Errorf("wal: cannot encode record of kind %d", r.Kind)
	}
	if len(r.Images) > 1<<16-1 {
		return nil, fmt.Errorf("wal: %d spans in one record", len(r.Images))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.LSN))
	buf = append(buf, byte(r.Kind)|spanLayout)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Table)))
	buf = append(buf, r.Table...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Pages))
	buf = appendRID(buf, r.RID)
	buf = appendRID(buf, r.OldRID)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Images)))
	for _, im := range r.Images {
		if err := checkSpan(im.Page, im.Off, len(im.Data)); err != nil {
			return nil, err
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(im.Page))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(im.Off))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(im.Data)))
		buf = append(buf, im.Data...)
	}
	return buf, nil
}

// decodePayload parses one payload into r. A legacy query record is
// validated as strictly as a DML one but fills only LSN, Kind and
// Table. A DML record's spans alias one copy of the payload's body; a
// span that does not lie inside its page is an error.
func decodePayload(buf []byte, r *Record) error {
	if len(buf) < 11 {
		return fmt.Errorf("wal: payload of %d bytes is too short", len(buf))
	}
	r.LSN = LSN(binary.LittleEndian.Uint64(buf))
	r.Kind = Kind(buf[8])
	spans := r.Kind&spanLayout != 0
	if spans {
		r.Kind &^= spanLayout
		if r.Kind == kindQuery {
			return fmt.Errorf("wal: query record in the span layout")
		}
	}
	nameLen := int(binary.LittleEndian.Uint16(buf[9:]))
	buf = buf[11:]
	if len(buf) < nameLen {
		return fmt.Errorf("wal: truncated table name")
	}
	r.Table = string(buf[:nameLen])
	buf = buf[nameLen:]
	switch r.Kind {
	case KindInsert, KindDelete, KindUpdate:
		if len(buf) < 4+6+6+2 {
			return fmt.Errorf("wal: truncated DML record")
		}
		r.Pages = int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		var err error
		if r.RID, buf, err = readRID(buf); err != nil {
			return err
		}
		if r.OldRID, buf, err = readRID(buf); err != nil {
			return err
		}
		n := int(binary.LittleEndian.Uint16(buf))
		buf = buf[2:]
		if n > len(buf)/9 { // each span needs its 8-byte header and a byte
			return fmt.Errorf("wal: truncated span header")
		}
		buf = bytes.Clone(buf)
		r.Images = make([]PageImage, 0, n)
		for i := 0; i < n; i++ {
			if len(buf) < 8 {
				return fmt.Errorf("wal: truncated span header")
			}
			im := PageImage{Page: storage.PageID(binary.LittleEndian.Uint32(buf))}
			var size int
			if spans {
				im.Off = int(binary.LittleEndian.Uint16(buf[4:]))
				size = int(binary.LittleEndian.Uint16(buf[6:]))
			} else {
				size = int(binary.LittleEndian.Uint32(buf[4:]))
			}
			buf = buf[8:]
			if err := checkSpan(im.Page, im.Off, size); err != nil {
				return err
			}
			if len(buf) < size {
				return fmt.Errorf("wal: truncated span")
			}
			im.Data, buf = buf[:size:size], buf[size:]
			r.Images = append(r.Images, im)
		}
	case kindQuery:
		if len(buf) < 5 {
			return fmt.Errorf("wal: truncated query record")
		}
		buf = buf[5:] // column and flag byte
		var err error
		for i := 0; i < 2; i++ { // lo, hi
			if _, buf, err = readValue(buf); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("wal: unknown record kind %d", r.Kind)
	}
	if len(buf) != 0 {
		return fmt.Errorf("wal: %d trailing bytes after record", len(buf))
	}
	return nil
}
