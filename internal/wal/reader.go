package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// ReplayInfo summarizes one recovery pass over the log.
type ReplayInfo struct {
	// Last is the highest valid LSN seen (0 if the log is empty).
	Last LSN
	// Next is the LSN the writer should continue from.
	Next LSN
	// Records is the number of records delivered to the callback
	// (records at or below the after watermark, and legacy query
	// records, are validated but not delivered).
	Records int
	// Skipped counts validated records at or below the watermark.
	Skipped int
	// TornBytes is the size of the invalid tail truncated from the last
	// segment — a record that was mid-write at the crash.
	TornBytes int64
}

// Replay scans every segment in dir in LSN order, validates frames, and
// invokes fn for each DML record with LSN > after. A torn or corrupt tail
// in the final segment is truncated away (the record was never
// acknowledged — this is the crash case Replay exists for); corruption
// anywhere else is an error, since acknowledged records would be lost.
// A missing directory is an empty log.
func Replay(dir string, after LSN, fn func(*Record) error) (ReplayInfo, error) {
	info := ReplayInfo{Last: after, Next: after + 1}
	segs, err := listSegments(dir)
	if err != nil {
		return info, err
	}
	for i, s := range segs {
		last := i == len(segs)-1
		// A segment is entirely below the watermark when its successor
		// starts at or before it; skip without reading.
		if !last && segs[i+1].first <= after+1 {
			continue
		}
		if err := replaySegment(s, after, last, fn, &info); err != nil {
			return info, err
		}
	}
	if info.Next <= info.Last {
		info.Next = info.Last + 1
	}
	return info, nil
}

// replaySegment validates and applies one segment file.
func replaySegment(s segment, after LSN, allowTorn bool, fn func(*Record) error, info *ReplayInfo) error {
	data, err := os.ReadFile(s.path)
	if err != nil {
		return fmt.Errorf("wal: read segment: %w", err)
	}
	off := 0
	truncateAt := -1
	for off < len(data) {
		rest := data[off:]
		if len(rest) < 8 {
			truncateAt = off
			break
		}
		wantCRC := binary.LittleEndian.Uint32(rest[0:])
		size := int(binary.LittleEndian.Uint32(rest[4:]))
		if size <= 0 || size > maxPayload || len(rest) < 8+size {
			truncateAt = off
			break
		}
		payload := rest[8 : 8+size]
		if crc32.Checksum(payload, crcTable) != wantCRC {
			truncateAt = off
			break
		}
		var rec Record
		if err := decodePayload(payload, &rec); err != nil {
			// The frame passed its CRC but does not parse: structural
			// corruption, not a torn write. Never repair silently.
			return fmt.Errorf("wal: segment %s offset %d: %w", s.path, off, err)
		}
		if rec.LSN <= info.Last && rec.LSN > after {
			return fmt.Errorf("wal: segment %s: LSN %d out of order (already at %d)", s.path, rec.LSN, info.Last)
		}
		if rec.LSN > after {
			// A legacy query record holds an LSN but nothing to redo.
			if rec.Kind != kindQuery {
				if err := fn(&rec); err != nil {
					return err
				}
				info.Records++
			}
			info.Last = rec.LSN
		} else {
			info.Skipped++
		}
		off += 8 + size
	}
	if truncateAt < 0 {
		return nil
	}
	if !allowTorn {
		return fmt.Errorf("wal: segment %s: invalid frame at offset %d in a non-final segment", s.path, truncateAt)
	}
	info.TornBytes += int64(len(data) - truncateAt)
	f, err := os.OpenFile(s.path, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: repair torn tail: %w", err)
	}
	err = f.Truncate(int64(truncateAt))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: repair torn tail: %w", err)
	}
	return nil
}
