// Package heap implements slotted pages and heap tables on top of the
// buffer pool. A heap table is the unordered tuple store the paper's
// table scans run over; its page granularity is what the Index Buffer's
// per-page counters and skip decisions operate on.
package heap

import (
	"encoding/binary"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/storage"
)

// Slotted page layout (all offsets little-endian):
//
//	bytes 0..1   numSlots   — number of slot directory entries
//	bytes 2..3   dataStart  — lowest byte offset used by tuple data
//	bytes 4..7   reserved
//	bytes 8..    slot directory, 4 bytes per slot: offset u16, length u16
//	...free space...
//	dataStart..  tuple payloads, growing downward from the page end
//
// A dead (deleted) slot has offset == deadSlot. Slot ids are stable for
// the lifetime of the tuple; deleted slots are reused by later inserts.
const (
	headerSize    = 8
	slotEntrySize = 4
	deadSlot      = 0xFFFF

	// maxPayload is the largest tuple payload an empty page holds: the
	// page less its header and one slot entry.
	maxPayload = buffer.PageSize - headerSize - slotEntrySize
)

// SlottedPage is a view over a PageSize byte buffer. It does not own the
// buffer; the heap layer wraps pinned frames directly, so mutations go
// straight to the buffer pool image. When spans is set, or owner is
// (a view of page id of a table that tracks spans), every write adds
// the byte range it touched to the list, which is what a log record of
// the mutation carries instead of the whole page.
type SlottedPage struct {
	data  []byte
	spans *spanList
	owner *Table
	id    storage.PageID
}

// Span is the byte range [Off, End) of a page that writes touched.
type Span struct{ Off, End int }

// spanMergeGap is the widest run of untouched bytes one span may cover
// to join two writes: a log record pays a header per span, more than a
// few unchanged bytes cost, and an unchanged byte logged with its
// current value replays to that same value.
const spanMergeGap = 8

// spanList is a page's written spans, sorted by offset and at least
// spanMergeGap+1 bytes apart.
type spanList []Span

// add records a write of [off, end), merging it with every span it
// overlaps or comes within spanMergeGap bytes of.
func (l *spanList) add(off, end int) {
	s := *l
	i := 0
	for i < len(s) && s[i].End+spanMergeGap < off {
		i++
	}
	j := i
	for j < len(s) && s[j].Off <= end+spanMergeGap {
		off, end = min(off, s[j].Off), max(end, s[j].End)
		j++
	}
	if i == j {
		s = append(s, Span{})
		copy(s[i+1:], s[i:])
	} else {
		s = append(s[:i+1], s[j:]...)
	}
	s[i] = Span{off, end}
	*l = s
}

// wrote records that [off, off+n) changed, when the page tracks spans.
// It is the inlined check; record does the work.
func (p *SlottedPage) wrote(off, n int) {
	if p.spans != nil || p.owner != nil {
		p.record(off, n)
	}
}

// record adds [off, off+n) to the page's span list, which a view of a
// tracked table finds on its first write.
func (p *SlottedPage) record(off, n int) {
	if n == 0 {
		return
	}
	if p.spans == nil {
		p.spans = p.owner.spansFor(p.id)
	}
	p.spans.add(off, off+n)
}

// AsPage interprets buf (which must be buffer.PageSize bytes) as a
// slotted page. A zeroed buffer is a valid empty page.
func AsPage(buf []byte) (*SlottedPage, error) {
	if len(buf) != buffer.PageSize {
		return nil, fmt.Errorf("heap: page buffer is %d bytes, want %d", len(buf), buffer.PageSize)
	}
	return &SlottedPage{data: buf}, nil
}

func (p *SlottedPage) numSlots() int { return int(binary.LittleEndian.Uint16(p.data[0:2])) }
func (p *SlottedPage) setNumSlots(n int) {
	binary.LittleEndian.PutUint16(p.data[0:2], uint16(n))
	p.wrote(0, 2)
}

// dataStart returns the lowest offset occupied by tuple data; 0 encodes
// "empty page" and is normalized to the page end.
func (p *SlottedPage) dataStart() int {
	v := int(binary.LittleEndian.Uint16(p.data[2:4]))
	if v == 0 {
		return buffer.PageSize
	}
	return v
}
func (p *SlottedPage) setDataStart(v int) {
	binary.LittleEndian.PutUint16(p.data[2:4], uint16(v))
	p.wrote(2, 2)
}

func (p *SlottedPage) slot(i int) (offset, length int) {
	base := headerSize + i*slotEntrySize
	return int(binary.LittleEndian.Uint16(p.data[base : base+2])),
		int(binary.LittleEndian.Uint16(p.data[base+2 : base+4]))
}
func (p *SlottedPage) setSlot(i, offset, length int) {
	base := headerSize + i*slotEntrySize
	binary.LittleEndian.PutUint16(p.data[base:base+2], uint16(offset))
	binary.LittleEndian.PutUint16(p.data[base+2:base+4], uint16(length))
	p.wrote(base, slotEntrySize)
}

// put copies payload to offset off of the data area.
func (p *SlottedPage) put(off int, payload []byte) {
	copy(p.data[off:], payload)
	p.wrote(off, len(payload))
}

// NumSlots returns the size of the slot directory, including dead slots.
func (p *SlottedPage) NumSlots() int { return p.numSlots() }

// Live reports whether slot i holds a tuple.
func (p *SlottedPage) Live(i int) bool {
	if i < 0 || i >= p.numSlots() {
		return false
	}
	off, _ := p.slot(i)
	return off != deadSlot
}

// LiveCount returns the number of live tuples in the page.
func (p *SlottedPage) LiveCount() int {
	n := 0
	for i := 0; i < p.numSlots(); i++ {
		if p.Live(i) {
			n++
		}
	}
	return n
}

// Tuple returns the payload of slot i. The returned slice aliases the
// page buffer and is invalidated by any mutation of the page. Corrupt
// slot entries (offsets outside the page) return an error rather than
// panicking, so damaged page images surface as errors.
func (p *SlottedPage) Tuple(i int) ([]byte, error) {
	if i < 0 || i >= p.numSlots() {
		return nil, fmt.Errorf("heap: slot %d out of range (page has %d slots)", i, p.numSlots())
	}
	raw, live, err := p.liveTuple(i)
	if err == nil && !live {
		err = fmt.Errorf("heap: slot %d is dead", i)
	}
	return raw, err
}

// liveTuple is Tuple without the range check, for the page loops, which
// walk every slot below NumSlots: a dead slot reports live false and no
// error.
func (p *SlottedPage) liveTuple(i int) (raw []byte, live bool, err error) {
	off, length := p.slot(i)
	if off == deadSlot {
		return nil, false, nil
	}
	if off+length > buffer.PageSize || off < headerSize {
		return nil, false, fmt.Errorf("heap: slot %d is corrupt (offset %d, length %d)", i, off, length)
	}
	return p.data[off : off+length], true, nil
}

// Validate checks the structural integrity of the page: a plausible slot
// directory and every live slot within bounds. It is cheap enough to run
// on page images read from an untrusted store.
func (p *SlottedPage) Validate() error {
	n := p.numSlots()
	dirEnd := headerSize + n*slotEntrySize
	if dirEnd > buffer.PageSize {
		return fmt.Errorf("heap: slot directory of %d slots exceeds the page", n)
	}
	ds := p.dataStart()
	if ds < dirEnd {
		return fmt.Errorf("heap: data start %d overlaps the slot directory (end %d)", ds, dirEnd)
	}
	for i := 0; i < n; i++ {
		off, length := p.slot(i)
		if off == deadSlot {
			continue
		}
		if off < ds || off+length > buffer.PageSize {
			return fmt.Errorf("heap: slot %d out of bounds (offset %d, length %d, data start %d)", i, off, length, ds)
		}
	}
	return nil
}

// FreeSpace returns the bytes available for one more insert, accounting
// for the slot directory entry a fresh slot would need.
func (p *SlottedPage) FreeSpace() int {
	free := p.contiguousFree()
	// A reusable dead slot costs no directory growth.
	for i := 0; i < p.numSlots(); i++ {
		if !p.Live(i) {
			return free
		}
	}
	free -= slotEntrySize
	if free < 0 {
		return 0
	}
	return free
}

// contiguousFree is the gap between the slot directory end and dataStart.
func (p *SlottedPage) contiguousFree() int {
	dirEnd := headerSize + p.numSlots()*slotEntrySize
	return p.dataStart() - dirEnd
}

// deadSpace is the total byte length of dead tuples' former payloads that
// compaction could reclaim. Dead payload bytes are counted via the gap
// between the sum of live payload sizes and the occupied region.
func (p *SlottedPage) deadSpace() int {
	live := 0
	for i := 0; i < p.numSlots(); i++ {
		if p.Live(i) {
			_, l := p.slot(i)
			live += l
		}
	}
	occupied := buffer.PageSize - p.dataStart()
	return occupied - live
}

// Insert places payload into the page and returns its slot id. ok is
// false when the payload does not fit even after compaction.
func (p *SlottedPage) Insert(payload []byte) (slot int, ok bool) {
	if len(payload) > maxPayload {
		return 0, false
	}
	// Reuse a dead slot if present, otherwise grow the directory.
	slot = -1
	for i := 0; i < p.numSlots(); i++ {
		if !p.Live(i) {
			slot = i
			break
		}
	}
	need := len(payload)
	grow := 0
	if slot == -1 {
		grow = slotEntrySize
	}
	if p.contiguousFree() < need+grow {
		if p.contiguousFree()+p.deadSpace() < need+grow {
			return 0, false
		}
		p.compact()
		if p.contiguousFree() < need+grow {
			return 0, false
		}
	}
	if slot == -1 {
		slot = p.numSlots()
		p.setNumSlots(slot + 1)
	}
	start := p.dataStart() - need
	p.put(start, payload)
	p.setDataStart(start)
	p.setSlot(slot, start, need)
	return slot, true
}

// insertAt places payload into the specific dead slot i. This is the
// undo path for a failed relocation, which must restore the tuple under
// its original RID — a plain Insert would pick the first dead slot,
// not necessarily this one. The payload always fits when it is the
// slot's previous occupant: deletion only grew the reclaimable space.
func (p *SlottedPage) insertAt(i int, payload []byte) bool {
	if i < 0 || i >= p.numSlots() || p.Live(i) {
		return false
	}
	need := len(payload)
	if p.contiguousFree() < need {
		if p.contiguousFree()+p.deadSpace() < need {
			return false
		}
		p.compact()
		if p.contiguousFree() < need {
			return false
		}
	}
	start := p.dataStart() - need
	p.put(start, payload)
	p.setDataStart(start)
	p.setSlot(i, start, need)
	return true
}

// Delete marks slot i dead. The payload bytes are reclaimed lazily by
// compaction.
func (p *SlottedPage) Delete(i int) error {
	if i < 0 || i >= p.numSlots() {
		return fmt.Errorf("heap: delete of slot %d out of range (page has %d slots)", i, p.numSlots())
	}
	if !p.Live(i) {
		return fmt.Errorf("heap: delete of dead slot %d", i)
	}
	p.setSlot(i, deadSlot, 0)
	return nil
}

// Update replaces the payload of slot i in place. ok is false when the
// new payload does not fit in this page; the caller then relocates the
// tuple (delete here, insert elsewhere).
func (p *SlottedPage) Update(i int, payload []byte) (ok bool, err error) {
	if i < 0 || i >= p.numSlots() {
		return false, fmt.Errorf("heap: update of slot %d out of range (page has %d slots)", i, p.numSlots())
	}
	if !p.Live(i) {
		return false, fmt.Errorf("heap: update of dead slot %d", i)
	}
	off, length := p.slot(i)
	if len(payload) <= length {
		p.put(off, payload)
		p.setSlot(i, off, len(payload))
		return true, nil
	}
	// Larger payload: re-place within the page if space allows.
	if p.contiguousFree() < len(payload) {
		if p.contiguousFree()+p.deadSpace()+length < len(payload) {
			return false, nil
		}
		p.setSlot(i, deadSlot, 0) // free the old copy before compacting
		p.compact()
		if p.contiguousFree() < len(payload) {
			// Undo is impossible (old bytes compacted away), but the
			// caller treats !ok as "relocate", and the tuple content is
			// its to re-insert, so losing the dead copy is safe. Report
			// not-ok with the slot already freed.
			return false, nil
		}
		start := p.dataStart() - len(payload)
		p.put(start, payload)
		p.setDataStart(start)
		p.setSlot(i, start, len(payload))
		return true, nil
	}
	p.setSlot(i, deadSlot, 0)
	start := p.dataStart() - len(payload)
	p.put(start, payload)
	p.setDataStart(start)
	p.setSlot(i, start, len(payload))
	return true, nil
}

// compact rewrites live payloads to the end of the page, squeezing out
// dead space. Slot ids are preserved. Its span is the whole new data
// area, plus the slot entries and data start it rewrites.
func (p *SlottedPage) compact() {
	type entry struct{ slot, off, length int }
	var live []entry
	for i := 0; i < p.numSlots(); i++ {
		if p.Live(i) {
			off, l := p.slot(i)
			live = append(live, entry{i, off, l})
		}
	}
	// Copy payloads out, then lay them back from the end.
	scratch := make([]byte, 0, buffer.PageSize)
	offsets := make([]int, len(live))
	pos := 0
	for i, e := range live {
		scratch = append(scratch, p.data[e.off:e.off+e.length]...)
		offsets[i] = pos
		pos += e.length
	}
	start := buffer.PageSize - len(scratch)
	p.put(start, scratch)
	for i, e := range live {
		p.setSlot(e.slot, start+offsets[i], e.length)
	}
	p.setDataStart(start)
}
