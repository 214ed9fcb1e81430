package buffer

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/storage"
)

// errModelFault is the one-shot fault the model test injects into the
// store and the write-ahead hook.
var errModelFault = errors.New("model fault")

// recordingStore wraps a SimDisk, appends every successful write to log
// as "write <page> v<version>", and fails the next read or write when
// armed.
type recordingStore struct {
	*SimDisk
	log                 *[]string
	failRead, failWrite bool
}

func (s *recordingStore) Read(id storage.PageID, buf []byte) error {
	if s.failRead {
		s.failRead = false
		return errModelFault
	}
	return s.SimDisk.Read(id, buf)
}

func (s *recordingStore) Write(id storage.PageID, buf []byte) error {
	if s.failWrite {
		s.failWrite = false
		return errModelFault
	}
	*s.log = append(*s.log, fmt.Sprintf("write %d v%d", id, binary.LittleEndian.Uint64(buf)))
	return s.SimDisk.Write(id, buf)
}

// modelFrame is the reference model's view of one resident page. ver is
// the version tag the test stamps into the first 8 bytes of the image.
type modelFrame struct {
	id    storage.PageID
	pins  int
	dirty bool
	lsn   uint64
	ver   uint64
	el    *list.Element
}

// poolModel is a straightforward LRU pool built on container/list: the
// specification the real pool's eviction order, write-back order and
// failure semantics are checked against.
type poolModel struct {
	capacity int
	frames   map[storage.PageID]*modelFrame
	lru      *list.List // unpinned frames, front = least recently used
	store    []uint64   // version tag of each store page
	stats    PoolStats
	log      []string

	failRead, failWrite, failWAL bool
}

// writeBack forces the log through f's LSN and writes f to the store.
func (m *poolModel) writeBack(f *modelFrame) error {
	if f.lsn != 0 {
		m.log = append(m.log, fmt.Sprintf("wal %d", f.lsn))
		if m.failWAL {
			m.failWAL = false
			return errModelFault
		}
	}
	if m.failWrite {
		m.failWrite = false
		return errModelFault
	}
	m.log = append(m.log, fmt.Sprintf("write %d v%d", f.id, f.ver))
	m.store[f.id] = f.ver
	m.stats.Flushes++
	f.dirty = false
	return nil
}

func (m *poolModel) evict() error {
	el := m.lru.Front()
	if el == nil {
		return errors.New("exhausted")
	}
	f := el.Value.(*modelFrame)
	if f.dirty {
		if err := m.writeBack(f); err != nil {
			return err
		}
	}
	m.lru.Remove(el)
	delete(m.frames, f.id)
	m.stats.Evictions++
	return nil
}

func (m *poolModel) makeRoom() error {
	if len(m.frames) < m.capacity {
		return nil
	}
	return m.evict()
}

func (m *poolModel) fetch(id storage.PageID) (*modelFrame, error) {
	if f, ok := m.frames[id]; ok {
		m.stats.Hits++
		if f.pins == 0 {
			m.lru.Remove(f.el)
			f.el = nil
		}
		f.pins++
		return f, nil
	}
	m.stats.Misses++
	if err := m.makeRoom(); err != nil {
		return nil, err
	}
	if m.failRead {
		m.failRead = false
		return nil, errModelFault
	}
	f := &modelFrame{id: id, pins: 1, ver: m.store[id]}
	m.frames[id] = f
	return f, nil
}

func (m *poolModel) allocate() (*modelFrame, error) {
	id := storage.PageID(len(m.store))
	m.store = append(m.store, 0)
	if err := m.makeRoom(); err != nil {
		return nil, err
	}
	f := &modelFrame{id: id, pins: 1}
	m.frames[id] = f
	return f, nil
}

func (m *poolModel) unpin(f *modelFrame) {
	f.pins--
	if f.pins == 0 {
		f.el = m.lru.PushBack(f)
	}
}

// flushAll writes the dirty frames back in page-id order and stops at
// the first failure.
func (m *poolModel) flushAll() error {
	for id := range m.store {
		if f, ok := m.frames[storage.PageID(id)]; ok && f.dirty {
			if err := m.writeBack(f); err != nil {
				return err
			}
		}
	}
	return nil
}

// pinResident is a run pin as a sequence of single fetches: it fetches
// ids in order while each is resident, at most limit of them.
func (m *poolModel) pinResident(ids []storage.PageID, limit int) []*modelFrame {
	var run []*modelFrame
	for _, id := range ids {
		if len(run) == limit {
			break
		}
		if _, ok := m.frames[id]; !ok {
			break
		}
		f, _ := m.fetch(id)
		run = append(run, f)
	}
	return run
}

// pin is one outstanding pin held by the test, on both sides.
type pin struct {
	real  *Frame
	model *modelFrame
}

// TestPoolLRUMatchesModel drives seeded random sequences of Fetch,
// Unpin, PinResident, UnpinRun, Allocate, MarkDirty, SetLSN and
// FlushAll, with one-shot read, write and log-force faults, through
// pools of 3 to 8 frames, and checks after every operation that the
// pool agrees with a reference LRU model on the outcome, every store
// write and log force in order (FlushAll's in page-id order), every
// eviction victim, the resident frames' pins and dirty marks, the
// counters, and the bytes of every frame it hands out. The model has
// no run operations: a run pin is its fetches one at a time, a run
// unpin its unpins in order.
func TestPoolLRUMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		capacity := int(seed) + 2
		t.Run(fmt.Sprintf("seed%d-cap%d", seed, capacity), func(t *testing.T) {
			runPoolModel(t, seed, capacity, 3000)
		})
	}
}

func runPoolModel(t *testing.T, seed int64, capacity, ops int) {
	rng := rand.New(rand.NewSource(seed))
	var log []string
	store := &recordingStore{SimDisk: NewSimDisk(), log: &log}
	m := &poolModel{capacity: capacity, frames: map[storage.PageID]*modelFrame{}, lru: list.New()}
	for i := 0; i < 2*capacity+2; i++ {
		if _, err := store.Allocate(); err != nil {
			t.Fatal(err)
		}
		m.store = append(m.store, 0)
	}
	p, err := NewPool(store, capacity)
	if err != nil {
		t.Fatal(err)
	}
	failWAL := false
	p.SetWriteAhead(func(lsn uint64) error {
		log = append(log, fmt.Sprintf("wal %d", lsn))
		if failWAL {
			failWAL = false
			return errModelFault
		}
		return nil
	})

	var pins []pin
	var version, lsn uint64
	for i := 0; i < ops; i++ {
		log, m.log = nil, nil
		before := residentIDs(p)
		var op string
		var realErr, modelErr error
		r := rng.Intn(100)
		if len(pins) > capacity {
			r = 50 // unpin: keep the pool from staying exhausted
		}
		switch {
		case r < 8:
			ids := make([]storage.PageID, 1+rng.Intn(4))
			for k := range ids {
				ids[k] = storage.PageID(rng.Intn(len(m.store)))
			}
			slices.Sort(ids)
			frames := make([]*Frame, 1+rng.Intn(len(ids)))
			n := p.PinResident(ids, frames)
			run := m.pinResident(ids, len(frames))
			op = fmt.Sprintf("pin run %v max %d: pinned %d", ids, len(frames), n)
			if n != len(run) {
				t.Fatalf("seed %d op %d (%s): model pinned %d", seed, i, op, len(run))
			}
			for k, f := range frames[:n] {
				if f.ID() != ids[k] {
					t.Fatalf("seed %d op %d (%s): frame %d holds page %d", seed, i, op, k, f.ID())
				}
				pins = append(pins, pin{f, run[k]})
			}
		case r < 40 || len(pins) == 0 && r < 70:
			id := storage.PageID(rng.Intn(len(m.store)))
			op = fmt.Sprintf("fetch %d", id)
			f, err := p.Fetch(id)
			mf, merr := m.fetch(id)
			realErr, modelErr = err, merr
			if err == nil && merr == nil {
				pins = append(pins, pin{f, mf})
			}
		case r < 62:
			k := rng.Intn(len(pins))
			op = fmt.Sprintf("unpin %d", pins[k].model.id)
			p.Unpin(pins[k].real)
			m.unpin(pins[k].model)
			pins = slices.Delete(pins, k, k+1)
		case r < 70:
			rng.Shuffle(len(pins), func(a, b int) { pins[a], pins[b] = pins[b], pins[a] })
			run := pins[:1+rng.Intn(len(pins))]
			frames := make([]*Frame, len(run))
			var ids []storage.PageID
			for k, pn := range run {
				frames[k] = pn.real
				ids = append(ids, pn.model.id)
				m.unpin(pn.model)
			}
			op = fmt.Sprintf("unpin run %v", ids)
			p.UnpinRun(frames)
			pins = slices.Delete(pins, 0, len(run))
		case r < 75:
			op = "allocate"
			f, err := p.Allocate()
			mf, merr := m.allocate()
			realErr, modelErr = err, merr
			if err == nil && merr == nil {
				pins = append(pins, pin{f, mf})
			}
		case r < 85:
			if len(pins) == 0 {
				continue
			}
			pn := pins[rng.Intn(len(pins))]
			version++
			op = fmt.Sprintf("dirty %d v%d", pn.model.id, version)
			binary.LittleEndian.PutUint64(pn.real.Data(), version)
			pn.real.MarkDirty()
			pn.model.ver, pn.model.dirty = version, true
		case r < 90:
			if len(pins) == 0 {
				continue
			}
			pn := pins[rng.Intn(len(pins))]
			lsn++
			op = fmt.Sprintf("setlsn %d %d", pn.model.id, lsn)
			pn.real.SetLSN(lsn)
			pn.model.lsn = lsn
		case r < 93:
			op = "flushall"
			realErr = p.FlushAll()
			modelErr = m.flushAll()
		default:
			switch rng.Intn(3) {
			case 0:
				op, store.failRead, m.failRead = "arm read fault", true, true
			case 1:
				op, store.failWrite, m.failWrite = "arm write fault", true, true
			default:
				op, failWAL, m.failWAL = "arm log-force fault", true, true
			}
		}
		op = fmt.Sprintf("seed %d op %d (%s)", seed, i, op)

		if (realErr == nil) != (modelErr == nil) {
			t.Fatalf("%s: pool err %v, model err %v", op, realErr, modelErr)
		}
		if !slices.Equal(log, m.log) {
			t.Fatalf("%s: pool wrote %q, model %q", op, log, m.log)
		}
		after := residentIDs(p)
		var modelIDs []storage.PageID
		for id := range m.frames {
			modelIDs = append(modelIDs, id)
		}
		slices.Sort(modelIDs)
		if !slices.Equal(after, modelIDs) {
			t.Fatalf("%s: resident %v (was %v), model %v — wrong eviction victim", op, after, before, modelIDs)
		}
		for _, id := range after {
			f, mf := p.frames[id], m.frames[id]
			if f.pins != mf.pins || f.dirty != mf.dirty {
				t.Fatalf("%s: page %d pins %d dirty %v, model pins %d dirty %v", op, id, f.pins, f.dirty, mf.pins, mf.dirty)
			}
			if f.pins > 0 {
				if v := binary.LittleEndian.Uint64(f.Data()); v != mf.ver {
					t.Fatalf("%s: pinned page %d holds v%d, model v%d", op, id, v, mf.ver)
				}
			}
		}
		if s := p.Stats(); s != m.stats {
			t.Fatalf("%s: stats %+v, model %+v", op, s, m.stats)
		}
	}
	for _, pn := range pins {
		p.Unpin(pn.real)
	}
	if p.Stats().Evictions == 0 {
		t.Error("no eviction: the sequence never exercised the LRU order")
	}
}

// residentIDs returns the pool's resident page ids in order.
func residentIDs(p *Pool) []storage.PageID {
	p.mu.Lock()
	defer p.mu.Unlock()
	ids := make([]storage.PageID, 0, len(p.frames))
	for id := range p.frames {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}
