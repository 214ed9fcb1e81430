package buffer

import (
	"errors"
	"testing"
)

func TestPoolSurfacesReadFault(t *testing.T) {
	d := NewSimDisk()
	for i := 0; i < 3; i++ {
		if _, err := d.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	fs := NewFaultStore(d)
	fs.SetReadsLeft(1)
	p, err := NewPool(fs, 2)
	if err != nil {
		t.Fatal(err)
	}
	f0, err := p.Fetch(0) // consumes the one allowed read
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f0)
	if _, err := p.Fetch(1); !errors.Is(err, ErrInjected) {
		t.Errorf("fetch after fault = %v, want injected error", err)
	}
	// The pool stays usable for resident pages.
	f0b, err := p.Fetch(0)
	if err != nil {
		t.Fatalf("resident fetch after fault: %v", err)
	}
	p.Unpin(f0b)
}

func TestPoolSurfacesWritebackFault(t *testing.T) {
	d := NewSimDisk()
	for i := 0; i < 2; i++ {
		if _, err := d.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	fs := NewFaultStore(d)
	fs.SetWritesLeft(0)
	p, err := NewPool(fs, 1)
	if err != nil {
		t.Fatal(err)
	}
	f0, err := p.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	f0.MarkDirty()
	p.Unpin(f0)
	// Evicting the dirty page hits the write fault.
	if _, err := p.Fetch(1); !errors.Is(err, ErrInjected) {
		t.Errorf("eviction writeback fault = %v", err)
	}
	// FlushAll reports it too.
	if err := p.FlushAll(); !errors.Is(err, ErrInjected) {
		t.Errorf("FlushAll fault = %v", err)
	}
}

func TestPoolSurfacesAllocateFault(t *testing.T) {
	fs := NewFaultStore(NewSimDisk())
	fs.SetAllocsLeft(0)
	p, err := NewPool(fs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Allocate(); !errors.Is(err, ErrInjected) {
		t.Errorf("allocate fault = %v", err)
	}
}

// TestPoolWritebackFaultStaysEvictable is the regression for a failed
// eviction writeback: the victim used to leave the LRU list for good, so
// a capacity-1 pool reported "all frames pinned" forever, even after the
// fault cleared. It must stay evictable, and its dirty bytes must still
// reach the store.
func TestPoolWritebackFaultStaysEvictable(t *testing.T) {
	d := NewSimDisk()
	for i := 0; i < 2; i++ {
		if _, err := d.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	fs := NewFaultStore(d)
	p, err := NewPool(fs, 1)
	if err != nil {
		t.Fatal(err)
	}
	f0, err := p.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	f0.Data()[0] = 0xAB
	f0.MarkDirty()
	p.Unpin(f0)
	fs.SetWritesLeft(0)
	if _, err := p.Fetch(1); !errors.Is(err, ErrInjected) {
		t.Fatalf("eviction writeback fault = %v, want injected", err)
	}
	fs.SetWritesLeft(-1)
	f1, err := p.Fetch(1)
	if err != nil {
		t.Fatalf("fetch after the fault cleared: %v", err)
	}
	p.Unpin(f1)
	buf := make([]byte, PageSize)
	if err := d.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xAB {
		t.Error("page 0's dirty bytes were lost with the failed writeback")
	}
}
