package buffer

import (
	"bytes"
	"testing"
	"time"
)

func TestSimDiskAllocateReadWrite(t *testing.T) {
	d := NewSimDisk()
	if d.NumPages() != 0 {
		t.Fatalf("new disk has %d pages", d.NumPages())
	}
	id, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 || d.NumPages() != 1 {
		t.Fatalf("first alloc id=%d pages=%d", id, d.NumPages())
	}

	out := make([]byte, PageSize)
	if err := d.Read(id, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, make([]byte, PageSize)) {
		t.Error("fresh page not zeroed")
	}

	in := make([]byte, PageSize)
	for i := range in {
		in[i] = byte(i)
	}
	if err := d.Write(id, in); err != nil {
		t.Fatal(err)
	}
	if err := d.Read(id, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, out) {
		t.Error("read back differs from write")
	}

	// Writes must copy, not alias.
	in[0] = 0xFF
	if err := d.Read(id, out); err != nil {
		t.Fatal(err)
	}
	if out[0] == 0xFF {
		t.Error("disk aliased caller buffer")
	}
}

func TestSimDiskErrors(t *testing.T) {
	d := NewSimDisk()
	buf := make([]byte, PageSize)
	if err := d.Read(0, buf); err == nil {
		t.Error("read of unallocated page should fail")
	}
	if err := d.Write(0, buf); err == nil {
		t.Error("write of unallocated page should fail")
	}
	if err := d.Read(0, make([]byte, 10)); err == nil {
		t.Error("short read buffer should fail")
	}
	if err := d.Write(0, make([]byte, 10)); err == nil {
		t.Error("short write buffer should fail")
	}
}

func TestSimDiskStats(t *testing.T) {
	d := NewSimDisk()
	id, _ := d.Allocate()
	buf := make([]byte, PageSize)
	_ = d.Write(id, buf)
	_ = d.Read(id, buf)
	_ = d.Read(id, buf)
	s := d.Stats()
	if s.Allocs != 1 || s.Writes != 1 || s.Reads != 2 {
		t.Errorf("stats = %+v, want 1 alloc, 1 write, 2 reads", s)
	}
	before := s
	_ = d.Read(id, buf)
	win := d.Stats().Sub(before)
	if win.Reads != 1 || win.Writes != 0 {
		t.Errorf("window = %+v, want exactly 1 read", win)
	}
}

func TestSimDiskLatency(t *testing.T) {
	d := NewSimDisk()
	id, _ := d.Allocate()
	buf := make([]byte, PageSize)
	d.SetReadLatency(2 * time.Millisecond)
	start := time.Now()
	_ = d.Read(id, buf)
	if got := time.Since(start); got < 2*time.Millisecond {
		t.Errorf("read took %v, want >= 2ms", got)
	}
	// Disabling restores full speed.
	d.SetReadLatency(0)
	start = time.Now()
	for i := 0; i < 100; i++ {
		_ = d.Read(id, buf)
	}
	if got := time.Since(start); got > 100*time.Millisecond {
		t.Errorf("100 reads took %v after disabling latency", got)
	}
}
