package vm

import (
	"bytes"
	"errors"
	"testing"

	"treesls/internal/caps"
	"treesls/internal/mem"
	"treesls/internal/simclock"
)

// testOps is a minimal FaultOps: it materializes NVM pages from a bump
// allocator and performs a plain "make writable" on write faults while
// counting them.
type testOps struct {
	m          *mem.Memory
	nextFrame  uint32
	cowHandled int
}

func (o *testOps) MaterializePage(lane *simclock.Lane, pmo *caps.PMO, idx uint64) (*caps.PageSlot, error) {
	p := mem.PageID{Kind: mem.KindNVM, Frame: o.nextFrame}
	o.nextFrame++
	return pmo.InstallPage(idx, p), nil
}

func (o *testOps) HandleWriteFault(lane *simclock.Lane, pmo *caps.PMO, idx uint64, s *caps.PageSlot) error {
	o.cowHandled++
	s.Writable = true
	return nil
}

func (o *testOps) SwapIn(lane *simclock.Lane, pmo *caps.PMO, idx uint64, s *caps.PageSlot) error {
	return errors.New("testOps: no swap device")
}

func newTestAS(pages uint64) (*AddressSpace, *testOps, *simclock.Lane, *caps.PMO) {
	model := simclock.DefaultCostModel()
	m := mem.New(mem.Config{NVMFrames: 512, DRAMFrames: 64}, model)
	tree := caps.NewTree()
	g := tree.NewCapGroup(tree.Root, "proc")
	vs := tree.NewVMSpace(g)
	pmo := tree.NewPMO(g, pages, caps.PMODefault)
	if err := vs.Map(&caps.VMRegion{VABase: 0x10000, NumPages: pages, PMO: pmo, Perm: caps.RightRead | caps.RightWrite}); err != nil {
		panic(err)
	}
	ops := &testOps{m: m}
	as := NewAddressSpace(vs, m, ops)
	return as, ops, &simclock.Lane{}, pmo
}

func TestWriteReadRoundTrip(t *testing.T) {
	as, _, lane, _ := newTestAS(8)
	data := []byte("tree-structured state checkpoint")
	if err := as.Write(lane, 0x10000+100, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if err := as.Read(lane, 0x10000+100, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Errorf("read %q", buf)
	}
	if lane.Now() == 0 {
		t.Error("no time charged")
	}
}

func TestWriteSpansPages(t *testing.T) {
	as, _, lane, pmo := newTestAS(8)
	data := make([]byte, 3*mem.PageSize)
	for i := range data {
		data[i] = byte(i)
	}
	// Start mid-page so the write covers 4 pages.
	if err := as.Write(lane, 0x10000+2048, data); err != nil {
		t.Fatal(err)
	}
	if pmo.NumPages() != 4 {
		t.Errorf("materialized %d pages, want 4", pmo.NumPages())
	}
	buf := make([]byte, len(data))
	if err := as.Read(lane, 0x10000+2048, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Error("cross-page data corrupted")
	}
}

func TestSegfault(t *testing.T) {
	as, _, lane, _ := newTestAS(8)
	if err := as.Write(lane, 0xdead0000, []byte("x")); err == nil {
		t.Error("write outside any region succeeded")
	}
	if err := as.Read(lane, 0xdead0000, make([]byte, 1)); err == nil {
		t.Error("read outside any region succeeded")
	}
}

func TestCOWFaultPath(t *testing.T) {
	as, ops, lane, pmo := newTestAS(4)
	if err := as.Write(lane, 0x10000, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if ops.cowHandled != 0 {
		t.Fatalf("unexpected COW on fresh page")
	}
	// Simulate the checkpoint manager write-protecting the page.
	pmo.Lookup(0).Writable = false

	if err := as.Write(lane, 0x10000, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if ops.cowHandled != 1 {
		t.Errorf("COW handled %d times, want 1", ops.cowHandled)
	}
	if as.Stats.WriteFaults != 1 {
		t.Errorf("stats = %+v", as.Stats)
	}
	// Reads never trigger COW.
	pmo.Lookup(0).Writable = false
	if err := as.Read(lane, 0x10000, make([]byte, 2)); err != nil {
		t.Fatal(err)
	}
	if ops.cowHandled != 1 {
		t.Error("read triggered a write fault")
	}
}

func TestInvalidateAllRefaults(t *testing.T) {
	as, _, lane, _ := newTestAS(4)
	if err := as.Write(lane, 0x10000, []byte("x")); err != nil {
		t.Fatal(err)
	}
	faults := as.Stats.MapFaults
	if err := as.Write(lane, 0x10000, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if as.Stats.MapFaults != faults {
		t.Error("mapped page refaulted")
	}
	as.InvalidateAll()
	if err := as.Write(lane, 0x10000, []byte("z")); err != nil {
		t.Fatal(err)
	}
	if as.Stats.MapFaults != faults+1 {
		t.Error("invalidate did not force a map fault")
	}
}

func TestU64Helpers(t *testing.T) {
	as, _, lane, _ := newTestAS(4)
	// Place the word across a page boundary to exercise the span path.
	va := uint64(0x10000 + mem.PageSize - 3)
	if err := as.WriteU64(lane, va, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	v, err := as.ReadU64(lane, va)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x1122334455667788 {
		t.Errorf("ReadU64 = %#x", v)
	}
}

func TestFaultCostsCharged(t *testing.T) {
	as, _, lane, pmo := newTestAS(4)
	model := simclock.DefaultCostModel()

	before := lane.Now()
	if err := as.Write(lane, 0x10000, []byte("a")); err != nil {
		t.Fatal(err)
	}
	firstTouch := lane.Now() - before
	if simclock.Duration(firstTouch) < model.PageFaultTrap {
		t.Errorf("first touch charged %d, below trap cost", firstTouch)
	}

	before = lane.Now()
	if err := as.Write(lane, 0x10000, []byte("b")); err != nil {
		t.Fatal(err)
	}
	warm := lane.Now() - before
	if warm >= firstTouch {
		t.Errorf("warm write (%d) not cheaper than faulting write (%d)", warm, firstTouch)
	}

	pmo.Lookup(0).Writable = false
	before = lane.Now()
	if err := as.Write(lane, 0x10000, []byte("c")); err != nil {
		t.Fatal(err)
	}
	cow := lane.Now() - before
	if cow <= warm {
		t.Errorf("COW write (%d) not dearer than warm write (%d)", cow, warm)
	}
}
