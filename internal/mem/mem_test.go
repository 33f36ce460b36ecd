package mem

import (
	"bytes"
	"math/rand"
	"testing"

	"treesls/internal/simclock"
)

func newTestMemory() *Memory {
	return New(Config{NVMFrames: 128, DRAMFrames: 32}, simclock.DefaultCostModel())
}

func TestPageIDString(t *testing.T) {
	if got := (PageID{}).String(); got != "nil-page" {
		t.Errorf("nil page String() = %q", got)
	}
	if got := (PageID{Kind: KindNVM, Frame: 42}).String(); got != "NVM:42" {
		t.Errorf("String() = %q", got)
	}
	if got := (PageID{Kind: KindDRAM, Frame: 7}).String(); got != "DRAM:7" {
		t.Errorf("String() = %q", got)
	}
}

func TestDataRoundTrip(t *testing.T) {
	m := newTestMemory()
	p := PageID{Kind: KindNVM, Frame: 3}
	m.WriteRaw(p, 0, []byte("hello"))
	if !bytes.Equal(m.Data(p)[:5], []byte("hello")) {
		t.Error("NVM page did not retain data")
	}
}

func TestWriteReadAt(t *testing.T) {
	m := newTestMemory()
	p := PageID{Kind: KindNVM, Frame: 1}
	cost := m.WriteAt(p, 100, []byte("treesls"))
	if cost <= 0 {
		t.Error("WriteAt charged nothing")
	}
	buf := make([]byte, 7)
	m.ReadAt(p, 100, buf)
	if string(buf) != "treesls" {
		t.Errorf("ReadAt = %q", buf)
	}
}

func TestWriteAtBounds(t *testing.T) {
	m := newTestMemory()
	p := PageID{Kind: KindNVM, Frame: 0}
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds WriteAt did not panic")
		}
	}()
	m.WriteAt(p, PageSize-2, []byte("xyz"))
}

func TestCopyPageCosts(t *testing.T) {
	m := newTestMemory()
	src := PageID{Kind: KindDRAM, Frame: 0}
	dstNVM := PageID{Kind: KindNVM, Frame: 0}
	dstDRAM := PageID{Kind: KindDRAM, Frame: 1}
	m.WriteRaw(src, 0, []byte("payload"))

	nvmCost := m.CopyPage(dstNVM, src)
	dramCost := m.CopyPage(dstDRAM, src)
	if !bytes.Equal(m.Data(dstNVM)[:7], []byte("payload")) {
		t.Error("CopyPage to NVM lost data")
	}
	if nvmCost <= dramCost {
		t.Errorf("copy to NVM (%v) should cost more than to DRAM (%v)", nvmCost, dramCost)
	}
}

func TestDRAMAllocFree(t *testing.T) {
	m := New(Config{NVMFrames: 8, DRAMFrames: 4}, simclock.DefaultCostModel())
	seen := map[uint32]bool{}
	var pages []PageID
	for i := 0; i < 4; i++ {
		p := m.AllocDRAM()
		if p.IsNil() {
			t.Fatalf("alloc %d failed with frames available", i)
		}
		if seen[p.Frame] {
			t.Fatalf("frame %d allocated twice", p.Frame)
		}
		seen[p.Frame] = true
		pages = append(pages, p)
	}
	if p := m.AllocDRAM(); !p.IsNil() {
		t.Error("allocation past capacity succeeded")
	}
	m.FreeDRAM(pages[0])
	if m.DRAMFreeFrames() != 1 {
		t.Errorf("free frames = %d, want 1", m.DRAMFreeFrames())
	}
	if p := m.AllocDRAM(); p.IsNil() {
		t.Error("allocation after free failed")
	}
}

// TestDRAMWatermarkMatchesFullList runs random AllocDRAM/FreeDRAM/Crash
// sequences against a reference that keeps every free frame in one LIFO
// list, filled at boot and at every crash with the highest frame at the
// bottom. Both must hand out the same frames, report the same
// DRAMFreeFrames, and run out (NilPage) at the same step.
func TestDRAMWatermarkMatchesFullList(t *testing.T) {
	const frames = 48
	m := New(Config{NVMFrames: 8, DRAMFrames: frames}, simclock.DefaultCostModel())
	var ref []uint32
	refReset := func() {
		ref = ref[:0]
		for f := frames - 1; f >= 0; f-- {
			ref = append(ref, uint32(f))
		}
	}
	refReset()
	rng := rand.New(rand.NewSource(5))
	var live []PageID
	exhausted := 0
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(100); {
		case op < 1:
			m.Crash()
			refReset()
			live = live[:0]
		case op < 55 || len(live) == 0:
			p := m.AllocDRAM()
			want := NilPage
			if n := len(ref); n > 0 {
				want = PageID{Kind: KindDRAM, Frame: ref[n-1]}
				ref = ref[:n-1]
			}
			if p != want {
				t.Fatalf("step %d: AllocDRAM = %v, reference %v", step, p, want)
			}
			if p.IsNil() {
				exhausted++
			} else {
				live = append(live, p)
			}
		default:
			i := rng.Intn(len(live))
			m.FreeDRAM(live[i])
			ref = append(ref, live[i].Frame)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if got := m.DRAMFreeFrames(); got != len(ref) {
			t.Fatalf("step %d: DRAMFreeFrames = %d, reference %d", step, got, len(ref))
		}
	}
	if exhausted == 0 {
		t.Fatal("the sequence never exhausted DRAM")
	}
}

func TestDRAMAllocZeroed(t *testing.T) {
	m := newTestMemory()
	p := m.AllocDRAM()
	m.WriteRaw(p, 0, []byte("dirty"))
	m.FreeDRAM(p)
	q := m.AllocDRAM()
	if q.Frame == p.Frame {
		for _, b := range m.Data(q)[:5] {
			if b != 0 {
				t.Fatal("recycled DRAM frame not zeroed")
			}
		}
	}
}

func TestCrashSemantics(t *testing.T) {
	m := newTestMemory()
	nvm := PageID{Kind: KindNVM, Frame: 5}
	dram := m.AllocDRAM()
	m.WriteRaw(nvm, 0, []byte("persistent"))
	m.WriteRaw(dram, 0, []byte("volatile"))

	m.Crash()

	if !bytes.Equal(m.Data(nvm)[:10], []byte("persistent")) {
		t.Error("NVM lost data across crash")
	}
	for _, b := range m.Data(dram)[:8] {
		if b != 0 {
			t.Fatal("DRAM retained data across crash")
		}
	}
	if m.DRAMFreeFrames() != 32 {
		t.Errorf("DRAM free list not reset: %d free", m.DRAMFreeFrames())
	}
}

func TestSmallAccessCostScalesWithSize(t *testing.T) {
	m := newTestMemory()
	p := PageID{Kind: KindNVM, Frame: 2}
	c1 := m.WriteAt(p, 0, make([]byte, 64))
	c2 := m.WriteAt(p, 0, make([]byte, 1024))
	if c2 <= c1 {
		t.Errorf("1 KiB write (%v) should cost more than 64 B (%v)", c2, c1)
	}
}

func TestStatsCount(t *testing.T) {
	m := newTestMemory()
	p := PageID{Kind: KindNVM, Frame: 0}
	q := m.AllocDRAM()
	m.CopyPage(p, q)
	if m.Stats.NVMPageWrites != 1 || m.Stats.DRAMPageReads != 1 {
		t.Errorf("stats = %+v", m.Stats)
	}
}
