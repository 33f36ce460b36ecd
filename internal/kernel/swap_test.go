package kernel

import (
	"bytes"
	"fmt"
	"testing"

	"treesls/internal/baseline/disk"
	"treesls/internal/caps"
	"treesls/internal/mem"
	"treesls/internal/simclock"
)

func newSwapMachine(t *testing.T) (*Machine, *Process, uint64, *caps.PMO) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.CheckpointEvery = 0
	cfg.SkipDefaultServices = true
	m := New(cfg)
	p, err := m.NewProcess("app", 1)
	if err != nil {
		t.Fatal(err)
	}
	va, pmo, err := p.Mmap(32, caps.PMODefault)
	if err != nil {
		t.Fatal(err)
	}
	return m, p, va, pmo
}

func fillPages(t *testing.T, m *Machine, p *Process, va uint64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := m.Run(p, p.MainThread(), func(e *Env) error {
			return e.Write(va+uint64(i)*4096, []byte(fmt.Sprintf("page-%02d-content", i)))
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEvictRequiresCheckpoint(t *testing.T) {
	m, p, va, _ := newSwapMachine(t)
	fillPages(t, m, p, va, 4)
	if _, err := m.EvictColdPages(4); err == nil {
		t.Error("eviction before the first checkpoint succeeded")
	}
}

func TestEvictAndFaultBack(t *testing.T) {
	m, p, va, pmo := newSwapMachine(t)
	fillPages(t, m, p, va, 8)
	m.TakeCheckpoint() // pages become clean + write-protected

	free := m.Alloc.FreeFrames()
	n, err := m.EvictColdPages(5)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("evicted %d, want 5", n)
	}
	// Frame release is deferred to the next checkpoint commit (so the
	// recovery rollback can never collide with frame reuse).
	if m.Alloc.FreeFrames() != free {
		t.Errorf("frames freed before commit: %d", m.Alloc.FreeFrames()-free)
	}
	m.TakeCheckpoint()
	if m.Alloc.FreeFrames() != free+5 {
		t.Errorf("frames freed after commit = %d, want 5", m.Alloc.FreeFrames()-free)
	}
	if got := m.Ckpt.SwapStats(); got.Evicted != 5 || got.SlotsInUse != 5 {
		t.Errorf("swap stats = %+v", got)
	}
	swapped := 0
	pmo.ForEachPage(func(idx uint64, s *caps.PageSlot) bool {
		if s.SwappedOut {
			swapped++
			if !s.Page.IsNil() {
				t.Error("swapped page still has a frame")
			}
		}
		return true
	})
	if swapped != 5 {
		t.Errorf("swapped slots = %d", swapped)
	}

	// Reads fault the content back intact.
	buf := make([]byte, 15)
	p2 := m.Process("app")
	if _, err := m.Run(p2, p2.MainThread(), func(e *Env) error {
		return e.Read(va, buf)
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte("page-00-content")) {
		t.Errorf("swapped-in content = %q", buf)
	}
	if m.Ckpt.SwapStats().SwappedIn != 1 {
		t.Errorf("swap-in count = %d", m.Ckpt.SwapStats().SwappedIn)
	}
	if p2.AS.Stats.SwapFaults != 1 {
		t.Errorf("vm swap faults = %d", p2.AS.Stats.SwapFaults)
	}
}

func TestSwappedPageWritable(t *testing.T) {
	m, p, va, _ := newSwapMachine(t)
	fillPages(t, m, p, va, 4)
	m.TakeCheckpoint()
	if _, err := m.EvictColdPages(4); err != nil {
		t.Fatal(err)
	}
	// A write to a swapped page swaps in, then copy-on-writes.
	if _, err := m.Run(p, p.MainThread(), func(e *Env) error {
		return e.Write(va, []byte("modified-after-swap"))
	}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 19)
	m.Run(p, p.MainThread(), func(e *Env) error { return e.Read(va, buf) })
	if string(buf) != "modified-after-swap" {
		t.Errorf("content = %q", buf)
	}
	// The pre-modification content was saved: crash must roll back to it.
	m.Crash()
	if err := m.Restore(); err != nil {
		t.Fatal(err)
	}
	p2 := m.Process("app")
	buf2 := make([]byte, 15)
	if _, err := m.Run(p2, p2.MainThread(), func(e *Env) error {
		return e.Read(va, buf2)
	}); err != nil {
		t.Fatal(err)
	}
	if string(buf2) != "page-00-content" {
		t.Errorf("restored content = %q", buf2)
	}
}

func TestSwappedPagesSurviveCrash(t *testing.T) {
	m, p, va, _ := newSwapMachine(t)
	fillPages(t, m, p, va, 8)
	m.TakeCheckpoint()
	if _, err := m.EvictColdPages(8); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if err := m.Restore(); err != nil {
		t.Fatal(err)
	}
	// All evicted pages come back from the swap device on demand.
	p2 := m.Process("app")
	for i := 0; i < 8; i++ {
		buf := make([]byte, 15)
		if _, err := m.Run(p2, p2.MainThread(), func(e *Env) error {
			return e.Read(va+uint64(i)*4096, buf)
		}); err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		if string(buf) != fmt.Sprintf("page-%02d-content", i) {
			t.Errorf("page %d = %q", i, buf)
		}
	}
}

func TestDirtyPagesNotEvicted(t *testing.T) {
	m, p, va, _ := newSwapMachine(t)
	fillPages(t, m, p, va, 4)
	m.TakeCheckpoint()
	// Dirty one page: it must not be evicted.
	if _, err := m.Run(p, p.MainThread(), func(e *Env) error {
		return e.Write(va, []byte("dirty"))
	}); err != nil {
		t.Fatal(err)
	}
	n, err := m.EvictColdPages(100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("evicted %d, want 3 (the dirty page must stay)", n)
	}
}

func TestSwapSlotRecycledAfterCheckpoint(t *testing.T) {
	m, p, va, _ := newSwapMachine(t)
	fillPages(t, m, p, va, 2)
	m.TakeCheckpoint()
	if _, err := m.EvictColdPages(2); err != nil {
		t.Fatal(err)
	}
	// Swap in by writing, then checkpoint: the round supersedes the swap
	// content and the slot is recycled.
	if _, err := m.Run(p, p.MainThread(), func(e *Env) error {
		return e.Write(va, []byte("new"))
	}); err != nil {
		t.Fatal(err)
	}
	m.TakeCheckpoint()
	if st := m.Ckpt.SwapStats(); st.SlotsInUse != 1 {
		t.Errorf("slots in use = %d, want 1 (page 0's slot recycled)", st.SlotsInUse)
	}
}

// TestEvictionChargesDeviceTime: the kswapd lane pays, per evicted page, the
// NVM read of the page and the synchronous device write of its copy.
func TestEvictionChargesDeviceTime(t *testing.T) {
	m, p, va, _ := newSwapMachine(t)
	fillPages(t, m, p, va, 4)
	m.TakeCheckpoint()
	lane := &m.Cores[len(m.Cores)-1].Lane
	before := lane.Now()
	if n, err := m.EvictColdPages(4); err != nil || n != 4 {
		t.Fatalf("evicted %d, %v", n, err)
	}
	var ref simclock.Lane
	dev := disk.New(disk.NVMe, m.Model)
	for i := 0; i < 4; i++ {
		ref.Charge(m.Model.NVMAccess * mem.PageSize / 64) // the page read
		dev.WriteSync(&ref, mem.PageSize)
	}
	if got, want := lane.Now().Sub(before), ref.Now().Sub(0); got != want {
		t.Errorf("eviction charged %v, want %v (4 page reads and device writes)", got, want)
	}
}

// TestSwapInIsVersionZeroCopy: a page swapped in by a read becomes the
// page's version-zero copy at once, as a restore copy does, and its slot is
// released. A read never makes a page Touched, so nothing else re-syncs it:
// were the frame left out of the checkpoint entry, the next commit would
// keep it allocated while every later restore reinstalled the page from its
// slot, orphaning one frame per page per cycle.
//
// In both persistence modes: 8 pages are written, checkpointed, evicted
// and checkpointed again, then read back in. Crashing the next checkpoint
// at each of its events must restore the right bytes, and a cycle of clean
// checkpoint, crash, restore and read must free as many frames as it
// takes.
func TestSwapInIsVersionZeroCopy(t *testing.T) {
	const pages = 8
	for _, mode := range []mem.PersistMode{mem.ModeEADR, mem.ModeADR} {
		t.Run(mode.String(), func(t *testing.T) {
			setup := func() (*Machine, uint64) {
				cfg := DefaultConfig()
				cfg.CheckpointEvery = 0
				cfg.SkipDefaultServices = true
				cfg.Mem.Persist = mode
				m := New(cfg)
				p, err := m.NewProcess("app", 1)
				if err != nil {
					t.Fatal(err)
				}
				va, _, err := p.Mmap(pages, caps.PMODefault)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < pages; i++ {
					if _, err := m.Run(p, p.MainThread(), func(e *Env) error {
						return e.Write(va+uint64(i)*4096, []byte{byte(i + 1)})
					}); err != nil {
						t.Fatal(err)
					}
				}
				m.TakeCheckpoint()
				if n, err := m.EvictColdPages(pages); err != nil || n != pages {
					t.Fatalf("evicted %d of %d: %v", n, pages, err)
				}
				m.TakeCheckpoint()
				checkSwapped(t, m, va, pages)
				return m, va
			}

			k := uint64(1)
			for ; ; k++ {
				m, va := setup()
				if !crashAtEvent(t, m, k, func() { m.TakeCheckpoint() }) {
					break
				}
				if err := m.Restore(); err != nil {
					t.Fatalf("event %d: %v", k, err)
				}
				checkSwapped(t, m, va, pages)
			}
			t.Logf("%d checkpoint events after the swap-ins", k-1)

			m, va := setup()
			cycle := func() int {
				m.TakeCheckpoint()
				m.Crash()
				if err := m.Restore(); err != nil {
					t.Fatal(err)
				}
				checkSwapped(t, m, va, pages)
				return m.Alloc.FreeFrames()
			}
			if before, after := cycle(), cycle(); after != before {
				t.Errorf("free frames %d -> %d over a checkpoint, crash, restore and read", before, after)
			}
			if st := m.Ckpt.SwapStats(); st.SlotsInUse != 0 {
				t.Errorf("%d swap slots still in use after every page was read back", st.SlotsInUse)
			}
		})
	}
}

// checkSwapped reads back the pages TestSwapInIsVersionZeroCopy wrote.
func checkSwapped(t *testing.T, m *Machine, va uint64, pages int) {
	t.Helper()
	want := make([]byte, pages)
	for i := range want {
		want[i] = byte(i + 1)
	}
	if got := checkpointedSum(t, m, va, pages); !bytes.Equal(got, want) {
		t.Fatalf("pages = %v, want %v", got, want)
	}
}
