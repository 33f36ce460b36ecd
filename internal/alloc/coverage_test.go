package alloc

import (
	"slices"
	"testing"

	"treesls/internal/mem"
)

// TestMultiOrderRollback rolls back sixteen post-checkpoint pages that
// together fill one order-4 buddy block: every frame of the block joins the
// rolled-back set, and the freed pages merge into that block again.
func TestMultiOrderRollback(t *testing.T) {
	a, lane := newTestAllocator()
	a.TruncateLog()
	free := a.FreeFrames()
	var frames []uint32
	for i := 0; i < 16; i++ {
		p, err := a.AllocPage(lane) // post-checkpoint
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, p.Frame)
	}
	start := slices.Min(frames)
	if start%16 != 0 || slices.Max(frames) != start+15 {
		t.Fatalf("pages %v do not fill one order-4 block", frames)
	}
	if _, err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	if a.FreeFrames() != free {
		t.Errorf("free = %d, want %d", a.FreeFrames(), free)
	}
	// Every frame of the block is in the rolled-back set.
	for f := start; f < start+16; f++ {
		if !a.WasRolledBack(f) {
			t.Errorf("frame %d not marked rolled back", f)
		}
	}
	if a.WasRolledBack(start + 16) {
		t.Error("neighbouring frame marked rolled back")
	}
	// The sixteen order-0 frees merged back into the order-4 block.
	if err := a.buddy.AllocExact(start, 4); err != nil {
		t.Errorf("order-4 block not whole after rollback: %v", err)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestCkptAllocNotRolledBack(t *testing.T) {
	a, lane := newTestAllocator()
	a.TruncateLog()
	p, err := a.AllocPageCkpt(lane)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	// Checkpoint-owned allocations survive recovery.
	if a.WasRolledBack(p.Frame) {
		t.Error("checkpoint-owned page rolled back")
	}
	a.FreePageCkpt(lane, p)
	if err := a.CheckInvariants(); err != nil {
		t.Error(err)
	}
	a.FreePageCkpt(nil, mustAllocCkpt(t, a)) // nil lane accepted
}

func mustAllocCkpt(t *testing.T, a *Allocator) mem.PageID {
	t.Helper()
	p, err := a.AllocPageCkpt(nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestOutOfNVMPropagates(t *testing.T) {
	a, lane := newTestAllocator()
	// Exhaust the device.
	for {
		if _, err := a.AllocPage(lane); err != nil {
			break
		}
	}
	if _, err := a.AllocPage(lane); err == nil {
		t.Fatal("allocation on exhausted device succeeded")
	}
	if _, err := a.AllocPageCkpt(lane); err == nil {
		t.Fatal("ckpt allocation on exhausted device succeeded")
	}
	// The journal is not left pending after failed allocations.
	if a.Journal().PendingRecord() != nil {
		t.Error("failed alloc left a pending journal record")
	}
}
