package alloc

import (
	"math/rand"
	"testing"
)

func TestBuddyInitGeometry(t *testing.T) {
	b := NewBuddy(1024, 0)
	if b.MaxOrder() != 10 {
		t.Errorf("maxOrder = %d, want 10", b.MaxOrder())
	}
	if b.FreeFrames() != 1024 {
		t.Errorf("free = %d", b.FreeFrames())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestBuddyNonPowerOfTwo(t *testing.T) {
	b := NewBuddy(1000, 0)
	if b.FreeFrames() != 1000 {
		t.Errorf("free = %d", b.FreeFrames())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Error(err)
	}
	// All frames must be allocatable.
	n := 0
	for {
		if _, err := b.Alloc(0); err != nil {
			break
		}
		n++
	}
	if n != 1000 {
		t.Errorf("allocated %d frames from a 1000-frame device", n)
	}
}

func TestBuddyReserved(t *testing.T) {
	b := NewBuddy(64, 5)
	if b.FreeFrames() != 59 {
		t.Errorf("free = %d, want 59", b.FreeFrames())
	}
	// Reserved frames must never be handed out.
	for {
		f, err := b.Alloc(0)
		if err != nil {
			break
		}
		if f < 5 {
			t.Fatalf("reserved frame %d allocated", f)
		}
	}
}

func TestBuddyAllocFreeMerge(t *testing.T) {
	b := NewBuddy(16, 0)
	var frames []uint32
	for i := 0; i < 16; i++ {
		f, err := b.Alloc(0)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	if _, err := b.Alloc(0); err != ErrOutOfMemory {
		t.Errorf("expected ErrOutOfMemory, got %v", err)
	}
	for _, f := range frames {
		b.Free(f, 0)
	}
	if b.FreeFrames() != 16 {
		t.Errorf("free = %d after freeing all", b.FreeFrames())
	}
	// After merging, a max-order block must be available again.
	if _, err := b.Alloc(4); err != nil {
		t.Errorf("full merge failed: %v", err)
	}
}

func TestBuddyLargeOrders(t *testing.T) {
	b := NewBuddy(64, 0)
	f1, err := b.Alloc(3) // 8 frames
	if err != nil {
		t.Fatal(err)
	}
	if f1%8 != 0 {
		t.Errorf("order-3 block misaligned at %d", f1)
	}
	f2, err := b.Alloc(2)
	if err != nil {
		t.Fatal(err)
	}
	if f2%4 != 0 {
		t.Errorf("order-2 block misaligned at %d", f2)
	}
	b.Free(f1, 3)
	b.Free(f2, 2)
	if err := b.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestBuddyAllocExact(t *testing.T) {
	b := NewBuddy(64, 0)
	if err := b.AllocExact(12, 2); err != nil {
		t.Fatal(err)
	}
	if !b.IsAllocated(12, 2) {
		t.Error("block not marked allocated")
	}
	if err := b.AllocExact(12, 2); err == nil {
		t.Error("double exact-alloc succeeded")
	}
	// Overlapping block must be refused.
	if err := b.AllocExact(12, 0); err == nil {
		t.Error("overlapping exact-alloc succeeded")
	}
	// Neighbouring free space must still work.
	if err := b.AllocExact(8, 2); err != nil {
		t.Errorf("neighbouring exact-alloc failed: %v", err)
	}
	b.Free(12, 2)
	b.Free(8, 2)
	if b.FreeFrames() != 64 {
		t.Errorf("free = %d", b.FreeFrames())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestBuddyBadFreePanics(t *testing.T) {
	b := NewBuddy(16, 0)
	f, _ := b.Alloc(1)
	defer func() {
		if recover() == nil {
			t.Error("Free with wrong order did not panic")
		}
	}()
	b.Free(f, 0) // wrong order
}

// Property test: random alloc/free sequences keep the invariants and never
// hand out overlapping blocks.
func TestBuddyRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	b := NewBuddy(512, 0)
	type block struct {
		start uint32
		order int
	}
	var live []block
	owner := make([]int, 512) // 0 = free, else block id
	nextID := 1

	for step := 0; step < 5000; step++ {
		if len(live) == 0 || rng.Intn(2) == 0 {
			order := rng.Intn(4)
			start, err := b.Alloc(order)
			if err != nil {
				continue
			}
			for f := start; f < start+(1<<order); f++ {
				if owner[f] != 0 {
					t.Fatalf("step %d: frame %d double-allocated", step, f)
				}
				owner[f] = nextID
			}
			live = append(live, block{start, order})
			nextID++
		} else {
			i := rng.Intn(len(live))
			bl := live[i]
			b.Free(bl.start, bl.order)
			for f := bl.start; f < bl.start+(1<<bl.order); f++ {
				owner[f] = 0
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if step%500 == 0 {
			if err := b.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	for _, bl := range live {
		b.Free(bl.start, bl.order)
	}
	if b.FreeFrames() != 512 {
		t.Errorf("leaked frames: free = %d", b.FreeFrames())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestBuddyIsFree: IsFree agrees with a per-frame record of what is in use
// through random Alloc/AllocExact/Free sequences, on a device whose frame
// count is neither a power of two nor a multiple of the record chunk, with
// the metadata area reserved.
func TestBuddyIsFree(t *testing.T) {
	const frames = 2*recChunkFrames + 333
	rng := rand.New(rand.NewSource(7))
	b := NewBuddy(frames, ReservedMetaFrames)
	used := make([]bool, frames)
	for f := 0; f < ReservedMetaFrames; f++ {
		used[f] = true
	}
	type block struct {
		start uint32
		order int
	}
	var live []block
	mark := func(bl block, v bool) {
		for f := bl.start; f < bl.start+1<<bl.order; f++ {
			used[f] = v
		}
	}
	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(3); {
		case op == 0 && len(live) > 0:
			i := rng.Intn(len(live))
			b.Free(live[i].start, live[i].order)
			mark(live[i], false)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		case op == 1:
			bl := block{order: rng.Intn(4)}
			bl.start = uint32(rng.Intn(frames)) &^ (1<<bl.order - 1)
			if b.AllocExact(bl.start, bl.order) == nil {
				mark(bl, true)
				live = append(live, bl)
			}
		default:
			bl := block{order: rng.Intn(6)}
			var err error
			if bl.start, err = b.Alloc(bl.order); err == nil {
				mark(bl, true)
				live = append(live, bl)
			}
		}
		for f := range used {
			if b.IsFree(uint32(f)) == used[f] {
				t.Fatalf("step %d: IsFree(%d) = %v with the frame in use = %v", step, f, !used[f], used[f])
			}
		}
	}
	if b.IsFree(frames) {
		t.Fatal("IsFree reports a frame past the device as free")
	}
}
