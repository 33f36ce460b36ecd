package alloc

import (
	"fmt"
	"math/rand"
	"testing"
)

// denseBuddy is the buddy allocator as it was before its per-frame table
// became lazy: four dense per-frame slices, allocated and zeroed at boot.
// Its code is kept verbatim as the reference TestBuddyMatchesDenseReference
// runs Buddy against.
type denseBuddy struct {
	nFrames  uint32
	maxOrder int

	freeHead []int32 // per order; -1 when empty
	next     []int32 // intrusive links, valid for free block heads
	prev     []int32
	state    []uint8 // per frame: interior / free head / allocated head
	order    []uint8 // valid for heads

	freeFrames uint32
}

// newDenseBuddy creates a buddy allocator covering nFrames frames, with the first
// reserved frames pre-allocated (the global metadata area).
func newDenseBuddy(nFrames int, reserved int) *denseBuddy {
	if nFrames <= 0 || reserved < 0 || reserved > nFrames {
		panic(fmt.Sprintf("alloc: bad buddy geometry nFrames=%d reserved=%d", nFrames, reserved))
	}
	maxOrder := 0
	for (1 << (maxOrder + 1)) <= nFrames {
		maxOrder++
	}
	b := &denseBuddy{
		nFrames:  uint32(nFrames),
		maxOrder: maxOrder,
		freeHead: make([]int32, maxOrder+1),
		next:     make([]int32, nFrames),
		prev:     make([]int32, nFrames),
		state:    make([]uint8, nFrames),
		order:    make([]uint8, nFrames),
	}
	for o := range b.freeHead {
		b.freeHead[o] = -1
	}
	// Carve the frame range into maximal aligned free blocks.
	start := uint32(0)
	remaining := uint32(nFrames)
	for remaining > 0 {
		o := b.maxOrder
		for o > 0 && ((start&((1<<o)-1)) != 0 || (1<<o) > remaining) {
			o--
		}
		b.insertFree(start, o)
		start += 1 << o
		remaining -= 1 << o
	}
	b.freeFrames = uint32(nFrames)
	// Reserve the metadata area by exact allocation, one frame at a time.
	for f := 0; f < reserved; f++ {
		if err := b.AllocExact(uint32(f), 0); err != nil {
			panic("alloc: reserving metadata area: " + err.Error())
		}
	}
	return b
}

// MaxOrder returns the largest supported allocation order.
func (b *denseBuddy) MaxOrder() int { return b.maxOrder }

// FreeFrames returns the number of free frames.
func (b *denseBuddy) FreeFrames() int { return int(b.freeFrames) }

func (b *denseBuddy) insertFree(start uint32, o int) {
	b.state[start] = stateFreeHead
	b.order[start] = uint8(o)
	b.prev[start] = -1
	b.next[start] = b.freeHead[o]
	if b.freeHead[o] >= 0 {
		b.prev[b.freeHead[o]] = int32(start)
	}
	b.freeHead[o] = int32(start)
}

func (b *denseBuddy) removeFree(start uint32) {
	o := int(b.order[start])
	if b.prev[start] >= 0 {
		b.next[b.prev[start]] = b.next[start]
	} else {
		b.freeHead[o] = b.next[start]
	}
	if b.next[start] >= 0 {
		b.prev[b.next[start]] = b.prev[start]
	}
	b.state[start] = stateInterior
}

// Alloc allocates a block of 2^order frames and returns its start frame.
func (b *denseBuddy) Alloc(order int) (uint32, error) {
	if order < 0 || order > b.maxOrder {
		return 0, fmt.Errorf("alloc: order %d out of range [0,%d]", order, b.maxOrder)
	}
	o := order
	for o <= b.maxOrder && b.freeHead[o] < 0 {
		o++
	}
	if o > b.maxOrder {
		return 0, ErrOutOfMemory
	}
	start := uint32(b.freeHead[o])
	b.removeFree(start)
	// Split down, releasing the upper halves.
	for o > order {
		o--
		b.insertFree(start+(1<<o), o)
	}
	b.state[start] = stateAllocated
	b.order[start] = uint8(order)
	b.freeFrames -= 1 << order
	return start, nil
}

// AllocExact allocates the specific block [start, start+2^order). It is used
// to reserve the metadata area and to roll back Free operations during
// recovery. The block must currently be fully contained in one free block.
func (b *denseBuddy) AllocExact(start uint32, order int) error {
	if order < 0 || order > b.maxOrder || start%(1<<order) != 0 || start+(1<<order) > b.nFrames {
		return fmt.Errorf("alloc: AllocExact(%d, order %d) out of range", start, order)
	}
	// Find the free block containing [start, start+2^order).
	o := order
	for ; o <= b.maxOrder; o++ {
		base := start &^ ((1 << o) - 1)
		if base < b.nFrames && b.state[base] == stateFreeHead && int(b.order[base]) == o {
			b.removeFree(base)
			// Split down toward the target, freeing the halves that
			// do not contain it.
			for o > order {
				o--
				half := base + (1 << o)
				if start >= half {
					b.insertFree(base, o)
					base = half
				} else {
					b.insertFree(half, o)
				}
			}
			b.state[base] = stateAllocated
			b.order[base] = uint8(order)
			b.freeFrames -= 1 << order
			return nil
		}
	}
	return fmt.Errorf("alloc: AllocExact(%d, order %d): block not free", start, order)
}

// Free releases the block starting at start with the given order, merging
// buddies as far as possible.
func (b *denseBuddy) Free(start uint32, order int) {
	if start >= b.nFrames || b.state[start] != stateAllocated || int(b.order[start]) != order {
		panic(fmt.Sprintf("alloc: bad Free(%d, order %d)", start, order))
	}
	b.state[start] = stateInterior
	b.freeFrames += 1 << order
	o := order
	for o < b.maxOrder {
		buddy := start ^ (1 << o)
		if buddy >= b.nFrames || b.state[buddy] != stateFreeHead || int(b.order[buddy]) != o {
			break
		}
		b.removeFree(buddy)
		if buddy < start {
			start = buddy
		}
		o++
	}
	b.insertFree(start, o)
}

// IsAllocated reports whether start is the head of an allocated block of the
// given order (used by tests and recovery assertions).
func (b *denseBuddy) IsAllocated(start uint32, order int) bool {
	return start < b.nFrames && b.state[start] == stateAllocated && int(b.order[start]) == order
}

// CheckInvariants validates the free-list structure and returns an error
// describing the first violation found. Tests call this after random
// operation sequences.
func (b *denseBuddy) CheckInvariants() error {
	seen := uint32(0)
	for o := 0; o <= b.maxOrder; o++ {
		for f := b.freeHead[o]; f >= 0; f = b.next[f] {
			fr := uint32(f)
			if b.state[fr] != stateFreeHead || int(b.order[fr]) != o {
				return fmt.Errorf("free list %d contains non-free-head frame %d", o, fr)
			}
			if fr%(1<<o) != 0 {
				return fmt.Errorf("free block %d misaligned for order %d", fr, o)
			}
			if fr+(1<<o) > b.nFrames {
				return fmt.Errorf("free block %d order %d overruns device", fr, o)
			}
			// A free block must not have a free buddy of the same
			// order (it should have merged).
			buddy := fr ^ (1 << o)
			if o < b.maxOrder && buddy < b.nFrames && b.state[buddy] == stateFreeHead && int(b.order[buddy]) == o {
				return fmt.Errorf("unmerged buddies %d/%d at order %d", fr, buddy, o)
			}
			seen += 1 << o
		}
	}
	if seen != b.freeFrames {
		return fmt.Errorf("free frame accounting: lists hold %d, counter says %d", seen, b.freeFrames)
	}
	return nil
}

// TestBuddyMatchesDenseReference runs random Alloc/AllocExact/Free sequences
// against Buddy and the dense reference in lockstep, over a power-of-two
// device, an odd frame count and a count that is not a multiple of the
// record chunk, each with and without the 16-frame metadata reservation.
// After every step the two must agree on the operation's result and error,
// IsAllocated of the block, FreeFrames and CheckInvariants.
func TestBuddyMatchesDenseReference(t *testing.T) {
	type block struct {
		start uint32
		order int
	}
	for _, frames := range []int{8192, 8191, 9*recChunkFrames + 400} {
		for _, reserved := range []int{0, ReservedMetaFrames} {
			t.Run(fmt.Sprintf("frames=%d/reserved=%d", frames, reserved), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(frames*31 + reserved)))
				b, ref := NewBuddy(frames, reserved), newDenseBuddy(frames, reserved)
				var live []block
				errStr := func(err error) string {
					if err == nil {
						return ""
					}
					return err.Error()
				}
				for step := 0; step < 6000; step++ {
					var bl block
					op := rng.Intn(10)
					if op >= 7 && len(live) == 0 {
						op = 0
					}
					switch {
					case op < 4:
						bl.order = rng.Intn(6)
						s1, e1 := b.Alloc(bl.order)
						s2, e2 := ref.Alloc(bl.order)
						if s1 != s2 || errStr(e1) != errStr(e2) {
							t.Fatalf("step %d: Alloc(%d) = %d, %v; reference %d, %v", step, bl.order, s1, e1, s2, e2)
						}
						bl.start = s1
						if e1 == nil {
							live = append(live, bl)
						}
					case op < 7:
						bl.order = rng.Intn(4)
						bl.start = uint32(rng.Intn(frames)) &^ (1<<bl.order - 1)
						e1, e2 := b.AllocExact(bl.start, bl.order), ref.AllocExact(bl.start, bl.order)
						if errStr(e1) != errStr(e2) {
							t.Fatalf("step %d: AllocExact(%d, %d) = %v; reference %v", step, bl.start, bl.order, e1, e2)
						}
						if e1 == nil {
							live = append(live, bl)
						}
					default:
						i := rng.Intn(len(live))
						bl = live[i]
						b.Free(bl.start, bl.order)
						ref.Free(bl.start, bl.order)
						live[i] = live[len(live)-1]
						live = live[:len(live)-1]
					}
					if got, want := b.IsAllocated(bl.start, bl.order), ref.IsAllocated(bl.start, bl.order); got != want {
						t.Fatalf("step %d: IsAllocated(%d, %d) = %v; reference %v", step, bl.start, bl.order, got, want)
					}
					if got, want := b.FreeFrames(), ref.FreeFrames(); got != want {
						t.Fatalf("step %d: FreeFrames = %d; reference %d", step, got, want)
					}
					// A corrupted Buddy can link a free list into a cycle,
					// which CheckInvariants would walk forever.
					for o := 0; o <= b.MaxOrder(); o++ {
						n := 0
						for f := b.freeHead[o]; f >= 0; f = b.rec(uint32(f)).next {
							if n++; n > frames {
								t.Fatalf("step %d: free list %d cycles", step, o)
							}
						}
					}
					if got, want := errStr(b.CheckInvariants()), errStr(ref.CheckInvariants()); got != want {
						t.Fatalf("step %d: CheckInvariants = %q; reference %q", step, got, want)
					}
				}
				for f := 0; f < frames; f++ {
					for o := 0; o <= b.MaxOrder(); o++ {
						if b.IsAllocated(uint32(f), o) != ref.IsAllocated(uint32(f), o) {
							t.Fatalf("final IsAllocated(%d, %d) disagrees", f, o)
						}
					}
				}
			})
		}
	}
}
