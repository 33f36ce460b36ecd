// Package alloc implements the NVM allocator of the TreeSLS checkpoint
// manager: a buddy system for page-granularity allocations (§3 of the
// paper), plus the object size classes the manager's space accounting
// reads.
//
// All allocator metadata conceptually lives in the global metadata area on
// NVM and therefore survives power failures; what does NOT survive is an
// in-flight operation, which is protected by the redo/undo journal
// (internal/journal), and runtime pages allocated after the last
// checkpoint, which are freed again during recovery via the persistent
// operation log (the paper identifies them "by comparing system state at
// crash with the last checkpoint's state"; the log is the equivalent
// mechanism made explicit).
package alloc

import "fmt"

const (
	stateInterior  uint8 = iota // not a block head
	stateFreeHead               // head of a free block
	stateAllocated              // head of an allocated block
)

// frameRec is one frame's buddy metadata.
type frameRec struct {
	next, prev int32 // intrusive links, valid for free block heads
	state      uint8 // interior / free head / allocated head
	order      uint8 // valid for heads
}

// recChunkFrames is how many frames one lazily made record chunk covers.
const recChunkFrames = 512

// Buddy is a binary buddy allocator over the NVM frame range [0, nFrames).
// It is deterministic: free lists are LIFO stacks with O(1) removal via
// intrusive links, so identical operation sequences yield identical layouts.
//
// The per-frame records live in chunks of recChunkFrames, each made when
// one of its frames is first written, so boot costs what the carve and the
// metadata reservation touch rather than the device size. Invariant: a
// missing chunk reads as all-interior frames (the zero frameRec) — exactly
// what a dense, zeroed table holds for a frame never written. rec is the
// one read path and set the one write path.
type Buddy struct {
	nFrames  uint32
	maxOrder int

	freeHead []int32 // per order; -1 when empty
	chunks   []*[recChunkFrames]frameRec

	freeFrames uint32
}

// NewBuddy creates a buddy allocator covering nFrames frames, with the first
// reserved frames pre-allocated (the global metadata area).
func NewBuddy(nFrames int, reserved int) *Buddy {
	if nFrames <= 0 || reserved < 0 || reserved > nFrames {
		panic(fmt.Sprintf("alloc: bad buddy geometry nFrames=%d reserved=%d", nFrames, reserved))
	}
	maxOrder := 0
	for (1 << (maxOrder + 1)) <= nFrames {
		maxOrder++
	}
	b := &Buddy{
		nFrames:  uint32(nFrames),
		maxOrder: maxOrder,
		freeHead: make([]int32, maxOrder+1),
		chunks:   make([]*[recChunkFrames]frameRec, (nFrames+recChunkFrames-1)/recChunkFrames),
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

// rec returns frame f's record. A frame whose chunk was never made reads as
// the zero record: an interior frame.
func (b *Buddy) rec(f uint32) frameRec {
	if c := b.chunks[f/recChunkFrames]; c != nil {
		return c[f%recChunkFrames]
	}
	return frameRec{}
}

// set returns frame f's record for writing, making its chunk on first use.
func (b *Buddy) set(f uint32) *frameRec {
	c := b.chunks[f/recChunkFrames]
	if c == nil {
		c = new([recChunkFrames]frameRec)
		b.chunks[f/recChunkFrames] = c
	}
	return &c[f%recChunkFrames]
}

// isHead reports whether frame f heads a block of the given state and order.
func (b *Buddy) isHead(f uint32, state uint8, o int) bool {
	r := b.rec(f)
	return r.state == state && int(r.order) == o
}

// MaxOrder returns the largest supported allocation order.
func (b *Buddy) MaxOrder() int { return b.maxOrder }

// FreeFrames returns the number of free frames.
func (b *Buddy) FreeFrames() int { return int(b.freeFrames) }

func (b *Buddy) insertFree(start uint32, o int) {
	head := b.freeHead[o]
	*b.set(start) = frameRec{next: head, prev: -1, state: stateFreeHead, order: uint8(o)}
	if head >= 0 {
		b.set(uint32(head)).prev = int32(start)
	}
	b.freeHead[o] = int32(start)
}

func (b *Buddy) removeFree(start uint32) {
	r := b.rec(start)
	if r.prev >= 0 {
		b.set(uint32(r.prev)).next = r.next
	} else {
		b.freeHead[r.order] = r.next
	}
	if r.next >= 0 {
		b.set(uint32(r.next)).prev = r.prev
	}
	b.set(start).state = stateInterior
}

// markAllocated makes start the head of an allocated block of order o.
func (b *Buddy) markAllocated(start uint32, o int) {
	r := b.set(start)
	r.state, r.order = stateAllocated, uint8(o)
	b.freeFrames -= 1 << o
}

// ErrOutOfMemory is returned when no free block of the requested order
// exists.
var ErrOutOfMemory = fmt.Errorf("alloc: out of NVM")

// Alloc allocates a block of 2^order frames and returns its start frame.
func (b *Buddy) Alloc(order int) (uint32, error) {
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
	b.markAllocated(start, order)
	return start, nil
}

// AllocExact allocates the specific block [start, start+2^order). It is used
// to reserve the metadata area and to roll back Free operations during
// recovery. The block must currently be fully contained in one free block.
func (b *Buddy) AllocExact(start uint32, order int) error {
	if order < 0 || order > b.maxOrder || start%(1<<order) != 0 || start+(1<<order) > b.nFrames {
		return fmt.Errorf("alloc: AllocExact(%d, order %d) out of range", start, order)
	}
	// Find the free block containing [start, start+2^order).
	o := order
	for ; o <= b.maxOrder; o++ {
		base := start &^ ((1 << o) - 1)
		if base < b.nFrames && b.isHead(base, stateFreeHead, o) {
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
			b.markAllocated(base, order)
			return nil
		}
	}
	return fmt.Errorf("alloc: AllocExact(%d, order %d): block not free", start, order)
}

// Free releases the block starting at start with the given order, merging
// buddies as far as possible.
func (b *Buddy) Free(start uint32, order int) {
	if start >= b.nFrames || !b.isHead(start, stateAllocated, order) {
		panic(fmt.Sprintf("alloc: bad Free(%d, order %d)", start, order))
	}
	b.set(start).state = stateInterior
	b.freeFrames += 1 << order
	o := order
	for o < b.maxOrder {
		buddy := start ^ (1 << o)
		if buddy >= b.nFrames || !b.isHead(buddy, stateFreeHead, o) {
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
func (b *Buddy) IsAllocated(start uint32, order int) bool {
	return start < b.nFrames && b.isHead(start, stateAllocated, order)
}

// IsFree reports whether frame f lies inside a free block. Blocks are
// aligned to their order, so the head of f's block is f rounded down to a
// multiple of 2^o for its order o, and every frame between that head and f
// is interior: the first head met rounding down is the block's own.
func (b *Buddy) IsFree(f uint32) bool {
	if f >= b.nFrames {
		return false
	}
	for o := 0; o <= b.maxOrder; o++ {
		if r := b.rec(f &^ (1<<o - 1)); r.state != stateInterior {
			return r.state == stateFreeHead
		}
	}
	return false
}

// CheckInvariants validates the free-list structure and returns an error
// describing the first violation found. Tests call this after random
// operation sequences.
func (b *Buddy) CheckInvariants() error {
	seen := uint32(0)
	for o := 0; o <= b.maxOrder; o++ {
		for f := b.freeHead[o]; f >= 0; f = b.rec(uint32(f)).next {
			fr := uint32(f)
			if !b.isHead(fr, stateFreeHead, o) {
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
			if o < b.maxOrder && buddy < b.nFrames && b.isHead(buddy, stateFreeHead, o) {
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
