// Package uheap is a user-space heap allocator whose entire state — bump
// pointer, free lists, and the allocated objects — lives in the simulated
// process memory (PMO-backed pages reached through the VM layer).
//
// This is the crucial property for the reproduction: the paper's
// applications need no persistence code because ALL their state is ordinary
// memory that TreeSLS checkpoints. Storing the allocator metadata in
// simulated memory (rather than in Go objects) means a crash+restore
// round-trips every byte of application state through the checkpoint
// machinery, and an application resumes from its heap exactly as the last
// checkpoint left it.
package uheap

import (
	"fmt"

	"treesls/internal/caps"
	"treesls/internal/kernel"
	"treesls/internal/mem"
)

// Heap layout (all offsets from Base):
//
//	+0   bump pointer (VA of next free byte)
//	+8   free-list heads, one per size class (numClasses x 8 bytes)
//	+hdr first allocatable byte
const (
	numClasses = 8  // 32, 64, 128, ..., 4096 bytes
	minClass   = 32 // smallest size class
	// headerSize is rounded up so all allocations stay 16-byte aligned.
	headerSize = (8 + numClasses*8 + 15) &^ 15
)

// Heap is a handle to a persistent in-memory heap. The handle itself is
// stateless (two constants), so it remains valid across crash/restore — the
// durable state is all in simulated memory.
type Heap struct {
	// Base is the heap's first virtual address.
	Base uint64
	// Limit is one past the heap's last virtual address.
	Limit uint64
}

// classFor returns the size class index for n payload bytes, or -1 if n is
// too large for any class (such blocks bump-allocate exactly and are not
// recycled).
func classFor(n uint64) int {
	size := uint64(minClass)
	for c := 0; c < numClasses; c++ {
		if n <= size {
			return c
		}
		size *= 2
	}
	return -1
}

// classSize returns the byte size of class c.
func classSize(c int) uint64 { return minClass << uint(c) }

// New maps a fresh PMO of the given page count into p and formats a heap in
// it.
func New(e *kernel.Env, pages uint64) (*Heap, error) {
	base, _, err := e.P.Mmap(pages, caps.PMODefault)
	if err != nil {
		return nil, fmt.Errorf("uheap: mapping heap: %w", err)
	}
	h := &Heap{Base: base, Limit: base + pages*mem.PageSize}
	if err := e.WriteU64(base, base+headerSize); err != nil {
		return nil, err
	}
	for c := 0; c < numClasses; c++ {
		if err := e.WriteU64(base+8+uint64(c)*8, 0); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// Attach re-creates a handle to an existing heap (e.g. after a restore, or
// from a second thread). No memory is touched.
func Attach(base, limit uint64) *Heap { return &Heap{Base: base, Limit: limit} }

// Alloc returns the VA of an n-byte block. Small blocks come from per-class
// free lists (first 8 bytes of a free block link to the next); everything
// else bumps.
func (h *Heap) Alloc(e *kernel.Env, n uint64) (uint64, error) {
	if n == 0 {
		n = 1
	}
	c := classFor(n)
	if c >= 0 {
		headVA := h.Base + 8 + uint64(c)*8
		head, err := e.ReadU64(headVA)
		if err != nil {
			return 0, err
		}
		if head != 0 {
			next, err := e.ReadU64(head)
			if err != nil {
				return 0, err
			}
			if err := e.WriteU64(headVA, next); err != nil {
				return 0, err
			}
			return head, nil
		}
		n = classSize(c)
	} else {
		n = (n + 15) &^ 15
	}
	bump, err := e.ReadU64(h.Base)
	if err != nil {
		return 0, err
	}
	if bump+n > h.Limit {
		return 0, fmt.Errorf("uheap: out of heap (%d of %d bytes used)", bump-h.Base, h.Limit-h.Base)
	}
	if err := e.WriteU64(h.Base, bump+n); err != nil {
		return 0, err
	}
	return bump, nil
}

// Free recycles a block of n bytes allocated with Alloc. Oversized blocks
// (beyond the largest class) are leaked, as in a bump region.
func (h *Heap) Free(e *kernel.Env, va, n uint64) error {
	c := classFor(n)
	if c < 0 {
		return nil
	}
	headVA := h.Base + 8 + uint64(c)*8
	head, err := e.ReadU64(headVA)
	if err != nil {
		return err
	}
	if err := e.WriteU64(va, head); err != nil {
		return err
	}
	return e.WriteU64(headVA, va)
}
