package caps

import (
	"treesls/internal/mem"
)

// PMOType distinguishes ordinary physical memory objects from eternal ones.
type PMOType uint8

const (
	// PMODefault pages roll back to the last checkpoint on restore.
	PMODefault PMOType = iota
	// PMOEternal pages are NOT rolled back during recovery (§5). Drivers
	// keep ring buffers and hardware configuration in eternal PMOs so the
	// restore callbacks can reconcile with the outside world.
	PMOEternal
)

// String names the type.
func (t PMOType) String() string {
	if t == PMOEternal {
		return "eternal"
	}
	return "default"
}

// PageSlot is the runtime per-page state kept in a PMO's radix tree.
type PageSlot struct {
	// Page is the runtime physical page (NVM, or DRAM for hot pages
	// migrated by hybrid copy).
	Page mem.PageID
	// Writable mirrors the page-table write permission: false while the
	// page is copy-on-write-protected by the checkpoint manager.
	Writable bool
	// Hotness counts recent write faults; the hybrid-copy policy migrates
	// the page to DRAM when it crosses the threshold (§4.3.2).
	Hotness uint16
	// OnHotList marks pages currently tracked by the dual-function
	// active page list.
	OnHotList bool
	// IdleRounds counts checkpoint rounds since the last write fault,
	// used to demote cold pages from DRAM back to NVM.
	IdleRounds uint16
	// Dirty is the simulated hardware dirty bit: set by every store, read
	// and cleared by the checkpoint manager (it is what lets DRAM-cached
	// hot pages skip write protection and still be found at
	// stop-and-copy time).
	Dirty bool
	// SwappedOut marks a page evicted to secondary storage (§8 memory
	// over-commitment); Page is nil until a fault swaps it back in.
	SwappedOut bool
}

// PMO is a physical memory object: a set of physical pages organized by a
// radix tree (§4.1). Pages are materialized lazily on first touch.
type PMO struct {
	objHeader
	Type PMOType
	// SizePages is the object's capacity in pages.
	SizePages uint64

	pages Radix[*PageSlot]

	// Touched lists page indices that became writable since the last
	// checkpoint (freshly installed or copy-on-write-unprotected). The
	// stop-the-world pause write-protects exactly these pages and syncs
	// their checkpointed-radix entries, so per-round work is O(dirty
	// pages), not O(all pages). The checkpoint manager drains it.
	Touched []uint64
}

func newPMO(id uint64, sizePages uint64, typ PMOType) *PMO {
	p := new(PMO)
	p.reset(id, sizePages, typ)
	return p
}

// reset puts p in the state of a new PMO with the given ID, size and type:
// no pages. It keeps the storage of the page radix — its nodes, and the
// page slot each index last held, which InstallPage and InstallSwapped
// reuse — and of Touched.
func (p *PMO) reset(id uint64, sizePages uint64, typ PMOType) {
	p.pages.Reset()
	*p = PMO{
		objHeader: newHeader(KindPMO, id),
		Type:      typ,
		SizePages: sizePages,
		pages:     p.pages,
		Touched:   p.Touched[:0],
	}
}

// Lookup returns the page slot at index idx, or nil if no page has been
// materialized there yet.
func (p *PMO) Lookup(idx uint64) *PageSlot {
	s, ok := p.pages.Get(idx)
	if !ok {
		return nil
	}
	return s
}

// InstallPage materializes a page at idx backed by the given physical page.
// New pages start writable with zero hotness.
func (p *PMO) InstallPage(idx uint64, page mem.PageID) *PageSlot {
	if idx >= p.SizePages {
		panic("caps: InstallPage beyond PMO size")
	}
	s := p.fileSlot(idx)
	*s = PageSlot{Page: page, Writable: true}
	p.Touched = append(p.Touched, idx)
	p.MarkDirty()
	return s
}

// InstallSwapped materializes a swapped-out placeholder at idx: the page
// exists but its content lives on secondary storage until a fault swaps it
// back in. Placeholders are not write-protected state, so they are not
// recorded in Touched.
func (p *PMO) InstallSwapped(idx uint64) *PageSlot {
	if idx >= p.SizePages {
		panic("caps: InstallSwapped beyond PMO size")
	}
	s := p.fileSlot(idx)
	*s = PageSlot{SwappedOut: true}
	return s
}

// fileSlot files a page slot at idx and returns it for the caller to assign
// whole: the slot a reset left at idx when there is one, else a new slot.
// An index that holds a page gets a new slot, so a handle to the page it
// replaces never sees the new one.
func (p *PMO) fileSlot(idx uint64) *PageSlot {
	leaf, isNew := p.pages.Put(idx)
	if !isNew || *leaf == nil {
		*leaf = new(PageSlot)
	}
	return *leaf
}

// NumPages returns the number of materialized pages.
func (p *PMO) NumPages() int { return p.pages.Len() }

// ForEachPage visits all materialized pages in index order.
func (p *PMO) ForEachPage(fn func(idx uint64, s *PageSlot) bool) {
	p.pages.Walk(fn)
}

// CkptPage is the leaf of the checkpointed radix tree: the CP structure of
// Figure 6(a), extended to the CPP (checkpointed page pair) of Figure 6(b)
// for DRAM-cached pages.
//
// For an NVM-resident runtime page only slot 0 is used; the runtime page
// itself acts as "the second backup with version zero" (§4.3.3). For a
// DRAM-cached page both slots hold NVM backup pages used alternately.
type CkptPage struct {
	Ver  [2]uint64
	Page [2]mem.PageID
	// Swap, when non-zero, says the page's consistent content lives in
	// swap slot Swap-1 on the secondary storage device (the memory
	// over-commitment extension of §8). A swapped page has no NVM copies.
	Swap uint64
	// Born is the checkpoint round that created this entry. Restore
	// ignores entries born in a round that never committed: the page
	// only ever existed inside the crashed epoch.
	Born uint64
}

// PMOSnap is the backup image of a PMO: its metadata plus the checkpointed
// radix tree. Unlike other snapshots it is a single long-lived structure
// reused across checkpoint rounds (pages carry their own versions), which is
// what makes incremental PMO checkpoints nearly free (Table 3: 0.03 µs).
type PMOSnap struct {
	Type      PMOType
	SizePages uint64
	Pages     Radix[*CkptPage]
}

// SnapKind implements Snapshot.
func (*PMOSnap) SnapKind() ObjectKind { return KindPMO }
