// Package vm implements the virtual-memory subsystem of the simulated
// TreeSLS machine: per-address-space page tables (kept in DRAM, never
// checkpointed), modeled as a software TLB of per-region translation
// tables, and the page-fault path, including the copy-on-write hook the
// checkpoint manager uses to implement tree-structured page checkpointing
// (§4.1 "VM Space and Page Tables", Figure 5 step ❻).
package vm

import (
	"encoding/binary"
	"fmt"

	"treesls/internal/caps"
	"treesls/internal/mem"
	"treesls/internal/simclock"
)

// FaultOps is implemented by the checkpoint manager to service the three
// kinds of page fault the VM layer raises.
type FaultOps interface {
	// MaterializePage provides a fresh zero page for PMO index idx (a
	// first-touch fault on an unbacked page). The implementation
	// allocates the physical page and installs it into the PMO.
	MaterializePage(lane *simclock.Lane, pmo *caps.PMO, idx uint64) (*caps.PageSlot, error)
	// HandleWriteFault runs when a write hits a write-protected page:
	// the checkpoint manager duplicates the page into the backup tree
	// (copy-on-write) and re-enables writing.
	HandleWriteFault(lane *simclock.Lane, pmo *caps.PMO, idx uint64, s *caps.PageSlot) error
	// SwapIn runs when an access hits a page evicted to secondary
	// storage (§8 memory over-commitment): it brings the content back
	// and re-backs the slot with a physical page.
	SwapIn(lane *simclock.Lane, pmo *caps.PMO, idx uint64, s *caps.PageSlot) error
}

// Stats counts VM activity for one address space.
type Stats struct {
	Reads       uint64
	Writes      uint64
	MapFaults   uint64 // first-touch / rebuild-after-restore faults
	WriteFaults uint64 // copy-on-write faults
	SwapFaults  uint64 // swapped-out pages brought back in
}

// AddressSpace binds a VMSpace to a (volatile) software TLB and provides
// the memory access path used by simulated user code. All application data
// in the reproduction flows through Read/Write here, so checkpoint-related
// page faults happen exactly where they would on real hardware.
type AddressSpace struct {
	Space *caps.VMSpace

	memory *mem.Memory
	model  *simclock.CostModel
	ops    FaultOps

	// tables holds one translation table per region faulted in since the
	// last InvalidateAll, in first-fault order. Past its end the backing
	// array keeps emptied tables, whose entry storage the next tables
	// reuse.
	tables []regionTable

	Stats Stats
}

// regionTable caches the translations of one region: entry i is virtual
// page first+i. Its length is the highest page touched plus one, doubled on
// growth and capped at the region's span; entries in [len, cap) are always
// empty. perm holds the region's rights at map time (hardware keeps
// permission bits in the PTE, so permission checks do not re-walk the
// region list on every access).
type regionTable struct {
	first uint64 // first virtual page number of the region
	span  uint64 // virtual pages the region covers
	perm  caps.Right
	ents  []tlbEntry
}

// tlbEntry is one cached translation: the page slot (nil: not mapped) and,
// once a read resolved it, the physical page the slot held then and that
// page's own bytes. A read goes back to mem only when slot.Page has moved
// since (hybrid-copy migration, demotion or swap-in) or the page still
// reads the shared zero frame, which the entry never keeps (mem.OwnFrame).
type tlbEntry struct {
	slot  *caps.PageSlot
	page  mem.PageID
	frame *[mem.PageSize]byte
}

// NewAddressSpace creates the address space for space and parks itself in
// space.PageTable.
func NewAddressSpace(space *caps.VMSpace, memory *mem.Memory, ops FaultOps) *AddressSpace {
	as := &AddressSpace{
		Space:  space,
		memory: memory,
		model:  memory.Model(),
		ops:    ops,
	}
	space.PageTable = as
	return as
}

// Reset puts as in the state NewAddressSpace would return it in, for the
// same space, memory and fault handler: no mappings, zero Stats, parked in
// as.Space. It keeps the tables' storage. The kernel resets a crashed
// process's address space for the same revived VM space after a restore.
func (as *AddressSpace) Reset() {
	as.InvalidateAll()
	as.Stats = Stats{}
	as.Space.PageTable = as
}

// InvalidateAll drops every mapping; subsequent accesses fault and rebuild
// the tables from the VM space. Unmapping a region calls it, like a TLB
// shootdown.
func (as *AddressSpace) InvalidateAll() {
	for i := range as.tables {
		t := &as.tables[i]
		clear(t.ents)
		t.ents = t.ents[:0]
	}
	as.tables = as.tables[:0]
}

// lookup returns the cached translation of virtual page vpn and its
// rights, or nil.
func (as *AddressSpace) lookup(vpn uint64) (*tlbEntry, caps.Right) {
	for i := range as.tables {
		t := &as.tables[i]
		if j := vpn - t.first; j < uint64(len(t.ents)) && t.ents[j].slot != nil {
			return &t.ents[j], t.perm
		}
	}
	return nil, 0
}

// install caches slot as the translation of virtual page vpn of region r,
// growing r's table as needed.
func (as *AddressSpace) install(r *caps.VMRegion, vpn uint64, slot *caps.PageSlot) *tlbEntry {
	first := r.VABase / mem.PageSize
	span := (r.End(mem.PageSize)-1)/mem.PageSize - first + 1
	var t *regionTable
	for i := range as.tables {
		if as.tables[i].first == first && as.tables[i].span == span {
			t = &as.tables[i]
			break
		}
	}
	if t == nil {
		n := len(as.tables)
		if n < cap(as.tables) {
			as.tables = as.tables[:n+1]
		} else {
			as.tables = append(as.tables, regionTable{})
		}
		t = &as.tables[n]
		*t = regionTable{first: first, span: span, perm: r.Perm, ents: t.ents[:0]}
	}
	j := vpn - first
	if j >= uint64(len(t.ents)) {
		n := max(j+1, 2*uint64(len(t.ents)))
		n = min(n, t.span)
		if n <= uint64(cap(t.ents)) {
			t.ents = t.ents[:n]
		} else {
			ents := make([]tlbEntry, n)
			copy(ents, t.ents)
			t.ents = ents
		}
	}
	t.ents[j] = tlbEntry{slot: slot}
	return &t.ents[j]
}

// translate returns the cached translation of va, faulting as needed.
func (as *AddressSpace) translate(lane *simclock.Lane, va uint64, forWrite bool) (*tlbEntry, error) {
	vpn := va / mem.PageSize
	lane.Charge(as.model.PageTableWalk)
	e, perm := as.lookup(vpn)
	if e == nil {
		// Mapping fault: find the region, materialize the PMO page if
		// needed, install the mapping.
		lane.Charge(as.model.PageFaultTrap)
		as.Stats.MapFaults++
		r := as.Space.FindRegion(va)
		if r == nil {
			return nil, fmt.Errorf("vm: segfault at %#x (no region)", va)
		}
		if !permits(r.Perm, forWrite) {
			return nil, permError(r.Perm, va, forWrite)
		}
		idx := r.PMOOffset + (vpn - r.VABase/mem.PageSize)
		slot := r.PMO.Lookup(idx)
		if slot == nil {
			var err error
			slot, err = as.ops.MaterializePage(lane, r.PMO, idx)
			if err != nil {
				return nil, fmt.Errorf("vm: materializing page %d of PMO %d: %w", idx, r.PMO.ID(), err)
			}
		}
		e = as.install(r, vpn, slot)
		lane.Charge(as.model.PageTableUpdate)
	} else if !permits(perm, forWrite) {
		// Permission bits live in the PTE: checked on every access.
		return nil, permError(perm, va, forWrite)
	}
	slot := e.slot
	if slot.SwappedOut {
		// Major fault: the page was evicted to secondary storage.
		lane.Charge(as.model.PageFaultTrap)
		as.Stats.SwapFaults++
		r := as.Space.FindRegion(va)
		if r == nil {
			return nil, fmt.Errorf("vm: segfault at %#x (region vanished)", va)
		}
		idx := r.PMOOffset + (vpn - r.VABase/mem.PageSize)
		if err := as.ops.SwapIn(lane, r.PMO, idx, slot); err != nil {
			return nil, err
		}
		if slot.SwappedOut || slot.Page.IsNil() {
			return nil, fmt.Errorf("vm: swap-in left page %d of PMO %d unbacked", idx, r.PMO.ID())
		}
		lane.Charge(as.model.PageTableUpdate)
	}
	if forWrite && !slot.Writable {
		// Copy-on-write fault (Figure 5 step ❻).
		lane.Charge(as.model.PageFaultTrap)
		as.Stats.WriteFaults++
		r := as.Space.FindRegion(va)
		if r == nil {
			return nil, fmt.Errorf("vm: segfault at %#x (region vanished)", va)
		}
		if !permits(r.Perm, true) {
			return nil, permError(r.Perm, va, true)
		}
		idx := r.PMOOffset + (vpn - r.VABase/mem.PageSize)
		if err := as.ops.HandleWriteFault(lane, r.PMO, idx, slot); err != nil {
			return nil, err
		}
		if !slot.Writable {
			return nil, fmt.Errorf("vm: write fault handler left page %d of PMO %d read-only", idx, r.PMO.ID())
		}
		lane.Charge(as.model.PageTableUpdate)
	}
	return e, nil
}

// permits reports whether a region's capability rights perm allow an
// access: reads need RightRead, writes need RightWrite. A region with no
// rights bits set is treated as fully accessible (kernel-internal
// mappings).
func permits(perm caps.Right, forWrite bool) bool {
	need := caps.RightRead
	if forWrite {
		need = caps.RightWrite
	}
	return perm == 0 || perm&need != 0
}

// permError is the error of an access that perm does not permit.
func permError(perm caps.Right, va uint64, forWrite bool) error {
	if forWrite {
		return fmt.Errorf("vm: write to read-only region at %#x (perm %#x)", va, perm)
	}
	return fmt.Errorf("vm: read from non-readable region at %#x (perm %#x)", va, perm)
}

// Write stores data at virtual address va, spanning pages as needed.
func (as *AddressSpace) Write(lane *simclock.Lane, va uint64, data []byte) error {
	as.Stats.Writes++
	for len(data) > 0 {
		off := int(va % mem.PageSize)
		n := min(mem.PageSize-off, len(data))
		e, err := as.translate(lane, va, true)
		if err != nil {
			return err
		}
		e.slot.Dirty = true // hardware dirty bit
		lane.Charge(as.memory.WriteAt(e.slot.Page, off, data[:n]))
		va += uint64(n)
		data = data[n:]
	}
	return nil
}

// Read loads len(buf) bytes from virtual address va.
func (as *AddressSpace) Read(lane *simclock.Lane, va uint64, buf []byte) error {
	as.Stats.Reads++
	for len(buf) > 0 {
		off := int(va % mem.PageSize)
		n := min(mem.PageSize-off, len(buf))
		e, err := as.translate(lane, va, false)
		if err != nil {
			return err
		}
		as.load(lane, e, off, buf[:n])
		va += uint64(n)
		buf = buf[n:]
	}
	return nil
}

// load reads buf at offset off of e's page, charging what Memory.ReadAt
// would. It reads the frame e cached unless the slot's page has moved
// since or the page had no bytes of its own then.
func (as *AddressSpace) load(lane *simclock.Lane, e *tlbEntry, off int, buf []byte) {
	p := e.slot.Page
	if e.frame == nil || e.page != p {
		d := as.memory.Data(p)
		if !mem.OwnFrame(d) {
			lane.Charge(as.memory.ReadFrame(p, d, off, buf))
			return
		}
		e.page, e.frame = p, (*[mem.PageSize]byte)(d)
	}
	lane.Charge(as.memory.ReadFrame(p, e.frame[:], off, buf))
}

// ReadU64/WriteU64 are convenience accessors for word-sized data, used
// heavily by the user-space heap and application data structures.

// ReadU64 loads a little-endian uint64 at va.
func (as *AddressSpace) ReadU64(lane *simclock.Lane, va uint64) (uint64, error) {
	var b [8]byte
	if err := as.Read(lane, va, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteU64 stores a little-endian uint64 at va.
func (as *AddressSpace) WriteU64(lane *simclock.Lane, va uint64, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return as.Write(lane, va, b[:])
}
