package caps

import "fmt"

// VMRegion describes one virtual memory region: a contiguous span of virtual
// pages backed by a PMO.
type VMRegion struct {
	// VABase is the first virtual address of the region (page aligned).
	VABase uint64
	// NumPages is the region length in pages.
	NumPages uint64
	// PMO backs the region; page i of the region maps to PMO page
	// PMOOffset+i.
	PMO *PMO
	// PMOOffset is the first backing page index inside the PMO.
	PMOOffset uint64
	// Perm are the region's access rights.
	Perm Right
}

// End returns the first virtual address past the region.
func (r *VMRegion) End(pageSize uint64) uint64 { return r.VABase + r.NumPages*pageSize }

// VMSpace records the list of accessible virtual memory regions and owns a
// page-table structure for the address space (§4.1). The page table lives in
// DRAM and is NOT checkpointed: it is derived state rebuilt lazily through
// page faults after a restore.
type VMSpace struct {
	objHeader
	regions []*VMRegion

	// PageTable is an opaque slot for the vm package's table structure
	// (kept here so the object graph mirrors the paper's VM Space, while
	// avoiding a dependency cycle). Restore clears it; Unmap empties it
	// when it has an InvalidateAll method.
	PageTable any
}

func newVMSpace(id uint64) *VMSpace {
	v := new(VMSpace)
	v.reset(id)
	return v
}

// reset puts v in the state of a new VM space with the given ID: no regions
// and no page table. It keeps the region list's storage, and with it the
// region structs past its end, which RestoreFrom reuses.
func (v *VMSpace) reset(id uint64) {
	*v = VMSpace{objHeader: newHeader(KindVMSpace, id), regions: v.regions[:0]}
}

// Map adds a region to the space. Regions must not overlap. The space takes
// r: a restore overwrites the struct in place, so a caller must not map one
// region struct twice.
func (v *VMSpace) Map(r *VMRegion) error {
	const ps = 4096
	for _, ex := range v.regions {
		if r.VABase < ex.End(ps) && ex.VABase < r.End(ps) {
			return fmt.Errorf("caps: region [%#x,%#x) overlaps [%#x,%#x)", r.VABase, r.End(ps), ex.VABase, ex.End(ps))
		}
	}
	v.regions = append(v.regions, r)
	v.MarkDirty()
	return nil
}

// Unmap removes the region starting at vaBase and reports success. Like a
// TLB shootdown, it empties the parked page table, so no cached
// translation outlives its region: a later access to the range faults, and
// fails unless a region maps it again.
func (v *VMSpace) Unmap(vaBase uint64) bool {
	for i, r := range v.regions {
		if r.VABase == vaBase {
			// Clear the vacated last entry, so that no region struct is
			// left twice in the list's storage for RestoreFrom to reuse.
			last := len(v.regions) - 1
			copy(v.regions[i:], v.regions[i+1:])
			v.regions[last] = nil
			v.regions = v.regions[:last]
			if pt, ok := v.PageTable.(interface{ InvalidateAll() }); ok {
				pt.InvalidateAll()
			}
			v.MarkDirty()
			return true
		}
	}
	return false
}

// FindRegion returns the region containing va, or nil.
func (v *VMSpace) FindRegion(va uint64) *VMRegion {
	const ps = 4096
	for _, r := range v.regions {
		if va >= r.VABase && va < r.End(ps) {
			return r
		}
	}
	return nil
}

// NumRegions returns the region count.
func (v *VMSpace) NumRegions() int { return len(v.regions) }

// ForEachRegion visits all regions.
func (v *VMSpace) ForEachRegion(fn func(*VMRegion)) {
	for _, r := range v.regions {
		fn(r)
	}
}

// VMRegionSnap is a backed-up region descriptor; the PMO reference goes
// through its ORoot.
type VMRegionSnap struct {
	VABase    uint64
	NumPages  uint64
	PMORoot   *ORoot
	PMOOffset uint64
	Perm      Right
}

// VMSpaceSnap is the backup image of a VM space: the region list only.
// Page tables are rebuilt after recovery (§4.1, "VM Space and Page Tables").
type VMSpaceSnap struct {
	Regions []VMRegionSnap
}

// SnapKind implements Snapshot.
func (*VMSpaceSnap) SnapKind() ObjectKind { return KindVMSpace }

// Snapshot duplicates the region list into snap, resolving PMOs to ORoots.
func (v *VMSpace) Snapshot(snap *VMSpaceSnap, resolve func(Object) *ORoot) {
	snap.Regions = snap.Regions[:0]
	for _, r := range v.regions {
		snap.Regions = append(snap.Regions, VMRegionSnap{
			VABase:    r.VABase,
			NumPages:  r.NumPages,
			PMORoot:   resolve(r.PMO),
			PMOOffset: r.PMOOffset,
			Perm:      r.Perm,
		})
	}
}

// RestoreFrom rebuilds the region list; the page table slot is cleared so
// accesses fault and rebuild mappings lazily. Each region is written whole
// into the struct the list's storage holds at its position, when there is
// one.
func (v *VMSpace) RestoreFrom(snap *VMSpaceSnap, revive func(*ORoot) Object) {
	v.regions = v.regions[:0]
	for _, rs := range snap.Regions {
		var r *VMRegion
		if n := len(v.regions); n < cap(v.regions) {
			r = v.regions[:n+1][n]
		}
		if r == nil {
			r = new(VMRegion)
		}
		*r = VMRegion{
			VABase:    rs.VABase,
			NumPages:  rs.NumPages,
			PMO:       revive(rs.PMORoot).(*PMO),
			PMOOffset: rs.PMOOffset,
			Perm:      rs.Perm,
		}
		v.regions = append(v.regions, r)
	}
	v.PageTable = nil
	v.dirty = false
}
