package caps

import "fmt"

// Capability is one slot of a cap group: an object reference plus access
// rights.
type Capability struct {
	Obj    Object
	Rights Right
}

// CapGroup is an array of capabilities; every user-space process is rooted
// at one cap group, and the machine's whole state is reachable from the root
// cap group (Figure 4).
type CapGroup struct {
	objHeader
	// Name is a diagnostic label ("procmgr", "redis", ...). It is part of
	// the checkpointed state so restored trees keep their labels.
	Name string

	slots []Capability
}

// NewCapGroup is used by the tree; see Tree.NewCapGroup.
func newCapGroup(id uint64, name string) *CapGroup {
	g := new(CapGroup)
	g.reset(id)
	g.Name = name
	return g
}

// reset puts g in the state of a new, empty cap group with the given ID and
// keeps its slot array's storage.
func (g *CapGroup) reset(id uint64) {
	clear(g.slots)
	*g = CapGroup{objHeader: newHeader(KindCapGroup, id), slots: g.slots[:0]}
}

// Install appends a capability for obj and returns its slot index.
func (g *CapGroup) Install(obj Object, rights Right) int {
	if obj == nil {
		panic("caps: Install(nil)")
	}
	g.slots = append(g.slots, Capability{Obj: obj, Rights: rights})
	g.MarkDirty()
	return len(g.slots) - 1
}

// Remove clears the capability at slot i. Slot indices of other capabilities
// are stable (the slot is tombstoned, as in ChCore).
func (g *CapGroup) Remove(i int) {
	if i < 0 || i >= len(g.slots) {
		panic(fmt.Sprintf("caps: Remove(%d) out of range (%d slots)", i, len(g.slots)))
	}
	g.slots[i] = Capability{}
	g.MarkDirty()
}

// Cap returns the capability at slot i (zero Capability if tombstoned).
func (g *CapGroup) Cap(i int) Capability {
	if i < 0 || i >= len(g.slots) {
		return Capability{}
	}
	return g.slots[i]
}

// NumSlots returns the size of the slot array, including tombstones.
func (g *CapGroup) NumSlots() int { return len(g.slots) }

// ForEach visits every live capability in slot order.
func (g *CapGroup) ForEach(fn func(slot int, c Capability)) {
	for i, c := range g.slots {
		if c.Obj != nil {
			fn(i, c)
		}
	}
}

// Find returns the first live capability whose object has the given kind,
// or a zero Capability.
func (g *CapGroup) Find(kind ObjectKind) Capability {
	for _, c := range g.slots {
		if c.Obj != nil && c.Obj.Kind() == kind {
			return c
		}
	}
	return Capability{}
}

// CapGroupSnap is the backup-tree image of a cap group. Per §4.1, backup
// capabilities reference the ORoot rather than the backup object, so a
// restore can locate whichever backup snapshot the version rules select.
type CapGroupSnap struct {
	Name  string
	Slots []BackupCapability
}

// BackupCapability is one backed-up capability slot.
type BackupCapability struct {
	Root   *ORoot
	Rights Right
}

// SnapKind implements Snapshot.
func (*CapGroupSnap) SnapKind() ObjectKind { return KindCapGroup }

// Snapshot copies the cap group into snap. The caller (the checkpoint
// manager) resolves each object's ORoot via the resolve callback, which also
// gives it the hook to recursively checkpoint referenced objects.
func (g *CapGroup) Snapshot(snap *CapGroupSnap, resolve func(Object) *ORoot) {
	snap.Name = g.Name
	snap.Slots = snap.Slots[:0]
	for _, c := range g.slots {
		if c.Obj == nil {
			snap.Slots = append(snap.Slots, BackupCapability{})
			continue
		}
		snap.Slots = append(snap.Slots, BackupCapability{Root: resolve(c.Obj), Rights: c.Rights})
	}
}

// RestoreFrom rebuilds the cap group's slots from a snapshot. The revive
// callback maps each referenced ORoot to its revived runtime object.
func (g *CapGroup) RestoreFrom(snap *CapGroupSnap, revive func(*ORoot) Object) {
	g.Name = snap.Name
	g.slots = g.slots[:0]
	for _, bc := range snap.Slots {
		if bc.Root == nil {
			g.slots = append(g.slots, Capability{})
			continue
		}
		g.slots = append(g.slots, Capability{Obj: revive(bc.Root), Rights: bc.Rights})
	}
	g.dirty = false
}
