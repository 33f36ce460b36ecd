package caps

// Tree is the runtime capability tree (Figure 4): all system resources are
// capability-referred objects reachable from the root cap group. Object
// identity is a monotonically increasing ID assigned at creation and stable
// across checkpoints/restores.
type Tree struct {
	Root   *CapGroup
	nextID uint64
}

// NewTree creates a tree containing only the root cap group.
func NewTree() *Tree {
	t := &Tree{}
	t.Root = newCapGroup(t.allocID(), "root")
	return t
}

func (t *Tree) allocID() uint64 {
	t.nextID++
	return t.nextID
}

// NextID exposes the ID counter so a restore can resume it past all revived
// objects.
func (t *Tree) NextID() uint64 { return t.nextID }

// NewCapGroup creates a cap group and installs a capability for it into
// parent (use t.Root for top-level processes).
func (t *Tree) NewCapGroup(parent *CapGroup, name string) *CapGroup {
	g := newCapGroup(t.allocID(), name)
	parent.Install(g, RightsAll)
	return g
}

// NewThread creates a thread owned by group owner.
func (t *Tree) NewThread(owner *CapGroup) *Thread {
	th := newThread(t.allocID())
	owner.Install(th, RightsAll)
	return th
}

// NewVMSpace creates a VM space owned by owner.
func (t *Tree) NewVMSpace(owner *CapGroup) *VMSpace {
	v := newVMSpace(t.allocID())
	owner.Install(v, RightsAll)
	return v
}

// NewPMO creates a PMO of sizePages pages owned by owner.
func (t *Tree) NewPMO(owner *CapGroup, sizePages uint64, typ PMOType) *PMO {
	p := newPMO(t.allocID(), sizePages, typ)
	owner.Install(p, RightsAll)
	return p
}

// NewIPCConn creates an IPC connection between client and server threads,
// owned by owner.
func (t *Tree) NewIPCConn(owner *CapGroup, client, server *Thread) *IPCConn {
	c := newIPCConn(t.allocID(), client, server)
	owner.Install(c, RightsAll)
	return c
}

// NewNotification creates a notification object owned by owner.
func (t *Tree) NewNotification(owner *CapGroup) *Notification {
	n := newNotification(t.allocID())
	owner.Install(n, RightsAll)
	return n
}

// NewIRQNotification creates an IRQ notification for a hardware line.
func (t *Tree) NewIRQNotification(owner *CapGroup, line int) *IRQNotification {
	n := newIRQNotification(t.allocID(), line)
	owner.Install(n, RightsAll)
	return n
}

// ReviveCapGroup creates an empty cap group with a pre-assigned ID during
// restore (the snapshot carries the contents).
func ReviveCapGroup(id uint64) *CapGroup { return newCapGroup(id, "") }

// ReviveThread creates an empty thread with a pre-assigned ID.
func ReviveThread(id uint64) *Thread { return newThread(id) }

// ReviveVMSpace creates an empty VM space with a pre-assigned ID.
func ReviveVMSpace(id uint64) *VMSpace { return newVMSpace(id) }

// RevivePMO creates an empty PMO with a pre-assigned ID.
func RevivePMO(id uint64, sizePages uint64, typ PMOType) *PMO {
	return newPMO(id, sizePages, typ)
}

// ReviveIPCConn creates an empty IPC connection with a pre-assigned ID.
func ReviveIPCConn(id uint64) *IPCConn { return newIPCConn(id, nil, nil) }

// ReviveNotification creates an empty notification with a pre-assigned ID.
func ReviveNotification(id uint64) *Notification { return newNotification(id) }

// ReviveIRQNotification creates an empty IRQ notification.
func ReviveIRQNotification(id uint64) *IRQNotification { return newIRQNotification(id, 0) }

// RebuildTree wraps a revived root cap group into a Tree, resuming the ID
// counter saved at the last checkpoint (restore path only).
func RebuildTree(root *CapGroup, nextID uint64) *Tree {
	return &Tree{Root: root, nextID: nextID}
}

// Walk visits every object reachable from the root exactly once, in
// deterministic (DFS, slot-order) order. It follows cap-group slots as well
// as inter-object references (VM regions to PMOs, IPC endpoints,
// notification waiters), mirroring how the checkpoint walk reaches state.
func (t *Tree) Walk(fn func(Object)) {
	visited := NewIDSet(t.nextID)
	var visit func(Object)
	visit = func(o Object) {
		if o == nil || !visited.Add(o.ID()) {
			return
		}
		fn(o)
		// Typed pointers must be nil-checked before converting to the
		// Object interface (a typed nil would slip past visit's guard).
		switch v := o.(type) {
		case *CapGroup:
			v.ForEach(func(_ int, c Capability) { visit(c.Obj) })
		case *VMSpace:
			v.ForEachRegion(func(r *VMRegion) {
				if r.PMO != nil {
					visit(r.PMO)
				}
			})
		case *IPCConn:
			if v.Client != nil {
				visit(v.Client)
			}
			if v.Server != nil {
				visit(v.Server)
			}
		case *Notification:
			for _, w := range v.waiters {
				if w != nil {
					visit(w)
				}
			}
		case *IRQNotification:
			if v.Handler != nil {
				visit(v.Handler)
			}
		}
	}
	visit(t.Root)
}

// Counts tallies reachable objects by kind — the "Object Composition"
// columns of Table 2.
func (t *Tree) Counts() [NumKinds]int {
	var counts [NumKinds]int
	t.Walk(func(o Object) { counts[o.Kind()]++ })
	return counts
}

// TotalPMOPages sums materialized pages over all reachable PMOs (the "App"
// size column of Table 2, in pages).
func (t *Tree) TotalPMOPages() int {
	total := 0
	t.Walk(func(o Object) {
		if p, ok := o.(*PMO); ok {
			total += p.NumPages()
		}
	})
	return total
}
