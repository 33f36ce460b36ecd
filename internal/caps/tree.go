package caps

import "fmt"

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

// Revive returns the object a restore fills from snap, the committed
// snapshot of the object with the given ID, in the state of a new object of
// snap's kind. When old, the crashed runtime object its root still points
// at, is of that kind, Revive resets it in place: every field is
// overwritten, and only its Go storage is kept (slot, region, waiter and
// buffer slices, region structs, and a PMO's radix nodes, page slots and
// Touched capacity). Otherwise it makes a new object through the same
// reset.
func Revive(old Object, id uint64, snap Snapshot) Object {
	switch s := snap.(type) {
	case *CapGroupSnap:
		g := reuse[CapGroup](old)
		g.reset(id)
		return g
	case *ThreadSnap:
		t := reuse[Thread](old)
		t.reset(id)
		return t
	case *VMSpaceSnap:
		v := reuse[VMSpace](old)
		v.reset(id)
		return v
	case *PMOSnap:
		p := reuse[PMO](old)
		p.reset(id, s.SizePages, s.Type)
		return p
	case *IPCConnSnap:
		c := reuse[IPCConn](old)
		c.reset(id)
		return c
	case *NotificationSnap:
		n := reuse[Notification](old)
		n.reset(id)
		return n
	case *IRQNotificationSnap:
		n := reuse[IRQNotification](old)
		n.reset(id)
		return n
	default:
		panic(fmt.Sprintf("caps: Revive of unknown snapshot type %T", snap))
	}
}

// reuse returns old when it is a *T, and otherwise a new T.
func reuse[T any, PT interface {
	*T
	Object
}](old Object) PT {
	if o, ok := old.(PT); ok {
		return o
	}
	return PT(new(T))
}

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
