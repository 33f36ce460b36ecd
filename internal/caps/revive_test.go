package caps

import (
	"testing"

	"treesls/internal/mem"
)

// TestRadixResetKeepsNodes checks that Reset removes every entry but keeps
// the nodes and each leaf's value, which Put hands back for a new entry.
func TestRadixResetKeepsNodes(t *testing.T) {
	var r Radix[string]
	idxs := []uint64{0, 5, 64, 4095, 70000}
	for _, i := range idxs {
		r.Set(i, "old")
	}
	r.Delete(5)
	nodes := r.Nodes()
	r.Reset()
	if r.Len() != 0 || r.Nodes() != nodes {
		t.Fatalf("after Reset: %d entries and %d nodes, want 0 and %d", r.Len(), r.Nodes(), nodes)
	}
	r.Walk(func(idx uint64, _ string) bool { t.Errorf("Walk visited %d after Reset", idx); return true })
	for _, i := range idxs {
		if _, ok := r.Get(i); ok {
			t.Errorf("Get(%d) found an entry after Reset", i)
		}
	}
	leaf, isNew := r.Put(64)
	if !isNew || *leaf != "old" {
		t.Errorf("Put(64) after Reset = %q, new %v; want the old value, new", *leaf, isNew)
	}
	if leaf, isNew = r.Put(5); !isNew || *leaf != "" {
		t.Errorf("Put(5) of a deleted entry = %q, new %v; want the zero value, new", *leaf, isNew)
	}
	if _, isNew = r.Put(64); isNew || r.Len() != 2 || r.Nodes() != nodes {
		t.Errorf("second Put(64): new %v, %d entries, %d nodes", isNew, r.Len(), r.Nodes())
	}
}

// TestReviveResetsInPlace revives an object of every kind into itself and
// checks that it comes out in the state of a new object of its kind while
// keeping its storage, and that a PMO hands each page slot back, assigned
// whole.
func TestReviveResetsInPlace(t *testing.T) {
	tree := NewTree()
	g := tree.NewCapGroup(tree.Root, "g")
	th := tree.NewThread(g)
	th.Touch(func(c *Context) { c.PC, c.R[7] = 1, 2 })
	th.Sched.Affinity = 3
	th.SetState(ThreadBlocked)
	vs := tree.NewVMSpace(g)
	pmo := tree.NewPMO(g, 8, PMODefault)
	_ = vs.Map(&VMRegion{VABase: 0x1000, NumPages: 8, PMO: pmo})
	vs.PageTable = "table"
	slot := pmo.InstallPage(3, mem.PageID{Kind: mem.KindNVM, Frame: 9})
	slot.Hotness, slot.OnHotList, slot.IdleRounds, slot.Dirty = 5, true, 2, true
	conn := tree.NewIPCConn(g, th, th)
	conn.Send([]byte("hello"))
	noti := tree.NewNotification(g)
	noti.Wait(th)
	irq := tree.NewIRQNotification(g, 9)
	irq.Handler = th
	irq.Raise()
	res := newFakeResolver()
	for _, o := range []Object{g, th, vs, pmo, conn, noti, irq} {
		res.resolve(o)
	}

	revive := func(o Object, snap Snapshot) {
		t.Helper()
		if got := Revive(o, o.ID(), snap); got != o {
			t.Fatalf("Revive of a %v returned a new object", o.Kind())
		}
		if !o.Dirty() || o.ORoot() != nil {
			t.Errorf("revived %v: dirty %v, root %v; want a new object's header", o.Kind(), o.Dirty(), o.ORoot())
		}
	}
	slots := cap(g.slots)
	revive(g, &CapGroupSnap{})
	if g.Name != "" || g.NumSlots() != 0 || cap(g.slots) != slots {
		t.Errorf("revived cap group %q with %d slots, capacity %d (was %d)", g.Name, g.NumSlots(), cap(g.slots), slots)
	}
	revive(th, &ThreadSnap{})
	if *th != *newThread(th.ID()) {
		t.Errorf("revived thread %+v, want %+v", *th, *newThread(th.ID()))
	}
	region := vs.regions[0]
	revive(vs, &VMSpaceSnap{})
	if vs.NumRegions() != 0 || vs.PageTable != nil {
		t.Errorf("revived VM space has %d regions, page table %v", vs.NumRegions(), vs.PageTable)
	}
	vs.RestoreFrom(&VMSpaceSnap{Regions: []VMRegionSnap{{VABase: 0x2000, NumPages: 2, PMORoot: pmo.ORoot()}}}, res.revive)
	if vs.regions[0] != region || *region != (VMRegion{VABase: 0x2000, NumPages: 2, PMO: pmo}) {
		t.Errorf("restored region %p %+v, want the old struct %p rewritten", vs.regions[0], *vs.regions[0], region)
	}
	revive(pmo, &PMOSnap{SizePages: 16, Type: PMOEternal})
	if pmo.NumPages() != 0 || len(pmo.Touched) != 0 || cap(pmo.Touched) == 0 ||
		pmo.SizePages != 16 || pmo.Type != PMOEternal {
		t.Errorf("revived PMO: %d pages, touched %v (capacity %d), %d pages of %v",
			pmo.NumPages(), pmo.Touched, cap(pmo.Touched), pmo.SizePages, pmo.Type)
	}
	page := mem.PageID{Kind: mem.KindNVM, Frame: 11}
	if s := pmo.InstallPage(3, page); s != slot || *s != (PageSlot{Page: page, Writable: true}) {
		t.Errorf("reinstalled page 3 on slot %p %+v, want the old slot %p assigned whole", s, *s, slot)
	}
	if s := pmo.InstallSwapped(3); s == slot || *s != (PageSlot{SwappedOut: true}) || *slot != (PageSlot{Page: page, Writable: true}) {
		t.Errorf("replacing a filed page reused its slot: %+v, old slot %+v", *s, *slot)
	}
	revive(conn, &IPCConnSnap{})
	if conn.Client != nil || conn.Server != nil || len(conn.Buf) != 0 || cap(conn.Buf) == 0 || conn.Seq != 0 {
		t.Errorf("revived connection %+v", *conn)
	}
	revive(noti, &NotificationSnap{})
	if noti.Count != 0 || noti.NumWaiters() != 0 {
		t.Errorf("revived notification: count %d, %d waiters", noti.Count, noti.NumWaiters())
	}
	revive(irq, &IRQNotificationSnap{})
	if *irq != *newIRQNotification(irq.ID(), 0) {
		t.Errorf("revived IRQ notification %+v", *irq)
	}
}
