package caps

import (
	"math/rand"
	"testing"

	"treesls/internal/mem"
)

// buildSmallSystem creates a tree shaped like a minimal process: a cap group
// holding a VM space, two threads, a PMO, an IPC connection, and a
// notification.
func buildSmallSystem() (*Tree, *CapGroup) {
	t := NewTree()
	proc := t.NewCapGroup(t.Root, "proc")
	vs := t.NewVMSpace(proc)
	pmo := t.NewPMO(proc, 16, PMODefault)
	_ = vs.Map(&VMRegion{VABase: 0x1000_0000, NumPages: 16, PMO: pmo, Perm: RightRead | RightWrite})
	th1 := t.NewThread(proc)
	th2 := t.NewThread(proc)
	t.NewIPCConn(proc, th1, th2)
	t.NewNotification(proc)
	return t, proc
}

func TestTreeCounts(t *testing.T) {
	tree, _ := buildSmallSystem()
	c := tree.Counts()
	want := map[ObjectKind]int{
		KindCapGroup:     2, // root + proc
		KindThread:       2,
		KindVMSpace:      1,
		KindPMO:          1,
		KindIPCConn:      1,
		KindNotification: 1,
	}
	for k, n := range want {
		if c[k] != n {
			t.Errorf("count[%v] = %d, want %d", k, c[k], n)
		}
	}
}

func TestWalkVisitsOnce(t *testing.T) {
	tree, proc := buildSmallSystem()
	// Install a second capability to the same PMO in another group —
	// the walk must still visit it once (ORoot dedup depends on this).
	pmo := proc.Find(KindPMO).Obj
	other := tree.NewCapGroup(tree.Root, "other")
	other.Install(pmo, RightRead)

	seen := map[uint64]int{}
	tree.Walk(func(o Object) { seen[o.ID()]++ })
	for id, n := range seen {
		if n != 1 {
			t.Errorf("object %d visited %d times", id, n)
		}
	}
}

func TestIDsUniqueAndStable(t *testing.T) {
	tree, _ := buildSmallSystem()
	ids := map[uint64]bool{}
	tree.Walk(func(o Object) {
		if ids[o.ID()] {
			t.Errorf("duplicate ID %d", o.ID())
		}
		ids[o.ID()] = true
	})
	if tree.NextID() < uint64(len(ids)) {
		t.Errorf("NextID %d below object count %d", tree.NextID(), len(ids))
	}
}

func TestCapGroupInstallRemove(t *testing.T) {
	tree := NewTree()
	g := tree.NewCapGroup(tree.Root, "g")
	th := tree.NewThread(g)
	slot := g.Install(th, RightRead)
	if got := g.Cap(slot); got.Obj != th || got.Rights != RightRead {
		t.Errorf("Cap(%d) = %+v", slot, got)
	}
	g.Remove(slot)
	if got := g.Cap(slot); got.Obj != nil {
		t.Error("capability survived Remove")
	}
	// Other slots unaffected (stable indices).
	if g.Find(KindThread).Obj != th {
		t.Error("thread lost: first install should remain")
	}
}

func TestVMSpaceOverlapRejected(t *testing.T) {
	tree := NewTree()
	g := tree.NewCapGroup(tree.Root, "g")
	vs := tree.NewVMSpace(g)
	pmo := tree.NewPMO(g, 32, PMODefault)
	if err := vs.Map(&VMRegion{VABase: 0x1000, NumPages: 4, PMO: pmo}); err != nil {
		t.Fatal(err)
	}
	if err := vs.Map(&VMRegion{VABase: 0x3000, NumPages: 4, PMO: pmo, PMOOffset: 4}); err == nil {
		t.Error("overlapping Map accepted")
	}
	if err := vs.Map(&VMRegion{VABase: 0x5000, NumPages: 4, PMO: pmo, PMOOffset: 4}); err != nil {
		t.Errorf("adjacent Map rejected: %v", err)
	}
	if vs.FindRegion(0x1000) == nil || vs.FindRegion(0x4fff) == nil || vs.FindRegion(0x9000) != nil {
		t.Error("FindRegion misbehaves")
	}
	if !vs.Unmap(0x1000) || vs.FindRegion(0x1000) != nil {
		t.Error("Unmap failed")
	}
}

func TestPMOPages(t *testing.T) {
	tree := NewTree()
	g := tree.NewCapGroup(tree.Root, "g")
	pmo := tree.NewPMO(g, 8, PMODefault)
	if pmo.Lookup(3) != nil {
		t.Error("unmaterialized page present")
	}
	s := pmo.InstallPage(3, mem.PageID{Kind: mem.KindNVM, Frame: 99})
	if !s.Writable || s.Hotness != 0 {
		t.Errorf("fresh slot = %+v", s)
	}
	if pmo.NumPages() != 1 {
		t.Errorf("NumPages = %d", pmo.NumPages())
	}
}

func TestPMOInstallBeyondSizePanics(t *testing.T) {
	tree := NewTree()
	g := tree.NewCapGroup(tree.Root, "g")
	pmo := tree.NewPMO(g, 4, PMODefault)
	defer func() {
		if recover() == nil {
			t.Error("InstallPage beyond size did not panic")
		}
	}()
	pmo.InstallPage(4, mem.PageID{Kind: mem.KindNVM, Frame: 1})
}

func TestDirtyTracking(t *testing.T) {
	tree := NewTree()
	g := tree.NewCapGroup(tree.Root, "g")
	th := tree.NewThread(g)
	if !th.Dirty() {
		t.Error("new object not dirty")
	}
	th.clearDirty()
	if th.Dirty() {
		t.Error("clearDirty failed")
	}
	th.Touch(func(c *Context) { c.R[0] = 42 })
	if !th.Dirty() {
		t.Error("Touch did not mark dirty")
	}
}

func TestNotificationSemantics(t *testing.T) {
	tree := NewTree()
	g := tree.NewCapGroup(tree.Root, "g")
	n := tree.NewNotification(g)
	t1 := tree.NewThread(g)

	n.Signal()
	if n.Count != 1 {
		t.Errorf("Count = %d", n.Count)
	}
	if !n.Wait(t1) {
		t.Error("Wait should consume pending count")
	}
	if n.Wait(t1) {
		t.Error("Wait with zero count should block")
	}
	if t1.State != ThreadBlocked || n.NumWaiters() != 1 {
		t.Error("waiter not blocked")
	}
	if woken := n.Signal(); woken != t1 || t1.State != ThreadRunnable {
		t.Error("Signal did not wake waiter")
	}
}

func TestIRQNotification(t *testing.T) {
	tree := NewTree()
	g := tree.NewCapGroup(tree.Root, "g")
	irq := tree.NewIRQNotification(g, 11)
	if irq.Ack() {
		t.Error("Ack with nothing pending")
	}
	irq.Raise()
	irq.Raise()
	if !irq.Ack() || !irq.Ack() || irq.Ack() {
		t.Error("pending count wrong")
	}
}

// TestIDSetMatchesMap checks the bitset against a map over random IDs, from
// both a zero-value set and one whose size hint is far too small: Has must
// report membership and Add first insertion exactly as the map does.
func TestIDSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, s := range []IDSet{{}, NewIDSet(3)} {
		ref := map[uint64]bool{}
		for i := 0; i < 4000; i++ {
			id := uint64(rng.Intn(1000))
			if i%97 == 0 {
				id = uint64(rng.Intn(1 << 16)) // far past the hint
			}
			if s.Has(id) != ref[id] {
				t.Fatalf("step %d: Has(%d) = %v, want %v", i, id, !ref[id], ref[id])
			}
			if got, want := s.Add(id), !ref[id]; got != want {
				t.Fatalf("step %d: Add(%d) = %v, want %v", i, id, got, want)
			}
			ref[id] = true
		}
	}
}

// TestIDSetResetKeepsStorage checks that Reset empties the set, so every
// ID reads as absent again, without giving up the words it grew.
func TestIDSetResetKeepsStorage(t *testing.T) {
	var s IDSet
	for id := uint64(0); id < 300; id += 7 {
		s.Add(id)
	}
	words := cap(s.words)
	s.Reset()
	for id := uint64(0); id < 300; id++ {
		if !s.Add(id) {
			t.Fatalf("Add(%d) after Reset reports the ID present", id)
		}
	}
	if cap(s.words) != words {
		t.Fatalf("Reset gave up its storage: capacity %d, was %d", cap(s.words), words)
	}
}
