package caps

import "testing"

func TestCapOutOfRange(t *testing.T) {
	tree := NewTree()
	g := tree.NewCapGroup(tree.Root, "g")
	if c := g.Cap(-1); c.Obj != nil {
		t.Error("negative slot returned a capability")
	}
	if c := g.Cap(99); c.Obj != nil {
		t.Error("out-of-range slot returned a capability")
	}
	defer func() {
		if recover() == nil {
			t.Error("Remove out of range did not panic")
		}
	}()
	g.Remove(99)
}

func TestInstallNilPanics(t *testing.T) {
	tree := NewTree()
	g := tree.NewCapGroup(tree.Root, "g")
	defer func() {
		if recover() == nil {
			t.Error("Install(nil) did not panic")
		}
	}()
	g.Install(nil, RightsAll)
}

func TestFindAbsentKind(t *testing.T) {
	tree := NewTree()
	g := tree.NewCapGroup(tree.Root, "g")
	if c := g.Find(KindIRQNotification); c.Obj != nil {
		t.Error("found a capability in an empty group")
	}
}

func TestObjectKindNames(t *testing.T) {
	for k := ObjectKind(0); int(k) < NumKinds; k++ {
		if k.String() == "" {
			t.Errorf("kind %d unnamed", k)
		}
	}
	if ObjectKind(200).String() == "" {
		t.Error("unknown kind unnamed")
	}
}

func TestThreadStateNames(t *testing.T) {
	for _, s := range []ThreadState{ThreadRunnable, ThreadRunning, ThreadBlocked, ThreadExited} {
		if s.String() == "" {
			t.Errorf("state %d unnamed", s)
		}
	}
}

func TestPMOTypeNames(t *testing.T) {
	if PMODefault.String() != "default" || PMOEternal.String() != "eternal" {
		t.Error("PMO type names wrong")
	}
}

func TestUnmapAbsent(t *testing.T) {
	tree := NewTree()
	g := tree.NewCapGroup(tree.Root, "g")
	vs := tree.NewVMSpace(g)
	if vs.Unmap(0xdead) {
		t.Error("unmapped a region that does not exist")
	}
}

func TestInstallSwappedBeyondSizePanics(t *testing.T) {
	tree := NewTree()
	g := tree.NewCapGroup(tree.Root, "g")
	pmo := tree.NewPMO(g, 2, PMODefault)
	defer func() {
		if recover() == nil {
			t.Error("InstallSwapped beyond size did not panic")
		}
	}()
	pmo.InstallSwapped(5)
}

func TestRebuildTreePreservesIDCounter(t *testing.T) {
	tree := NewTree()
	g := tree.NewCapGroup(tree.Root, "g")
	next := tree.NextID()
	rebuilt := RebuildTree(tree.Root, next)
	th := rebuilt.NewThread(g)
	if th.ID() <= next {
		t.Errorf("rebuilt tree reused ID %d (counter was %d)", th.ID(), next)
	}
}

func TestWalkHandlesNilEndpoints(t *testing.T) {
	tree := NewTree()
	g := tree.NewCapGroup(tree.Root, "g")
	// Connection with nil endpoints (mid-construction state).
	c := newIPCConn(999, nil, nil)
	g.Install(c, RightsAll)
	irq := newIRQNotification(998, 0)
	g.Install(irq, RightsAll)
	n := 0
	tree.Walk(func(o Object) { n++ })
	if n != 4 { // root, g, conn, irq
		t.Errorf("walked %d objects", n)
	}
}
