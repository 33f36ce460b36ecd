package checkpoint

import (
	"testing"

	"treesls/internal/caps"
	"treesls/internal/simclock"
)

// recordingCallback counts checkpoint/restore callback invocations.
type recordingCallback struct {
	ckpts, restores int
	lastVersion     uint64
}

func (c *recordingCallback) OnCheckpoint(v uint64, lane *simclock.Lane) {
	c.ckpts++
	c.lastVersion = v
}
func (c *recordingCallback) OnRestore(v uint64, lane *simclock.Lane) {
	c.restores++
	c.lastVersion = v
}

func TestCallbacksInvoked(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 2)
	h.buildProc("app", 4)
	cb := &recordingCallback{}
	h.mgr.Register(cb)

	h.checkpoint()
	h.checkpoint()
	if cb.ckpts != 2 || cb.lastVersion != 2 {
		t.Errorf("callback state = %+v", cb)
	}
	h.crash()
	h.restore(t)
	if cb.restores != 1 || cb.lastVersion != 2 {
		t.Errorf("restore callback state = %+v", cb)
	}
}

// TestAllObjectKindsRoundTrip builds a tree containing every Table 1 object
// kind — including IRQ notifications and blocked waiters — and round-trips
// it through checkpoint, mutation, crash and restore.
func TestAllObjectKindsRoundTrip(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 2)
	g := h.tree.NewCapGroup(h.tree.Root, "driver")
	vs := h.tree.NewVMSpace(g)
	pmo := h.tree.NewPMO(g, 8, caps.PMODefault)
	_ = vs.Map(&caps.VMRegion{VABase: 0x4000_0000, NumPages: 8, PMO: pmo, Perm: caps.RightsAll})
	handler := h.tree.NewThread(g)
	waiter := h.tree.NewThread(g)
	irq := h.tree.NewIRQNotification(g, 42)
	irq.Handler = handler
	irq.Raise()
	irq.Raise()
	noti := h.tree.NewNotification(g)
	noti.Wait(waiter) // blocks
	conn := h.tree.NewIPCConn(g, handler, waiter)
	conn.Send([]byte("dma-complete"))

	h.writePage(t, pmo, 3, []byte("mmio-shadow"))
	h.checkpoint()

	// Mutate everything post-checkpoint; all of it must roll back.
	irq.Ack()
	noti.Signal()
	conn.Send([]byte("lost"))
	h.writePage(t, pmo, 3, []byte("overwritten"))

	h.crash()
	tree := h.restore(t)

	var irq2 *caps.IRQNotification
	var noti2 *caps.Notification
	var conn2 *caps.IPCConn
	var pmo2 *caps.PMO
	tree.Walk(func(o caps.Object) {
		switch v := o.(type) {
		case *caps.IRQNotification:
			irq2 = v
		case *caps.Notification:
			noti2 = v
		case *caps.IPCConn:
			conn2 = v
		case *caps.PMO:
			pmo2 = v
		}
	})
	if irq2 == nil || irq2.Line != 42 || irq2.Pending != 2 {
		t.Errorf("irq restored = %+v", irq2)
	}
	if irq2.Handler == nil || irq2.Handler.ID() != handler.ID() {
		t.Error("irq handler reference lost")
	}
	if noti2 == nil || noti2.NumWaiters() != 1 || noti2.Count != 0 {
		t.Errorf("notification restored: waiters=%d count=%d", noti2.NumWaiters(), noti2.Count)
	}
	if conn2 == nil || string(conn2.Buf) != "dma-complete" || conn2.Seq != 1 {
		t.Errorf("conn restored = %q seq %d", conn2.Buf, conn2.Seq)
	}
	if got := h.readPage(t, pmo2, 3, 11); string(got) != "mmio-shadow" {
		t.Errorf("page = %q", got)
	}
}

// TestCleanContainersRescanned: clean cap groups and VM spaces are scanned
// (charged) but not re-snapshotted, and their dirty children still get
// checkpointed through them.
func TestCleanContainersRescanned(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 2)
	g, pmo, th := h.buildProc("app", 4)
	h.writePage(t, pmo, 0, []byte("x"))
	h.checkpoint()

	// Only the thread changes; its parent group stays clean.
	th.Touch(func(c *caps.Context) { c.R[7] = 77 })
	rep := h.checkpoint()
	if rep.PerKindCount[caps.KindCapGroup] == 0 {
		t.Error("clean cap groups not visited")
	}
	if rep.PerKind[caps.KindCapGroup] <= 0 {
		t.Error("clean cap-group scan charged nothing")
	}
	if rep.PerKindCount[caps.KindThread] == 0 {
		t.Error("dirty thread not reached through clean parent")
	}
	_ = g

	h.crash()
	tree := h.restore(t)
	var th2 *caps.Thread
	tree.Walk(func(o caps.Object) {
		if v, ok := o.(*caps.Thread); ok {
			th2 = v
		}
	})
	if th2.Ctx.R[7] != 77 {
		t.Errorf("thread change lost through clean parent: R7=%d", th2.Ctx.R[7])
	}
}

func TestCopyMethodStrings(t *testing.T) {
	if MethodCOW.String() == "" || MethodStopAndCopy.String() == "" || MethodCOW.String() == MethodStopAndCopy.String() {
		t.Error("bad method names")
	}
}

// HistoryOf returns the retained historic snapshots of object objID
// (eidetic mode, §8): (version, snapshot) pairs older than the two live
// backup slots, newest last. Empty unless Config.EideticVersions > 0.
func (m *Manager) HistoryOf(objID uint64) []caps.HistoricSnapshot {
	r := m.lookupRoot(objID)
	if r == nil {
		return nil
	}
	return r.History
}

// RetainedVersions lists every version of object objID that can still be
// inspected: the eidetic history plus the committed backup slots.
func (m *Manager) RetainedVersions(objID uint64) []uint64 {
	r := m.lookupRoot(objID)
	if r == nil {
		return nil
	}
	var vs []uint64
	for _, h := range r.History {
		vs = append(vs, h.Version)
	}
	for i := 0; i < 2; i++ {
		if r.Backup[i] != nil && r.Ver[i] != 0 && r.Ver[i] <= m.committed {
			vs = append(vs, r.Ver[i])
		}
	}
	return vs
}

// SnapshotAt returns object objID's snapshot at exactly version v, searching
// the live slots and the eidetic history. Nil if not retained.
func (m *Manager) SnapshotAt(objID, v uint64) caps.Snapshot {
	r := m.lookupRoot(objID)
	if r == nil {
		return nil
	}
	for i := 0; i < 2; i++ {
		if r.Backup[i] != nil && r.Ver[i] == v {
			return r.Backup[i]
		}
	}
	for _, h := range r.History {
		if h.Version == v {
			return h.Snap
		}
	}
	return nil
}

func TestEideticAccessors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EideticVersions = 3
	h := newHarness(t, cfg, 1)
	_, _, th := h.buildProc("app", 2)
	for v := 1; v <= 5; v++ {
		vv := uint64(v)
		th.Touch(func(c *caps.Context) { c.R[0] = vv })
		h.checkpoint()
	}
	vs := h.mgr.RetainedVersions(th.ID())
	if len(vs) < 3 {
		t.Fatalf("retained %v", vs)
	}
	for _, v := range vs {
		snap := h.mgr.SnapshotAt(th.ID(), v)
		if snap == nil {
			t.Fatalf("version %d listed but not retrievable", v)
		}
		if ts := snap.(*caps.ThreadSnap); ts.Ctx.R[0] != v {
			t.Errorf("version %d holds R0=%d", v, ts.Ctx.R[0])
		}
	}
	if h.mgr.SnapshotAt(th.ID(), 999) != nil || h.mgr.SnapshotAt(999999, 1) != nil {
		t.Error("phantom snapshots")
	}
	if len(h.mgr.HistoryOf(th.ID())) == 0 {
		t.Error("no history retained")
	}
}

// TestDeferredFreeProcessedAtCommit exits a process: its runtime frame is
// freed at the next commit, not before, and exactly once — the sweep finds
// the page's checkpoint slot, which names the same frame, already free.
func TestDeferredFreeProcessedAtCommit(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 1)
	g, pmo, _ := h.buildProc("app", 4)
	h.writePage(t, pmo, 0, []byte("a"))
	h.checkpoint()

	free := h.alloc.FreeFrames()
	h.exitProc(g, pmo)
	if h.alloc.FreeFrames() != free {
		t.Fatal("freed before commit")
	}
	h.checkpoint()
	if h.alloc.FreeFrames() != free+1 {
		t.Errorf("free = %d, want +1 after commit", h.alloc.FreeFrames()-free)
	}
}

func TestReplicaDroppedOnPageRemoval(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Replicas = 2
	h := newHarness(t, cfg, 1)
	g, pmo, _ := h.buildProc("app", 4)
	h.writePage(t, pmo, 0, []byte("v1"))
	h.checkpoint()
	h.writePage(t, pmo, 0, []byte("v2")) // fault -> backup + replica
	h.checkpoint()
	if replicaCount(h.mgr) == 0 {
		t.Fatal("no replica created")
	}
	h.exitProc(g, pmo)
	h.checkpoint() // sweeps the backup and its replica
	if n := replicaCount(h.mgr); n != 0 {
		t.Errorf("replicas leaked: %d", n)
	}
}
