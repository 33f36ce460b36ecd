package checkpoint

import (
	"bytes"
	"fmt"
	"testing"

	"treesls/internal/alloc"
	"treesls/internal/caps"
	"treesls/internal/journal"
	"treesls/internal/mem"
	"treesls/internal/simclock"
)

// harness wires a memory, allocator, tree and manager together and provides
// the page-access shims the kernel normally supplies.
type harness struct {
	model *simclock.CostModel
	mem   *mem.Memory
	jrnl  *journal.Journal
	alloc *alloc.Allocator
	tree  *caps.Tree
	mgr   *Manager
	lanes []*simclock.Lane
}

// newHarness keeps the journal in its NVM frame, as on a booted machine:
// every journal record is persistence events that an armed crash can land
// on, the allocator's frees included.
func newHarness(t *testing.T, cfg Config, nCores int) *harness {
	t.Helper()
	model := simclock.DefaultCostModel()
	m := mem.New(mem.Config{NVMFrames: 4096, DRAMFrames: 256}, model)
	j := journal.New(model, m)
	a := alloc.New(m, j)
	tree := caps.NewTree()
	h := &harness{model: model, mem: m, jrnl: j, alloc: a, tree: tree}
	h.mgr = New(cfg, m, a, tree)
	for i := 0; i < nCores; i++ {
		h.lanes = append(h.lanes, &simclock.Lane{})
	}
	return h
}

func (h *harness) lane() *simclock.Lane { return h.lanes[0] }

// writePage mimics the kernel's VM write path at page granularity:
// materialize on first touch, COW-fault on protected pages, then store.
func (h *harness) writePage(t *testing.T, pmo *caps.PMO, idx uint64, data []byte) {
	t.Helper()
	s := pmo.Lookup(idx)
	if s == nil {
		p, err := h.alloc.AllocPage(h.lane())
		if err != nil {
			t.Fatal(err)
		}
		s = pmo.InstallPage(idx, p)
	}
	if !s.Writable {
		if err := h.mgr.HandleWriteFault(h.lane(), pmo, idx, s); err != nil {
			t.Fatal(err)
		}
	}
	s.Dirty = true
	h.lane().Charge(h.mem.WriteAt(s.Page, 0, data))
}

func (h *harness) readPage(t *testing.T, pmo *caps.PMO, idx uint64, n int) []byte {
	t.Helper()
	s := pmo.Lookup(idx)
	if s == nil {
		t.Fatalf("page %d not present", idx)
	}
	buf := make([]byte, n)
	h.mem.ReadAt(s.Page, 0, buf)
	return buf
}

func (h *harness) checkpoint() Report {
	return h.mgr.TakeCheckpoint(h.lanes, 0, nil)
}

// crash simulates a power failure: DRAM wiped, runtime world discarded, the
// in-flight journal record re-read from NVM.
func (h *harness) crash() {
	h.mem.Crash()
	h.jrnl.OnCrash()
	h.tree = nil
}

func (h *harness) restore(t *testing.T) *caps.Tree {
	t.Helper()
	tree, _, err := h.mgr.Restore(h.lane())
	if err != nil {
		t.Fatal(err)
	}
	h.tree = tree
	return tree
}

// buildProc creates a process-shaped subtree with one PMO of nPages.
func (h *harness) buildProc(name string, nPages uint64) (*caps.CapGroup, *caps.PMO, *caps.Thread) {
	g := h.tree.NewCapGroup(h.tree.Root, name)
	vs := h.tree.NewVMSpace(g)
	pmo := h.tree.NewPMO(g, nPages, caps.PMODefault)
	_ = vs.Map(&caps.VMRegion{VABase: 0x10000, NumPages: nPages, PMO: pmo, Perm: caps.RightRead | caps.RightWrite})
	th := h.tree.NewThread(g)
	return g, pmo, th
}

func TestFirstCheckpointAndRestore(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 2)
	g, pmo, th := h.buildProc("app", 8)
	th.Touch(func(c *caps.Context) { c.PC = 0xabc; c.R[0] = 7 })
	h.writePage(t, pmo, 0, []byte("hello-v1"))
	h.writePage(t, pmo, 3, []byte("page-three"))

	rep := h.checkpoint()
	if rep.Version != 1 || !rep.Full {
		t.Errorf("report = %+v", rep)
	}
	if h.mgr.CommittedVersion() != 1 {
		t.Errorf("committed = %d", h.mgr.CommittedVersion())
	}
	if rep.PagesMarkedRO != 2 {
		t.Errorf("marked RO = %d, want 2", rep.PagesMarkedRO)
	}

	h.crash()
	tree := h.restore(t)

	// Object graph revived.
	counts := tree.Counts()
	if counts[caps.KindCapGroup] != 2 || counts[caps.KindThread] != 1 || counts[caps.KindPMO] != 1 {
		t.Errorf("counts = %v", counts)
	}
	var g2 *caps.CapGroup
	tree.Walk(func(o caps.Object) {
		if cg, ok := o.(*caps.CapGroup); ok && cg.Name == "app" {
			g2 = cg
		}
	})
	if g2 == nil {
		t.Fatal("process group not restored")
	}
	if g2.ID() != g.ID() {
		t.Error("identity not preserved")
	}
	th2 := g2.Find(caps.KindThread).Obj.(*caps.Thread)
	if th2.Ctx.PC != 0xabc || th2.Ctx.R[0] != 7 {
		t.Errorf("thread context = %+v", th2.Ctx)
	}
	pmo2 := g2.Find(caps.KindPMO).Obj.(*caps.PMO)
	if got := h.readPage(t, pmo2, 0, 8); string(got) != "hello-v1" {
		t.Errorf("page 0 = %q", got)
	}
	if got := h.readPage(t, pmo2, 3, 10); string(got) != "page-three" {
		t.Errorf("page 3 = %q", got)
	}
}

// TestVersioningRules exercises the three recovery cases of Figure 6(a).
func TestVersioningRules(t *testing.T) {
	h := newHarness(t, Config{HybridCopy: false}, 1)
	_, pmo, _ := h.buildProc("app", 8)

	// Page 0: will be modified after the checkpoint (case ❶: restore
	// from backup). Page 1: modified before but not after (case ❷:
	// restore from runtime). Page 2: written now, never again (case ❷).
	h.writePage(t, pmo, 0, []byte("A"))
	h.writePage(t, pmo, 1, []byte("B"))
	h.writePage(t, pmo, 2, []byte("C"))
	h.checkpoint()

	h.writePage(t, pmo, 1, []byte("B'"))
	h.checkpoint() // version 2: B' becomes the consistent content of page 1

	h.writePage(t, pmo, 0, []byte("A'")) // case ❶: fault saves A at version 2

	h.crash()
	tree := h.restore(t)
	var pmo2 *caps.PMO
	tree.Walk(func(o caps.Object) {
		if p, ok := o.(*caps.PMO); ok {
			pmo2 = p
		}
	})
	if got := h.readPage(t, pmo2, 0, 2); string(got[:1]) != "A" || got[1] == '\'' {
		t.Errorf("page 0 = %q, want pre-modification A", got)
	}
	if got := h.readPage(t, pmo2, 1, 2); string(got) != "B'" {
		t.Errorf("page 1 = %q, want B'", got)
	}
	if got := h.readPage(t, pmo2, 2, 1); string(got) != "C" {
		t.Errorf("page 2 = %q, want C", got)
	}
}

func TestUncommittedRoundIgnored(t *testing.T) {
	h := newHarness(t, Config{HybridCopy: false}, 1)
	_, pmo, th := h.buildProc("app", 4)
	h.writePage(t, pmo, 0, []byte("stable"))
	h.checkpoint() // version 1

	// Changes after the checkpoint, then a crash with NO second commit.
	th.Touch(func(c *caps.Context) { c.R[1] = 0xdead })
	h.writePage(t, pmo, 0, []byte("twelve-bytes"))

	h.crash()
	tree := h.restore(t)
	var pmo2 *caps.PMO
	var th2 *caps.Thread
	tree.Walk(func(o caps.Object) {
		switch v := o.(type) {
		case *caps.PMO:
			pmo2 = v
		case *caps.Thread:
			th2 = v
		}
	})
	if got := h.readPage(t, pmo2, 0, 6); string(got) != "stable" {
		t.Errorf("page 0 = %q, want checkpointed content", got)
	}
	if th2.Ctx.R[1] == 0xdead {
		t.Error("post-checkpoint register update survived the crash")
	}
}

func TestIncrementalSkipsCleanObjects(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 2)
	_, pmo, th := h.buildProc("app", 4)
	h.writePage(t, pmo, 0, []byte("x"))
	rep1 := h.checkpoint()

	// Nothing changes: the second round should checkpoint far fewer
	// objects and take much less leader time.
	rep2 := h.checkpoint()
	if rep2.CapTree >= rep1.CapTree {
		t.Errorf("incremental cap-tree time %v not below full %v", rep2.CapTree, rep1.CapTree)
	}
	if rep2.PagesMarkedRO != 0 {
		t.Errorf("clean round marked %d pages RO", rep2.PagesMarkedRO)
	}

	// Touch one thread: only that object (plus containers en route) is
	// re-snapshotted.
	th.Touch(func(c *caps.Context) { c.R[2]++ })
	rep3 := h.checkpoint()
	if rep3.PerKind[caps.KindThread] == 0 {
		t.Error("dirty thread not checkpointed")
	}
}

func TestNewObjectsAfterCheckpointRolledBack(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 2)
	h.buildProc("app", 4)
	h.checkpoint()
	before := h.alloc.FreeFrames()

	// A whole new process created after the checkpoint must vanish on
	// restore, and its NVM pages must be reclaimed by the rollback.
	_, pmo2, _ := h.buildProc("late", 4)
	h.writePage(t, pmo2, 0, []byte("doomed"))

	h.crash()
	tree := h.restore(t)
	found := false
	tree.Walk(func(o caps.Object) {
		if cg, ok := o.(*caps.CapGroup); ok && cg.Name == "late" {
			found = true
		}
	})
	if found {
		t.Error("post-checkpoint process survived restore")
	}
	if h.alloc.FreeFrames() != before {
		t.Errorf("NVM frames leaked: %d free, want %d", h.alloc.FreeFrames(), before)
	}
}

func TestHybridCopyMigratesHotPages(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HotThreshold = 2
	h := newHarness(t, cfg, 4)
	_, pmo, _ := h.buildProc("app", 8)

	h.writePage(t, pmo, 0, []byte("v0"))
	h.checkpoint()
	// Two faulting writes push hotness to the threshold.
	h.writePage(t, pmo, 0, []byte("v1"))
	h.checkpoint()
	h.writePage(t, pmo, 0, []byte("v2"))
	if h.mgr.ActiveListLen() != 1 {
		t.Fatalf("active list = %d, want 1", h.mgr.ActiveListLen())
	}
	rep := h.checkpoint() // migration happens during this STW
	if rep.Migrated != 1 {
		t.Fatalf("migrated = %d", rep.Migrated)
	}
	s := pmo.Lookup(0)
	if s.Page.Kind != mem.KindDRAM {
		t.Fatalf("hot page on %v", s.Page.Kind)
	}
	if !s.Writable {
		t.Error("cached page must stay writable (no faults)")
	}

	// Writes to the cached page fault no more but are caught by
	// stop-and-copy.
	h.writePage(t, pmo, 0, []byte("v3"))
	faultsBefore := h.mgr.Stats.COWFaults
	rep = h.checkpoint()
	if h.mgr.Stats.COWFaults != faultsBefore {
		t.Error("cached page write faulted")
	}
	if rep.DirtyDRAMCopied != 1 {
		t.Errorf("dirty cached copied = %d", rep.DirtyDRAMCopied)
	}

	// Crash: DRAM dies; the stop-and-copied backup must win.
	h.writePage(t, pmo, 0, []byte("v4-lost"))
	h.crash()
	tree := h.restore(t)
	var pmo2 *caps.PMO
	tree.Walk(func(o caps.Object) {
		if p, ok := o.(*caps.PMO); ok {
			pmo2 = p
		}
	})
	if got := h.readPage(t, pmo2, 0, 2); string(got) != "v3" {
		t.Errorf("restored cached page = %q, want v3", got)
	}
	if pmo2.Lookup(0).Page.Kind != mem.KindNVM {
		t.Error("restored page must live on NVM")
	}
}

func TestDemotionAfterIdleRounds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HotThreshold = 1
	cfg.DemoteAfter = 2
	h := newHarness(t, cfg, 2)
	_, pmo, _ := h.buildProc("app", 4)
	h.writePage(t, pmo, 0, []byte("hot"))
	h.checkpoint()
	h.writePage(t, pmo, 0, []byte("hot2")) // fault -> hot
	h.checkpoint()                         // migrate
	if pmo.Lookup(0).Page.Kind != mem.KindDRAM {
		t.Fatal("page not cached")
	}
	h.checkpoint() // idle 1
	rep := h.checkpoint()
	if rep.Demoted != 1 {
		t.Fatalf("demoted = %d", rep.Demoted)
	}
	s := pmo.Lookup(0)
	if s.Page.Kind != mem.KindNVM || s.Writable {
		t.Errorf("demoted slot = %+v", s)
	}
	if h.mgr.CachedPages() != 0 {
		t.Errorf("cached = %d", h.mgr.CachedPages())
	}
	// Content intact and persistent.
	if got := h.readPage(t, pmo, 0, 4); string(got) != "hot2" {
		t.Errorf("demoted content = %q", got)
	}
	h.crash()
	tree := h.restore(t)
	var pmo2 *caps.PMO
	tree.Walk(func(o caps.Object) {
		if p, ok := o.(*caps.PMO); ok {
			pmo2 = p
		}
	})
	if got := h.readPage(t, pmo2, 0, 4); string(got) != "hot2" {
		t.Errorf("restored demoted content = %q", got)
	}
}

func TestEternalPMONotRolledBack(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 2)
	g := h.tree.NewCapGroup(h.tree.Root, "netd")
	ring := h.tree.NewPMO(g, 4, caps.PMOEternal)
	h.writePage(t, ring, 0, []byte("ring-v1"))
	h.checkpoint()

	// Post-checkpoint writes to an eternal PMO survive the crash.
	h.writePage(t, ring, 0, []byte("ring-v2"))
	h.crash()
	tree := h.restore(t)
	var ring2 *caps.PMO
	tree.Walk(func(o caps.Object) {
		if p, ok := o.(*caps.PMO); ok && p.Type == caps.PMOEternal {
			ring2 = p
		}
	})
	if ring2 == nil {
		t.Fatal("eternal PMO not restored")
	}
	if got := h.readPage(t, ring2, 0, 7); string(got) != "ring-v2" {
		t.Errorf("eternal page = %q, want crash-time content", got)
	}
	if !ring2.Lookup(0).Writable {
		t.Error("eternal page must stay writable")
	}
}

func TestCommitCrashWindowRedo(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 1)
	_, pmo, _ := h.buildProc("app", 4)
	h.writePage(t, pmo, 0, []byte("data"))
	h.checkpoint()

	// Simulate a crash between the version bump and the log truncation:
	// a pending commit record whose version matches committed.
	h.writePage(t, pmo, 1, []byte("extra")) // logged allocation
	rec := h.jrnl.Begin(nil, journal.OpCheckpointCommit, h.mgr.CommittedVersion())
	_ = rec

	h.crash()
	if _, _, err := h.mgr.Restore(h.lane()); err != nil {
		t.Fatal(err)
	}
	// The matching version means the checkpoint committed: the log must
	// have been truncated (no rollback of the logged page alloc).
	if f := pmo.Lookup(1).Page.Frame; h.alloc.WasRolledBack(f) || h.alloc.IsFree(f) {
		t.Errorf("logged page %d rolled back after a committed checkpoint", f)
	}
}

func TestCommitCrashWindowNotCommitted(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 1)
	_, pmo, _ := h.buildProc("app", 4)
	h.writePage(t, pmo, 0, []byte("data"))
	h.checkpoint()
	free := h.alloc.FreeFrames()

	h.writePage(t, pmo, 1, []byte("extra"))
	// Pending commit record for a version that never hit committed.
	h.jrnl.Begin(nil, journal.OpCheckpointCommit, h.mgr.CommittedVersion()+1)

	h.crash()
	if _, _, err := h.mgr.Restore(h.lane()); err != nil {
		t.Fatal(err)
	}
	// Not committed: the rollback must reclaim page 1's frame.
	if h.alloc.FreeFrames() != free {
		t.Errorf("free frames = %d, want %d", h.alloc.FreeFrames(), free)
	}
}

func TestRepeatedCrashRestoreCycles(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 2)
	_, pmo, _ := h.buildProc("app", 8)
	for cycle := 1; cycle <= 5; cycle++ {
		content := []byte(fmt.Sprintf("cycle-%d", cycle))
		// pmo handle changes across restores; find the live one.
		var cur *caps.PMO
		h.mgr.Tree().Walk(func(o caps.Object) {
			if p, ok := o.(*caps.PMO); ok {
				cur = p
			}
		})
		if cur == nil {
			cur = pmo
		}
		h.writePage(t, cur, 0, content)
		h.checkpoint()
		h.writePage(t, cur, 0, []byte("doomed-update"))
		h.crash()
		tree := h.restore(t)
		var p2 *caps.PMO
		tree.Walk(func(o caps.Object) {
			if p, ok := o.(*caps.PMO); ok {
				p2 = p
			}
		})
		if got := h.readPage(t, p2, 0, len(content)); !bytes.Equal(got, content) {
			t.Fatalf("cycle %d: restored %q, want %q", cycle, got, content)
		}
	}
	if h.mgr.Stats.Restores != 5 {
		t.Errorf("restores = %d", h.mgr.Stats.Restores)
	}
}

func TestEideticHistoryRetained(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EideticVersions = 4
	h := newHarness(t, cfg, 2)
	_, _, th := h.buildProc("app", 4)
	for i := 1; i <= 6; i++ {
		th.Touch(func(c *caps.Context) { c.R[0] = uint64(i) })
		h.checkpoint()
	}
	r := th.ORoot()
	if r == nil {
		t.Fatal("thread has no ORoot")
	}
	if len(r.History) == 0 || len(r.History) > 4 {
		t.Fatalf("history len = %d", len(r.History))
	}
	// History versions must be distinct, ascending and match contents.
	prev := uint64(0)
	for _, hs := range r.History {
		if hs.Version <= prev {
			t.Errorf("history versions not ascending: %d after %d", hs.Version, prev)
		}
		prev = hs.Version
		snap := hs.Snap.(*caps.ThreadSnap)
		if snap.Ctx.R[0] != hs.Version {
			t.Errorf("version %d holds R0=%d", hs.Version, snap.Ctx.R[0])
		}
	}
}

func TestReplicaRepairsCorruptBackup(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Replicas = 2
	h := newHarness(t, cfg, 2)
	_, pmo, _ := h.buildProc("app", 4)
	h.writePage(t, pmo, 0, []byte("good"))
	h.checkpoint()
	h.writePage(t, pmo, 0, []byte("newer"))     // fault saves "good" to backup
	h.checkpoint()                              // version 2: "newer" consistent
	h.writePage(t, pmo, 0, []byte("post-ckpt")) // fault saves "newer" to backup

	// Corrupt the backup page that recovery will need (rule ❶).
	r := pmo.ORoot()
	snap := r.Backup[0].(*caps.PMOSnap)
	cp, _ := snap.Pages.Get(0)
	h.mem.WriteRaw(cp.Page[0], 0, []byte("CORRUPTED!"))

	h.crash()
	tree := h.restore(t)
	var pmo2 *caps.PMO
	tree.Walk(func(o caps.Object) {
		if p, ok := o.(*caps.PMO); ok {
			pmo2 = p
		}
	})
	if got := h.readPage(t, pmo2, 0, 5); string(got) != "newer" {
		t.Errorf("restored = %q, want repaired content", got)
	}
	if h.mgr.Stats.ReplicaRepair == 0 {
		t.Error("no repair recorded")
	}
}

func TestRestoreWithoutCheckpointFails(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 1)
	h.buildProc("app", 4)
	h.crash()
	if _, _, err := h.mgr.Restore(h.lane()); err == nil {
		t.Error("restore without a checkpoint succeeded")
	}
}

func TestSTWReportShape(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 4)
	_, pmo, _ := h.buildProc("app", 16)
	for i := uint64(0); i < 10; i++ {
		h.writePage(t, pmo, i, []byte{byte(i)})
	}
	rep := h.checkpoint()
	if rep.IPIWait <= 0 || rep.CapTree <= 0 || rep.STWTotal <= 0 {
		t.Errorf("report = %+v", rep)
	}
	if rep.STWTotal < rep.IPIWait+rep.CapTree {
		t.Error("total below components")
	}
	var kinds int
	for k := 0; k < caps.NumKinds; k++ {
		if rep.PerKindCount[k] > 0 {
			kinds++
		}
	}
	if kinds < 4 {
		t.Errorf("only %d kinds visited", kinds)
	}
}

func TestRemovedPageReclaimed(t *testing.T) {
	h := newHarness(t, Config{HybridCopy: false}, 1)
	_, pmo, _ := h.buildProc("app", 4)
	h.writePage(t, pmo, 0, []byte("a"))
	h.writePage(t, pmo, 1, []byte("b"))
	h.checkpoint()
	h.writePage(t, pmo, 1, []byte("b2")) // creates backup page for idx 1
	h.checkpoint()
	backups := h.mgr.Stats.BackupPages

	slot := pmo.RemovePage(1)
	h.mgr.DeferFreePage(slot.Page)
	h.checkpoint()
	if h.mgr.Stats.BackupPages >= backups {
		t.Errorf("backup pages %d not reclaimed (was %d)", h.mgr.Stats.BackupPages, backups)
	}

	h.crash()
	tree := h.restore(t)
	var pmo2 *caps.PMO
	tree.Walk(func(o caps.Object) {
		if p, ok := o.(*caps.PMO); ok {
			pmo2 = p
		}
	})
	if pmo2.Lookup(1) != nil {
		t.Error("removed page resurrected")
	}
	if pmo2.Lookup(0) == nil {
		t.Error("surviving page lost")
	}
}

func TestObjectTimeStatsPopulated(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 2)
	_, pmo, th := h.buildProc("app", 8)
	h.writePage(t, pmo, 0, []byte("x"))
	h.checkpoint()
	th.Touch(func(c *caps.Context) { c.R[0]++ })
	h.checkpoint()

	ts := h.mgr.Stats.PerKind[caps.KindThread]
	if ts.NFull == 0 || ts.NIncr == 0 {
		t.Errorf("thread time stats = %+v", ts)
	}
	if ts.MinIncr <= 0 || ts.MaxFull < ts.MinFull {
		t.Errorf("inconsistent stats = %+v", ts)
	}

	h.crash()
	h.restore(t)
	ts = h.mgr.Stats.PerKind[caps.KindThread]
	if ts.NRestore == 0 || ts.MinRestore <= 0 {
		t.Errorf("restore stats = %+v", ts)
	}
}
