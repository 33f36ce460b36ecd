package checkpoint

import (
	"fmt"
	"testing"

	"treesls/internal/caps"
	"treesls/internal/mem"
)

// checkRootOrder asserts that ForEachRoot yields strictly ascending object
// IDs, so each root is filed once, that lookupRoot finds each root it
// yields, and that every runtime object bound to a root finds that root.
func checkRootOrder(t *testing.T, m *Manager, when string) {
	t.Helper()
	n := 0
	var prev uint64
	m.ForEachRoot(func(r *caps.ORoot) {
		if n > 0 && r.ObjID <= prev {
			t.Fatalf("%s: ForEachRoot yields object %d after %d", when, r.ObjID, prev)
		}
		if m.lookupRoot(r.ObjID) != r {
			t.Fatalf("%s: lookupRoot(%d) misses a root ForEachRoot yields", when, r.ObjID)
		}
		prev = r.ObjID
		n++
	})
	m.Tree().Walk(func(o caps.Object) {
		if r := o.ORoot(); r != nil && m.lookupRoot(o.ID()) != r {
			t.Fatalf("%s: object %d's root is not filed", when, o.ID())
		}
	})
}

// TestRootOrderAfterExitSweep: processes that exit before a checkpoint have
// their roots swept at its commit, and the ordered directory drops exactly
// those.
func TestRootOrderAfterExitSweep(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 2)
	var pmos []*caps.PMO
	for i := 0; i < 4; i++ {
		_, pmo, _ := h.buildProc(fmt.Sprintf("p%d", i), 4)
		h.writePage(t, pmo, 0, []byte{byte(i)})
		pmos = append(pmos, pmo)
	}
	h.checkpoint()
	checkRootOrder(t, h.mgr, "after the first checkpoint")
	before := len(h.mgr.roots)
	// Processes p1 and p2 exit: their groups leave the root group.
	for _, i := range []int{1, 2} {
		h.mgr.PurgePMO(pmos[i])
		h.tree.Root.Remove(i)
	}
	h.checkpoint()
	checkRootOrder(t, h.mgr, "after the exit sweep")
	if got := before - len(h.mgr.roots); got != 8 {
		t.Fatalf("the sweep removed %d roots, want the exited processes' 8", got)
	}
	h.buildProc("late", 2)
	h.checkpoint()
	checkRootOrder(t, h.mgr, "after a new process")
}

// TestRootOrderAfterRestoreRollsBackIDs: a round that crashes after its
// walk resolved new roots leaves them filed above the ID counter that the
// restore rolls back to. The objects created next reuse those IDs: one
// lands in a gap below the stale roots, the others replace stale roots
// under the same IDs. The crash point is swept over every persistence
// event of the round, so whatever event first follows the walk is hit.
func TestRootOrderAfterRestoreRollsBackIDs(t *testing.T) {
	covered := 0
	for k := uint64(1); ; k++ {
		h := newHarness(t, DefaultConfig(), 2)
		_, pmo, _ := h.buildProc("base", 2)
		h.writePage(t, pmo, 0, []byte("base"))
		h.checkpoint()
		// Consume one ID for an object the round never reaches, so the
		// crashed round's roots sit above a gap.
		h.tree.NewThread(h.tree.Root)
		h.tree.Root.Remove(h.tree.Root.NumSlots() - 1)
		_, pmo, _ = h.buildProc("crashed", 2)
		h.writePage(t, pmo, 0, []byte("crashed"))
		h.mem.ArmCrashAfter(k)
		crashed := func() (crashed bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(mem.CrashError); !ok {
						panic(r)
					}
					crashed = true
				}
			}()
			h.checkpoint()
			return false
		}()
		h.mem.DisarmCrash()
		if !crashed {
			break // k is past the round's last persistence event
		}
		h.crash()
		h.restore(t)
		when := fmt.Sprintf("crash at event %d", k)
		checkRootOrder(t, h.mgr, when+", after restore")
		top := h.mgr.roots[len(h.mgr.roots)-1].ObjID
		if top <= h.tree.NextID() {
			continue // the crash came before the walk filed new roots
		}
		covered++
		_, pmo, _ = h.buildProc("after", 2)
		h.writePage(t, pmo, 0, []byte("after"))
		// Check the directory between the walk that files the new roots
		// and the sweep that drops the stale ones, which would otherwise
		// hide a misplaced new root.
		h.mgr.cfg.DeferCommitPublish = true
		h.checkpoint()
		checkRootOrder(t, h.mgr, when+", after the next round's walk")
		if _, err := h.mgr.PublishCommit(h.lane()); err != nil {
			t.Fatal(err)
		}
		h.mgr.cfg.DeferCommitPublish = false
		checkRootOrder(t, h.mgr, when+", after the next checkpoint")
	}
	if covered == 0 {
		t.Fatal("no crash point left a stale root above the restored ID counter")
	}
}

// TestRootOrderAfterInstallImage: a standby's installed directory is
// ordered, and stays ordered as the promoted standby restores and creates
// new objects.
func TestRootOrderAfterInstallImage(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 1)
	buildReplicaWorld(t, h)
	h.checkpoint()
	img := FullCapture(h.mgr)

	h2 := newHarness(t, DefaultConfig(), 1)
	if err := h2.mgr.InstallImage(h2.lane(), img); err != nil {
		t.Fatalf("install: %v", err)
	}
	checkRootOrder(t, h2.mgr, "after InstallImage")
	if len(h2.mgr.roots) != len(h.mgr.roots) {
		t.Fatalf("installed %d roots, the primary holds %d", len(h2.mgr.roots), len(h.mgr.roots))
	}
	h2.restore(t)
	h2.buildProc("promoted", 2)
	h2.checkpoint()
	checkRootOrder(t, h2.mgr, "after the promoted standby's first checkpoint")
}

// TestRootOrderAfterCrashInSweep: two processes exit around a live one, and
// the commit that sweeps them is crashed at every persistence event in turn.
// Events inside the sweep (the frees of an exited PMO's backup pages) stop
// it part way, after some roots are gone and while later ones remain; the
// directory must still hold each surviving root once, in ascending ID, after
// the crash, after the restore and after the next checkpoint. That
// checkpoint's sweep finishes the job without freeing any frame twice: the
// restore severed the slots into frames the crashed collection had already
// released.
func TestRootOrderAfterCrashInSweep(t *testing.T) {
	midSweep := 0
	for k := uint64(1); ; k++ {
		h := newHarness(t, DefaultConfig(), 2)
		var pmos []*caps.PMO
		for i := 0; i < 3; i++ {
			_, pmo, _ := h.buildProc(fmt.Sprintf("p%d", i), 4)
			for idx := uint64(0); idx < 4; idx++ {
				h.writePage(t, pmo, idx, []byte{byte(i), byte(idx)})
			}
			pmos = append(pmos, pmo)
		}
		h.checkpoint()
		// Copy-on-write the pages once more so each backup slot holds a
		// frame of its own, which the sweep frees.
		for i, pmo := range pmos {
			for idx := uint64(0); idx < 4; idx++ {
				h.writePage(t, pmo, idx, []byte{byte(i), byte(idx), 1})
			}
		}
		h.checkpoint()
		// p0 and p2 exit; p1 stays, its roots between theirs.
		for _, i := range []int{0, 2} {
			h.mgr.PurgePMO(pmos[i])
			h.tree.Root.Remove(i)
		}
		swept := h.mgr.Stats.RootsSwept
		h.mem.ArmCrashAfter(k)
		crashed := func() (crashed bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(mem.CrashError); !ok {
						panic(r)
					}
					crashed = true
				}
			}()
			h.checkpoint()
			return false
		}()
		h.mem.DisarmCrash()
		if !crashed {
			break // k is past the round's last persistence event
		}
		when := fmt.Sprintf("crash at event %d", k)
		if n := h.mgr.Stats.RootsSwept - swept; n > 0 && n < 8 {
			midSweep++
		}
		checkRootOrder(t, h.mgr, when)
		h.crash()
		h.restore(t)
		checkRootOrder(t, h.mgr, when+", after restore")
		h.checkpoint()
		checkRootOrder(t, h.mgr, when+", after the next checkpoint")
		// The next sweep finished what the crash cut short: one root per
		// live object is left.
		objs := 0
		h.tree.Walk(func(caps.Object) { objs++ })
		if len(h.mgr.roots) != objs {
			t.Fatalf("%s: %d roots filed for %d live objects", when, len(h.mgr.roots), objs)
		}
		if err := h.alloc.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	if midSweep == 0 {
		t.Fatal("no crash point stopped the sweep part way")
	}
}
