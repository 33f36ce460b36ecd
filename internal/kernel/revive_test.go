package kernel

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"treesls/internal/caps"
	"treesls/internal/checkpoint"
	"treesls/internal/faultplane"
	"treesls/internal/mem"
	"treesls/internal/obs/audit"
)

// TestRestoreInPlaceMatchesFresh is the differential test of restore in
// place. Two identically seeded machines run one random schedule of page
// writes, register updates, IPC and notification traffic, new processes,
// checkpoints, cold-page eviction, media poison on restore sources, and
// power failures between operations, inside checkpoints and inside
// restores. Before each restore one machine clears every ORoot.Runtime, so
// it revives every object as a new one, while the other revives each
// object into its crashed runtime object. After each restore the two must
// agree on every runtime object field, every page slot, the audit digests,
// the lane clocks, the run queues and the manager's Stats and manifest: a
// field that keeps a value from the crashed epoch shows up as a difference.
// Both restore audits must also be clean.
func TestRestoreInPlaceMatchesFresh(t *testing.T) {
	methods := []struct {
		name string
		set  func(*checkpoint.Config)
	}{
		{"cow", func(c *checkpoint.Config) { c.HybridCopy = false }},
		{"stop-and-copy", func(c *checkpoint.Config) { c.Method = checkpoint.MethodStopAndCopy }},
		{"hybrid", func(c *checkpoint.Config) {}},
	}
	for _, mode := range []mem.PersistMode{mem.ModeEADR, mem.ModeADR} {
		for _, method := range methods {
			for seed := int64(1); seed <= 2; seed++ {
				name := fmt.Sprintf("%v/%s/seed=%d", mode, method.name, seed)
				t.Run(name, func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Cores = 2
					cfg.CheckpointEvery = 0
					cfg.SkipDefaultServices = true
					cfg.Audit = true
					cfg.Seed = uint64(seed)
					cfg.Mem.Persist = mode
					cfg.Mem.CrashSeed = uint64(seed)
					cfg.Checkpoint.HotThreshold = 2
					cfg.Checkpoint.DemoteAfter = 3
					method.set(&cfg.Checkpoint)
					cov := runReviveDifferential(t, cfg, seed)
					if cov.restores == 0 || cov.restoreCrashes == 0 || cov.checkpointCrashes == 0 ||
						cov.swapped == 0 || cov.stillborn == 0 || cov.damaged == 0 || cov.hot == 0 {
						t.Errorf("the schedule missed a restore path: %+v", cov)
					}
				})
			}
		}
	}
}

// reviveCoverage counts the restore paths one differential schedule took.
type reviveCoverage struct {
	restores          int // completed restores compared
	restoreCrashes    int // power failures that fired inside a restore
	checkpointCrashes int // power failures that fired inside a checkpoint
	swapped           int // swapped-out pages restored as placeholders
	stillborn         int // entries born in a round that never committed
	damaged           int // pages restored degraded or lost
	hot               int // restored pages whose crashed slot had hotness
}

// reviveTwin is one machine of the differential pair and the handles the
// schedule drives, looked up again after every restore.
type reviveTwin struct {
	m     *Machine
	fresh bool // clear every ORoot.Runtime before each restore

	app   *Process
	conn  *caps.IPCConn
	noti  *caps.Notification
	irq   *caps.IRQNotification
	va    uint64
	extra int
}

const (
	revivePages   = 64
	reviveThreads = 4
)

func newReviveTwin(t *testing.T, cfg Config, fresh bool) *reviveTwin {
	t.Helper()
	tw := &reviveTwin{m: New(cfg), fresh: fresh}
	app, err := tw.m.NewProcess("app", reviveThreads)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := tw.m.NewProcess("srv", 1)
	if err != nil {
		t.Fatal(err)
	}
	if tw.va, _, err = app.Mmap(revivePages, caps.PMODefault); err != nil {
		t.Fatal(err)
	}
	app.Connect(srv)
	app.NewNotification()
	app.BindIRQ(3, app.Threads[2])
	tw.bind(t)
	return tw
}

// bind looks the schedule's handles up in the machine's current tree.
func (tw *reviveTwin) bind(t *testing.T) {
	t.Helper()
	tw.app = tw.m.Process("app")
	if tw.app == nil {
		t.Fatal("no app process")
	}
	tw.conn = tw.app.Group.Find(caps.KindIPCConn).Obj.(*caps.IPCConn)
	tw.noti = tw.app.Group.Find(caps.KindNotification).Obj.(*caps.Notification)
	tw.irq = tw.app.Group.Find(caps.KindIRQNotification).Obj.(*caps.IRQNotification)
}

func (tw *reviveTwin) run(t *testing.T, thread int, fn func(e *Env) error) {
	t.Helper()
	if _, err := tw.m.Run(tw.app, tw.app.Thread(thread), fn); err != nil {
		t.Fatal(err)
	}
}

// restore restores the crashed machine, crashing the restore itself k
// persistence events in when k > 0, and reports whether that crash fired.
// The fresh twin clears every root's runtime object before each attempt.
func (tw *reviveTwin) restore(t *testing.T, k uint64) (crashed bool) {
	t.Helper()
	for {
		if tw.fresh {
			tw.m.Ckpt.ForEachRoot(func(r *caps.ORoot) { r.Runtime = nil })
		}
		if k == 0 {
			if err := tw.m.Restore(); err != nil {
				t.Fatal(err)
			}
			tw.bind(t)
			return crashed
		}
		tw.m.Memory.ArmCrashAfter(k)
		fired, err := faultplane.CatchCrash(tw.m.Restore)
		tw.m.Memory.DisarmCrash()
		if err != nil {
			t.Fatal(err)
		}
		if !fired {
			tw.bind(t)
			return crashed
		}
		tw.m.Crash()
		crashed, k = true, 0
	}
}

// stillborn counts the checkpointed page entries born in a round newer than
// the durable commit.
func (tw *reviveTwin) stillborn() int {
	n, v := 0, tw.m.Ckpt.DurableVersion()
	tw.m.Ckpt.ForEachRoot(func(r *caps.ORoot) {
		if snap, ok := r.Backup[0].(*caps.PMOSnap); ok {
			snap.Pages.Walk(func(_ uint64, cp *caps.CkptPage) bool {
				if cp.Born > v {
					n++
				}
				return true
			})
		}
	})
	return n
}

// countSlots counts the app PMO's page slots for which pred holds.
func (tw *reviveTwin) countSlots(pred func(*caps.PageSlot) bool) int {
	n := 0
	tw.app.VMS.FindRegion(tw.va).PMO.ForEachPage(func(_ uint64, s *caps.PageSlot) bool {
		if pred(s) {
			n++
		}
		return true
	})
	return n
}

// poisonSource poisons the committed restore source of the app PMO's j-th
// checkpointed page (in index order, modulo their number), and reports
// whether it found one.
func (tw *reviveTwin) poisonSource(j int, seed uint64) bool {
	r := tw.app.VMS.FindRegion(tw.va).PMO.ORoot()
	if r == nil {
		return false
	}
	snap, ok := r.Backup[0].(*caps.PMOSnap)
	if !ok || snap.Pages.Len() == 0 {
		return false
	}
	j %= snap.Pages.Len()
	var victim mem.PageID
	snap.Pages.Walk(func(_ uint64, cp *caps.CkptPage) bool {
		if j--; j >= 0 {
			return true
		}
		if src := checkpoint.RestoreSource(cp, tw.m.Ckpt.CommittedVersion()); src >= 0 {
			victim = cp.Page[src]
		}
		return false
	})
	if victim.IsNil() {
		return false
	}
	tw.m.Memory.InjectPoison(victim, 0, mem.PageSize, seed)
	return true
}

// runReviveDifferential drives one schedule on a fresh-reviving and an
// in-place machine built from cfg and compares them after every restore.
func runReviveDifferential(t *testing.T, cfg Config, seed int64) reviveCoverage {
	twins := [2]*reviveTwin{newReviveTwin(t, cfg, true), newReviveTwin(t, cfg, false)}
	fresh, inPlace := twins[0], twins[1]
	rng := rand.New(rand.NewSource(seed))
	var cov reviveCoverage
	each := func(fn func(tw *reviveTwin)) {
		for _, tw := range twins {
			fn(tw)
		}
	}
	// crashRestore pulls the plug on both machines and restores them,
	// inside the restore k events in when k > 0.
	crashRestore := func(step int, k uint64) {
		each(func(tw *reviveTwin) {
			if !tw.m.Crashed() {
				tw.m.Crash()
			}
		})
		if fresh.stillborn() > 0 {
			cov.stillborn++
		}
		if inPlace.countSlots(func(s *caps.PageSlot) bool { return s.Hotness > 0 }) > 0 {
			cov.hot++
		}
		lost, degraded := inPlace.m.Ckpt.Stats.LostPages, inPlace.m.Ckpt.Stats.DegradedRestores
		var crashed [2]bool
		for i, tw := range twins {
			crashed[i] = tw.restore(t, k)
		}
		if crashed[0] != crashed[1] {
			t.Fatalf("step %d: a crash %d events into the restore fired on one machine only", step, k)
		}
		if crashed[0] {
			cov.restoreCrashes++
		}
		if inPlace.countSlots(func(s *caps.PageSlot) bool { return s.SwappedOut }) > 0 {
			cov.swapped++
		}
		if inPlace.m.Ckpt.Stats.LostPages != lost || inPlace.m.Ckpt.Stats.DegradedRestores != degraded {
			cov.damaged++
		}
		cov.restores++
		compareTwins(t, fmt.Sprintf("step %d", step), fresh, inPlace)
	}

	for step := 0; step < 600; step++ {
		switch r := rng.Intn(100); {
		case r < 40: // page write, half of them to a hot set of 4 pages
			th, i, v := rng.Intn(reviveThreads), uint64(rng.Intn(revivePages)), rng.Uint64()
			if rng.Intn(2) == 0 {
				i %= 4
			}
			off := uint64(rng.Intn(mem.PageSize/8)) * 8
			each(func(tw *reviveTwin) {
				tw.run(t, th, func(e *Env) error { return e.WriteU64(tw.va+i*mem.PageSize+off, v) })
			})
		case r < 46: // register update
			th, v := rng.Intn(reviveThreads), rng.Uint64()
			each(func(tw *reviveTwin) {
				tw.run(t, th, func(e *Env) error {
					e.Touch(func(c *caps.Context) {
						c.PC, c.SP = v, ^v
						for k := range c.R {
							c.R[k] = v + uint64(k)
						}
					})
					return nil
				})
			})
		case r < 52: // IPC, notification and interrupt traffic
			kind, v := rng.Intn(4), rng.Uint64()
			each(func(tw *reviveTwin) {
				switch kind {
				case 0:
					tw.run(t, 0, func(e *Env) error {
						e.IPCCall(tw.conn, []byte(fmt.Sprintf("msg %x", v)))
						return nil
					})
				case 1:
					tw.run(t, 0, func(e *Env) error { e.Signal(tw.noti); return nil })
				case 2:
					tw.run(t, 3, func(e *Env) error { e.Wait(tw.noti); return nil })
				default:
					tw.m.RaiseIRQ(tw.irq)
				}
			})
		case r < 72: // checkpoint
			each(func(tw *reviveTwin) { tw.m.TakeCheckpoint() })
		case r < 75: // new process, rolled back unless a checkpoint commits it
			each(func(tw *reviveTwin) {
				if _, err := tw.m.NewProcess(fmt.Sprintf("extra-%d", tw.extra), 1); err != nil {
					t.Fatal(err)
				}
				tw.extra++
			})
		case r < 80: // cold-page eviction
			n := rng.Intn(6) + 1
			each(func(tw *reviveTwin) {
				if tw.m.Ckpt.HasCheckpoint() {
					if _, err := tw.m.EvictColdPages(n); err != nil {
						t.Fatal(err)
					}
				}
			})
		case r < 83: // media poison on a restore source
			j, s := rng.Intn(revivePages), rng.Uint64()
			each(func(tw *reviveTwin) { tw.poisonSource(j, s) })
		case r < 91: // power failure inside a checkpoint
			k := uint64(rng.Intn(120) + 1)
			if !fresh.m.Ckpt.HasCheckpoint() {
				continue
			}
			var fired [2]bool
			for i, tw := range twins {
				tw.m.Memory.ArmCrashAfter(k)
				f, err := faultplane.CatchCrash(func() error { tw.m.TakeCheckpoint(); return nil })
				tw.m.Memory.DisarmCrash()
				if err != nil {
					t.Fatal(err)
				}
				fired[i] = f
			}
			if fired[0] != fired[1] {
				t.Fatalf("step %d: a crash %d events into a checkpoint fired on one machine only", step, k)
			}
			if fired[0] {
				cov.checkpointCrashes++
				crashRestore(step, 0)
			}
		default: // power failure between operations, or inside the restore
			if !fresh.m.Ckpt.HasCheckpoint() {
				continue
			}
			var k uint64
			if rng.Intn(3) == 0 {
				k = uint64(rng.Intn(24) + 1)
			}
			crashRestore(step, k)
		}
	}
	return cov
}

// compareTwins fails the test unless the fresh-reviving and the in-place
// machine agree on everything a restore rebuilds.
func compareTwins(t *testing.T, where string, a, b *reviveTwin) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: "+format, append([]any{where}, args...)...)
	}
	if da, db := audit.StateDigest(a.m.Tree, a.m.Memory), audit.StateDigest(b.m.Tree, b.m.Memory); da != db {
		fail("StateDigest %#x fresh, %#x in place", da, db)
	}
	if !reflect.DeepEqual(a.m.LastAudit, b.m.LastAudit) {
		fail("audit %+v fresh, %+v in place", a.m.LastAudit, b.m.LastAudit)
	}
	if !a.m.LastAudit.Ok() {
		fail("restore audit: %v", a.m.LastAudit.Violations)
	}
	var objsA, objsB []caps.Object
	a.m.Tree.Walk(func(o caps.Object) { objsA = append(objsA, o) })
	b.m.Tree.Walk(func(o caps.Object) { objsB = append(objsB, o) })
	if len(objsA) != len(objsB) {
		fail("%d objects fresh, %d in place", len(objsA), len(objsB))
	}
	for i, oa := range objsA {
		ob := objsB[i]
		if oa.Kind() != ob.Kind() || oa.ID() != ob.ID() || oa.Dirty() != ob.Dirty() ||
			oa.ORoot().ObjID != ob.ORoot().ObjID {
			fail("object %d: %v %d (dirty %v) fresh, %v %d (dirty %v) in place",
				i, oa.Kind(), oa.ID(), oa.Dirty(), ob.Kind(), ob.ID(), ob.Dirty())
		}
		if diff := compareObjects(oa, ob); diff != "" {
			fail("%v %d: %s", oa.Kind(), oa.ID(), diff)
		}
	}
	for i := range a.m.Cores {
		la, lb := &a.m.Cores[i].Lane, &b.m.Cores[i].Lane
		if la.Now() != lb.Now() || la.IdleTime() != lb.IdleTime() {
			fail("core %d lane at %v (idle %v) fresh, %v (idle %v) in place",
				i, la.Now(), la.IdleTime(), lb.Now(), lb.IdleTime())
		}
		qa, qb := a.m.Sched.Queue(i), b.m.Sched.Queue(i)
		if len(qa) != len(qb) {
			fail("core %d run queue holds %d threads fresh, %d in place", i, len(qa), len(qb))
		}
		for j := range qa {
			if qa[j].ID() != qb[j].ID() {
				fail("core %d run queue entry %d: thread %d fresh, %d in place", i, j, qa[j].ID(), qb[j].ID())
			}
		}
	}
	if a.m.Ckpt.Stats != b.m.Ckpt.Stats {
		fail("manager stats %+v fresh, %+v in place", a.m.Ckpt.Stats, b.m.Ckpt.Stats)
	}
	if !reflect.DeepEqual(a.m.Ckpt.Manifest(), b.m.Ckpt.Manifest()) {
		fail("manifest %+v fresh, %+v in place", a.m.Ckpt.Manifest(), b.m.Ckpt.Manifest())
	}
	if a.m.Alloc.FreeFrames() != b.m.Alloc.FreeFrames() || a.m.Stats != b.m.Stats {
		fail("%d free frames and %+v fresh, %d and %+v in place",
			a.m.Alloc.FreeFrames(), a.m.Stats, b.m.Alloc.FreeFrames(), b.m.Stats)
	}
}

// compareObjects returns how two runtime objects of the same kind and ID
// differ, or "" when they agree on every field. References compare by ID.
func compareObjects(oa, ob caps.Object) string {
	id := func(o caps.Object) uint64 {
		if reflect.ValueOf(o).IsNil() {
			return 0
		}
		return o.ID()
	}
	switch a := oa.(type) {
	case *caps.CapGroup:
		b := ob.(*caps.CapGroup)
		if a.Name != b.Name || a.NumSlots() != b.NumSlots() {
			return fmt.Sprintf("%q with %d slots fresh, %q with %d in place", a.Name, a.NumSlots(), b.Name, b.NumSlots())
		}
		for i := 0; i < a.NumSlots(); i++ {
			ca, cb := a.Cap(i), b.Cap(i)
			if (ca.Obj == nil) != (cb.Obj == nil) || ca.Rights != cb.Rights || (ca.Obj != nil && ca.Obj.ID() != cb.Obj.ID()) {
				return fmt.Sprintf("slot %d: %+v fresh, %+v in place", i, ca, cb)
			}
		}
	case *caps.Thread:
		b := ob.(*caps.Thread)
		if a.Ctx != b.Ctx || a.Sched != b.Sched || a.State != b.State {
			return fmt.Sprintf("%+v %+v %v fresh, %+v %+v %v in place", a.Ctx, a.Sched, a.State, b.Ctx, b.Sched, b.State)
		}
	case *caps.VMSpace:
		b := ob.(*caps.VMSpace)
		var ra, rb []caps.VMRegion
		a.ForEachRegion(func(r *caps.VMRegion) { ra = append(ra, *r) })
		b.ForEachRegion(func(r *caps.VMRegion) { rb = append(rb, *r) })
		if len(ra) != len(rb) || (a.PageTable == nil) != (b.PageTable == nil) {
			return fmt.Sprintf("%d regions fresh, %d in place", len(ra), len(rb))
		}
		for i := range ra {
			x, y := ra[i], rb[i]
			if x.VABase != y.VABase || x.NumPages != y.NumPages || id(x.PMO) != id(y.PMO) ||
				x.PMOOffset != y.PMOOffset || x.Perm != y.Perm {
				return fmt.Sprintf("region %d: %+v fresh, %+v in place", i, x, y)
			}
		}
	case *caps.PMO:
		b := ob.(*caps.PMO)
		if a.Type != b.Type || a.SizePages != b.SizePages || a.NumPages() != b.NumPages() {
			return fmt.Sprintf("%v of %d pages with %d filed fresh, %v of %d with %d in place",
				a.Type, a.SizePages, a.NumPages(), b.Type, b.SizePages, b.NumPages())
		}
		if !slices.Equal(a.Touched, b.Touched) {
			return fmt.Sprintf("touched %v fresh, %v in place", a.Touched, b.Touched)
		}
		type filed struct {
			idx  uint64
			slot caps.PageSlot
		}
		var pa, pb []filed
		a.ForEachPage(func(idx uint64, s *caps.PageSlot) bool { pa = append(pa, filed{idx, *s}); return true })
		b.ForEachPage(func(idx uint64, s *caps.PageSlot) bool { pb = append(pb, filed{idx, *s}); return true })
		for i := range pa {
			if pa[i] != pb[i] {
				return fmt.Sprintf("page %d: %+v fresh, page %d: %+v in place", pa[i].idx, pa[i].slot, pb[i].idx, pb[i].slot)
			}
		}
	case *caps.IPCConn:
		b := ob.(*caps.IPCConn)
		if id(a.Client) != id(b.Client) || id(a.Server) != id(b.Server) || string(a.Buf) != string(b.Buf) || a.Seq != b.Seq {
			return fmt.Sprintf("%q seq %d fresh, %q seq %d in place", a.Buf, a.Seq, b.Buf, b.Seq)
		}
	case *caps.Notification:
		b := ob.(*caps.Notification)
		if a.Count != b.Count || a.NumWaiters() != b.NumWaiters() {
			return fmt.Sprintf("count %d with %d waiters fresh, %d with %d in place", a.Count, a.NumWaiters(), b.Count, b.NumWaiters())
		}
	case *caps.IRQNotification:
		b := ob.(*caps.IRQNotification)
		if a.Line != b.Line || a.Pending != b.Pending || id(a.Handler) != id(b.Handler) {
			return fmt.Sprintf("line %d pending %d fresh, line %d pending %d in place", a.Line, a.Pending, b.Line, b.Pending)
		}
	}
	return ""
}
