package alloc

import (
	"fmt"
	"math/rand"
	"testing"

	"treesls/internal/journal"
	"treesls/internal/mem"
	"treesls/internal/simclock"
)

// newAllocator builds an allocator whose journal lives in its NVM frame, as
// on a booted machine, so every journal write is a persistence event an
// armed crash can land on.
func newAllocator(mode mem.PersistMode) (*Allocator, *mem.Memory, *simclock.Lane) {
	model := simclock.DefaultCostModel()
	m := mem.New(mem.Config{NVMFrames: 1024, DRAMFrames: 64, Persist: mode, CrashSeed: 1}, model)
	return New(m, journal.New(model, m)), m, &simclock.Lane{}
}

func newTestAllocator() (*Allocator, *simclock.Lane) {
	a, _, lane := newAllocator(mem.ModeEADR)
	return a, lane
}

// crash cuts power and runs the recovery path a restore runs: the journal
// re-reads its frame, then the allocator resolves the record and rolls back.
func crash(t *testing.T, a *Allocator, m *mem.Memory) {
	t.Helper()
	m.Crash()
	a.Journal().OnCrash()
	if _, err := a.Recover(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocPage(t *testing.T) {
	a, lane := newTestAllocator()
	p, err := a.AllocPage(lane)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != mem.KindNVM {
		t.Errorf("AllocPage returned %v", p)
	}
	if p.Frame < ReservedMetaFrames {
		t.Errorf("allocated a reserved metadata frame %d", p.Frame)
	}
	if lane.Now() == 0 {
		t.Error("allocation charged no time")
	}
	if a.Stats.PageAllocs != 1 {
		t.Errorf("stats = %+v", a.Stats)
	}
}

func TestClassGeometry(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		if c.Size() <= 0 || c.Size() > mem.PageSize {
			t.Errorf("class %d has size %d", c, c.Size())
		}
	}
}

func TestRollbackRestoresCheckpointState(t *testing.T) {
	a, lane := newTestAllocator()

	// Pre-checkpoint state: one runtime page.
	kept, _ := a.AllocPage(lane)
	a.TruncateLog() // checkpoint commit: this is the durable state
	freeAtCkpt := a.FreeFrames()

	// Post-checkpoint allocations that must be rolled back.
	var runtime []mem.PageID
	for i := 0; i < 4; i++ {
		p, err := a.AllocPage(lane)
		if err != nil {
			t.Fatal(err)
		}
		runtime = append(runtime, p)
	}

	n, err := a.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(runtime) {
		t.Errorf("rolled back %d ops, want %d", n, len(runtime))
	}
	if a.FreeFrames() != freeAtCkpt {
		t.Errorf("free frames %d != checkpoint state %d", a.FreeFrames(), freeAtCkpt)
	}
	// Exactly the rolled-back frames are in the rolled-back set.
	last := kept.Frame
	for _, p := range runtime {
		if !a.WasRolledBack(p.Frame) || !a.IsFree(p.Frame) {
			t.Errorf("frame %d not rolled back", p.Frame)
		}
		last = max(last, p.Frame)
	}
	if a.WasRolledBack(kept.Frame) || a.IsFree(kept.Frame) {
		t.Error("checkpointed page rolled back")
	}
	if a.WasRolledBack(last + 1) {
		t.Error("neighbouring frame marked rolled back")
	}
	if err := a.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if n, err := a.Recover(); n != 0 || err != nil {
		t.Errorf("second Recover() = %d, %v: log not cleared", n, err)
	}
}

func TestRecoverIdempotentOnCleanState(t *testing.T) {
	a, lane := newTestAllocator()
	a.AllocPage(lane)
	a.TruncateLog()
	n, err := a.Recover()
	if err != nil || n != 0 {
		t.Errorf("Recover() = %d, %v", n, err)
	}
}

// allocatorOps are the operations the kernel and the checkpoint manager
// run. setup prepares what the operation needs before the checkpoint; run
// performs it once.
var allocatorOps = []struct {
	name  string
	ckpt  bool // checkpoint-owned: survives rollback once committed
	setup func(*Allocator, *simclock.Lane) mem.PageID
	run   func(*Allocator, *simclock.Lane, mem.PageID)
}{
	{
		name:  "AllocPage",
		setup: func(*Allocator, *simclock.Lane) mem.PageID { return mem.NilPage },
		run:   func(a *Allocator, l *simclock.Lane, _ mem.PageID) { a.AllocPage(l) },
	},
	{
		name:  "AllocPageCkpt",
		ckpt:  true,
		setup: func(*Allocator, *simclock.Lane) mem.PageID { return mem.NilPage },
		run:   func(a *Allocator, l *simclock.Lane, _ mem.PageID) { a.AllocPageCkpt(l) },
	},
	{
		name: "FreePageCkpt",
		ckpt: true,
		setup: func(a *Allocator, l *simclock.Lane) mem.PageID {
			p, _ := a.AllocPageCkpt(l)
			return p
		},
		run: func(a *Allocator, l *simclock.Lane, p mem.PageID) { a.FreePageCkpt(l, p) },
	},
}

// TestCrashAtEveryAllocatorEvent crashes each allocator operation at every
// persistence event it fires, in both persistence modes. Recovery must land
// on the state before the operation — or, for a checkpoint-owned operation
// whose record had committed, on the state after it — with consistent free
// lists, no record left pending and an allocator that still allocates.
func TestCrashAtEveryAllocatorEvent(t *testing.T) {
	for _, op := range allocatorOps {
		for _, mode := range []mem.PersistMode{mem.ModeEADR, mem.ModeADR} {
			var before, after int
			{
				a, _, lane := newAllocator(mode)
				p := op.setup(a, lane)
				a.TruncateLog()
				before = a.FreeFrames()
				op.run(a, lane, p)
				after = a.FreeFrames()
			}
			events := uint64(0)
			for k := uint64(1); ; k++ {
				a, m, lane := newAllocator(mode)
				p := op.setup(a, lane)
				a.TruncateLog()
				var fired, committed bool
				func() {
					defer func() {
						if r := recover(); r != nil {
							if _, ok := r.(mem.CrashError); !ok {
								panic(r)
							}
							fired = true
							// The Go-side state at the power failure
							// shows whether the record had committed.
							committed = a.Journal().PendingRecord() == nil && a.FreeFrames() == after
						}
					}()
					m.ArmCrashAfter(k)
					op.run(a, lane, p)
				}()
				m.DisarmCrash()
				if !fired {
					break
				}
				events = k
				t.Run(fmt.Sprintf("%s/%s/event=%d", op.name, mode, k), func(t *testing.T) {
					crash(t, a, m)
					want := before
					if op.ckpt && committed {
						want = after
					}
					if got := a.FreeFrames(); got != want {
						t.Errorf("free frames = %d, want %d (before %d, after %d)", got, want, before, after)
					}
					if err := a.CheckInvariants(); err != nil {
						t.Error(err)
					}
					if rec := a.Journal().PendingRecord(); rec != nil {
						t.Errorf("record %s still pending after recovery", rec.Op)
					}
					if _, err := a.AllocPage(lane); err != nil {
						t.Errorf("allocation after recovery: %v", err)
					}
				})
			}
			if events == 0 {
				t.Errorf("%s/%s fired no persistence event", op.name, mode)
			}
			t.Logf("%s/%s: %d events", op.name, mode, events)
		}
	}
}

// TestRecoverResolvesAppliedRecords builds, by hand, the two journal states
// no persistence event exposes: MarkApplied publishes atomically and is
// followed directly by the op-log append (a runtime allocation) or by the
// commit (a checkpoint-owned free), so a crash can only observe them if
// power fails between two atomic publishes.
func TestRecoverResolvesAppliedRecords(t *testing.T) {
	for _, mode := range []mem.PersistMode{mem.ModeEADR, mem.ModeADR} {
		t.Run("alloc-not-logged/"+mode.String(), func(t *testing.T) {
			a, m, lane := newAllocator(mode)
			before := a.FreeFrames()
			rec := a.jrnl.Begin(lane, journal.OpBuddyAlloc)
			f, err := a.buddy.Alloc(0)
			if err != nil {
				t.Fatal(err)
			}
			rec.Args[0] = uint64(f)
			a.jrnl.MarkApplied(lane, rec)
			crash(t, a, m)
			// Carved out of the buddy but never logged or handed out:
			// recovery must free it through the journal.
			if a.FreeFrames() != before || !a.IsFree(f) {
				t.Errorf("free = %d, want %d (frame %d leaked)", a.FreeFrames(), before, f)
			}
			if !a.WasRolledBack(f) {
				t.Errorf("frame %d not marked rolled back", f)
			}
			if a.Journal().PendingRecord() != nil {
				t.Error("record still pending after recovery")
			}
		})
		t.Run("ckpt-free/"+mode.String(), func(t *testing.T) {
			a, m, lane := newAllocator(mode)
			p, err := a.AllocPageCkpt(lane)
			if err != nil {
				t.Fatal(err)
			}
			before := a.FreeFrames()
			rec := a.jrnl.Begin(lane, journal.OpBuddyFree, uint64(p.Frame))
			a.buddy.Free(p.Frame, 0)
			a.jrnl.MarkApplied(lane, rec)
			crash(t, a, m)
			// The free never committed: the page is allocated again.
			if a.FreeFrames() != before || a.IsFree(p.Frame) {
				t.Errorf("free = %d, want %d (frame %d lost)", a.FreeFrames(), before, p.Frame)
			}
			if a.Journal().PendingRecord() != nil {
				t.Error("record still pending after recovery")
			}
			if err := a.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

// Property test: a random operation sequence followed by crash + Recover
// always lands exactly on the state at the last checkpoint commit, plus the
// checkpoint-owned allocations and frees made since.
func TestRandomOpsRecoverToCheckpoint(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, m, lane := newAllocator(mem.ModeEADR)

		var runtime, owned []mem.PageID
		// Build up some durable state.
		for i := 0; i < 50; i++ {
			p, err := a.AllocPage(lane)
			if err != nil {
				t.Fatal(err)
			}
			runtime = append(runtime, p)
			if p, err = a.AllocPageCkpt(lane); err != nil {
				t.Fatal(err)
			}
			owned = append(owned, p)
		}
		a.TruncateLog()
		wantFree := a.FreeFrames()

		// Random churn after the checkpoint. Runtime allocations roll
		// back; checkpoint-owned ones and their frees stand.
		var rolled []mem.PageID
		for i := 0; i < 200; i++ {
			switch rng.Intn(3) {
			case 0:
				if p, err := a.AllocPage(lane); err == nil {
					rolled = append(rolled, p)
				}
			case 1:
				if p, err := a.AllocPageCkpt(lane); err == nil {
					owned = append(owned, p)
					wantFree--
				}
			case 2:
				if len(owned) > 0 {
					i := rng.Intn(len(owned))
					a.FreePageCkpt(lane, owned[i])
					owned = append(owned[:i], owned[i+1:]...)
					wantFree++
				}
			}
		}

		crash(t, a, m)
		if a.FreeFrames() != wantFree {
			t.Errorf("seed %d: free = %d, want %d", seed, a.FreeFrames(), wantFree)
		}
		for _, p := range rolled {
			if !a.IsFree(p.Frame) {
				t.Errorf("seed %d: post-checkpoint page %d survived the rollback", seed, p.Frame)
			}
		}
		for _, p := range append(runtime, owned...) {
			if a.IsFree(p.Frame) {
				t.Errorf("seed %d: page %d lost by the rollback", seed, p.Frame)
			}
		}
		if err := a.CheckInvariants(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
