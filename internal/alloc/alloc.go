package alloc

import (
	"fmt"

	"treesls/internal/journal"
	"treesls/internal/mem"
	"treesls/internal/simclock"
)

// CrashError is the panic value raised at an injected fault point. The
// machine's crash-injection harness recovers it and treats it as a power
// failure at that exact micro-step.
type CrashError struct{ Point string }

// Error implements error.
func (c CrashError) Error() string { return "injected power failure at " + c.Point }

// FaultPlan triggers a simulated power failure when a named fault point is
// reached for the Nth time. A nil plan never fires.
type FaultPlan struct {
	// Point is the fault-point name, e.g. "buddy-alloc:applied".
	Point string
	// Countdown fires on reaching the point when it hits zero; each visit
	// to the matching point decrements it.
	Countdown int
}

// opRec is one entry of the persistent operation log: an allocator mutation
// performed after the last checkpoint commit, to be rolled back if the
// system recovers to that checkpoint.
type opRec struct {
	op   journal.Op
	a, b uint64
}

// Allocator is the NVM allocator of the checkpoint manager: buddy + slabs +
// the persistent op log, with every mutation journaled. It is part of the
// persistent world: the whole structure survives machine crashes, modelling
// metadata kept in the global metadata area on NVM.
type Allocator struct {
	memory *mem.Memory
	model  *simclock.CostModel
	jrnl   *journal.Journal

	buddy *Buddy
	slabs *slabs

	log []opRec

	// rolledBack records the frames that the most recent Recover freed
	// while undoing post-checkpoint allocations. Persistent structures
	// (checkpointed radix entries) consult it so they never trust a
	// pointer to a reclaimed frame.
	rolledBack map[uint32]bool

	fault *FaultPlan

	// Stats for the experiment reports.
	Stats Stats
}

// Stats counts allocator activity.
type Stats struct {
	PageAllocs     uint64
	PageFrees      uint64
	SlotAllocs     uint64
	SlotFrees      uint64
	Rollbacks      uint64
	CkptPageAllocs uint64
}

// ReservedMetaFrames is the size of the global metadata area at the start of
// NVM (holds the global version word, journal, and allocator metadata).
const ReservedMetaFrames = 16

// New creates the allocator over the NVM device of m.
func New(m *mem.Memory, j *journal.Journal) *Allocator {
	return &Allocator{
		memory: m,
		model:  m.Model(),
		jrnl:   j,
		buddy:  NewBuddy(m.NVMFrames(), ReservedMetaFrames),
		slabs:  newSlabs(),
	}
}

// Journal returns the journal protecting this allocator.
func (a *Allocator) Journal() *journal.Journal { return a.jrnl }

// SetFaultPlan arms (or with nil, disarms) crash injection.
func (a *Allocator) SetFaultPlan(p *FaultPlan) { a.fault = p }

// faultPoint raises an injected power failure if the plan targets this point.
func (a *Allocator) faultPoint(name string) {
	if a.fault == nil || a.fault.Point != name {
		return
	}
	if a.fault.Countdown > 0 {
		a.fault.Countdown--
		return
	}
	a.fault = nil
	panic(CrashError{Point: name})
}

// FreeFrames reports free NVM frames (for over-commitment experiments).
func (a *Allocator) FreeFrames() int { return a.buddy.FreeFrames() }

// AllocPage allocates one NVM frame and returns its PageID. The operation is
// journaled and logged for post-crash rollback.
func (a *Allocator) AllocPage(lane *simclock.Lane) (mem.PageID, error) {
	start, err := a.allocFrames(lane, 0)
	if err != nil {
		return mem.NilPage, err
	}
	return mem.PageID{Kind: mem.KindNVM, Frame: start}, nil
}

// AllocFrames allocates a block of 2^order NVM frames.
func (a *Allocator) AllocFrames(lane *simclock.Lane, order int) (uint32, error) {
	return a.allocFrames(lane, order)
}

func (a *Allocator) allocFrames(lane *simclock.Lane, order int) (uint32, error) {
	rec := a.jrnl.Begin(lane, journal.OpBuddyAlloc, 0, uint64(order))
	a.faultPoint("buddy-alloc:begun")
	start, err := a.buddy.Alloc(order)
	if err != nil {
		a.jrnl.Commit(lane, rec)
		return 0, err
	}
	rec.Args[0] = uint64(start)
	a.jrnl.MarkApplied(lane, rec)
	a.faultPoint("buddy-alloc:applied")
	a.logAppend(lane, opRec{op: journal.OpBuddyAlloc, a: uint64(start), b: uint64(order)})
	a.jrnl.Commit(lane, rec)
	if lane != nil {
		lane.Charge(a.model.BuddyAlloc)
	}
	a.Stats.PageAllocs++
	return start, nil
}

// FreePage releases one NVM frame.
func (a *Allocator) FreePage(lane *simclock.Lane, p mem.PageID) {
	if p.Kind != mem.KindNVM {
		panic("alloc: FreePage on " + p.String())
	}
	a.FreeFramesBlock(lane, p.Frame, 0)
}

// FreeFramesBlock releases a block of 2^order NVM frames.
func (a *Allocator) FreeFramesBlock(lane *simclock.Lane, start uint32, order int) {
	rec := a.jrnl.Begin(lane, journal.OpBuddyFree, uint64(start), uint64(order))
	a.faultPoint("buddy-free:begun")
	a.buddy.Free(start, order)
	a.jrnl.MarkApplied(lane, rec)
	a.faultPoint("buddy-free:applied")
	a.logAppend(lane, opRec{op: journal.OpBuddyFree, a: uint64(start), b: uint64(order)})
	a.jrnl.Commit(lane, rec)
	if lane != nil {
		lane.Charge(a.model.BuddyFree)
	}
	a.Stats.PageFrees++
}

// AllocPageCkpt allocates one NVM frame owned by the checkpoint manager
// itself (backup pages, checkpointed radix nodes). Such allocations are
// journaled for crash atomicity but NOT op-logged: they carry checkpointed
// state (e.g. a copy-on-write backup with the last checkpoint's content) and
// must survive the post-crash rollback that reverts application-visible
// allocations.
func (a *Allocator) AllocPageCkpt(lane *simclock.Lane) (mem.PageID, error) {
	rec := a.jrnl.Begin(lane, journal.OpBuddyAlloc, 0, 0)
	a.faultPoint("buddy-alloc-ckpt:begun")
	start, err := a.buddy.Alloc(0)
	if err != nil {
		a.jrnl.Commit(lane, rec)
		return mem.NilPage, err
	}
	rec.Args[0] = uint64(start)
	a.jrnl.MarkApplied(lane, rec)
	a.jrnl.Commit(lane, rec)
	if lane != nil {
		lane.Charge(a.model.BuddyAlloc)
	}
	a.Stats.PageAllocs++
	a.Stats.CkptPageAllocs++
	return mem.PageID{Kind: mem.KindNVM, Frame: start}, nil
}

// FreePageCkpt releases a checkpoint-owned NVM frame (not op-logged).
func (a *Allocator) FreePageCkpt(lane *simclock.Lane, p mem.PageID) {
	if p.Kind != mem.KindNVM {
		panic("alloc: FreePageCkpt on " + p.String())
	}
	rec := a.jrnl.Begin(lane, journal.OpBuddyFree, uint64(p.Frame), 0)
	a.buddy.Free(p.Frame, 0)
	a.jrnl.MarkApplied(lane, rec)
	a.jrnl.Commit(lane, rec)
	if lane != nil {
		lane.Charge(a.model.BuddyFree)
	}
	a.Stats.PageFrees++
}

// AllocSlot allocates one slab slot of the given class.
func (a *Allocator) AllocSlot(lane *simclock.Lane, c Class) (Slot, error) {
	rec := a.jrnl.Begin(lane, journal.OpSlabAlloc, uint64(c), 0, 0)
	a.faultPoint("slab-alloc:begun")
	sl, err := a.slabs.alloc(c, func() (uint32, error) {
		// Growing the class takes a page straight from the buddy;
		// this nested mutation is covered by the same journal record
		// (args carry the grown frame for undo).
		f, err := a.buddy.Alloc(0)
		if err == nil {
			rec.Args[2] = uint64(f) + 1 // +1 so 0 means "no growth"
			a.faultPoint("slab-alloc:grown")
		}
		return f, err
	})
	if err != nil {
		a.jrnl.Commit(lane, rec)
		return NilSlot, err
	}
	rec.Args[0] = packSlot(sl)
	a.jrnl.MarkApplied(lane, rec)
	a.faultPoint("slab-alloc:applied")
	a.logAppend(lane, opRec{op: journal.OpSlabAlloc, a: packSlot(sl), b: rec.Args[2]})
	a.jrnl.Commit(lane, rec)
	if lane != nil {
		lane.Charge(a.model.SlabAlloc)
	}
	a.Stats.SlotAllocs++
	return sl, nil
}

// FreeSlot releases one slab slot.
func (a *Allocator) FreeSlot(lane *simclock.Lane, sl Slot) {
	rec := a.jrnl.Begin(lane, journal.OpSlabFree, packSlot(sl))
	a.faultPoint("slab-free:begun")
	if err := a.slabs.free(sl); err != nil {
		panic(err)
	}
	a.jrnl.MarkApplied(lane, rec)
	a.faultPoint("slab-free:applied")
	a.logAppend(lane, opRec{op: journal.OpSlabFree, a: packSlot(sl)})
	a.jrnl.Commit(lane, rec)
	if lane != nil {
		lane.Charge(a.model.SlabFree)
	}
	a.Stats.SlotFrees++
}

// logAppend records one rollback entry in the persistent op log. The log
// lives in the NVM metadata area: the Go append is the (atomic) durable
// mutation, after which the entry's cache line is written back and fenced
// under the ADR discipline. The explicit crash point exposes the window in
// which the op has both applied and reached the log but its journal record
// is still pending — recovery must then undo it exactly once (see the
// tail-match guard in Recover).
func (a *Allocator) logAppend(lane *simclock.Lane, r opRec) {
	a.log = append(a.log, r)
	a.memory.CrashPoint()
	if a.memory.Mode() == mem.ModeADR && lane != nil {
		lane.Charge(a.model.CLWBLine + a.model.SFence)
	}
}

// LiveSlots reports currently-allocated slots of class c (Table 2 rows).
func (a *Allocator) LiveSlots(c Class) int { return a.slabs.LiveSlots(c) }

// LogLen reports the number of un-checkpointed allocator operations.
func (a *Allocator) LogLen() int { return len(a.log) }

// OnCheckpointCommit truncates the op log: everything before the commit is
// part of the durable checkpointed state. The truncation itself is journaled
// so that a crash between the version bump and the truncation redoes it.
func (a *Allocator) OnCheckpointCommit(lane *simclock.Lane) {
	rec := a.jrnl.Begin(lane, journal.OpLogTruncate)
	a.faultPoint("log-truncate:begun")
	a.log = a.log[:0]
	a.jrnl.MarkApplied(lane, rec)
	a.jrnl.Commit(lane, rec)
}

// TruncateLog drops the op log directly, without journaling. The checkpoint
// manager calls it while resolving its own commit record during recovery
// (the commit record provides the atomicity there).
func (a *Allocator) TruncateLog() { a.log = a.log[:0] }

// Recover repairs the allocator after a power failure:
//
//  1. The pending journal record (if any) is resolved: operations that had
//     fully applied are undone (the caller's view rolls back to the last
//     checkpoint anyway), half-begun ones are discarded.
//  2. The op log is rolled back in reverse, undoing every allocator mutation
//     performed after the last checkpoint commit.
//
// After Recover the buddy/slab state matches the last committed checkpoint
// exactly. It returns the number of rolled-back operations.
func (a *Allocator) Recover() (int, error) {
	a.rolledBack = make(map[uint32]bool)
	if rec := a.jrnl.PendingRecord(); rec != nil {
		if rec.Phase == journal.PhaseApplied && a.tailMatches(rec) {
			// The op both hit metadata and reached the op log before
			// power failed (crash between the log append and the
			// journal commit). The reverse rollback below undoes it;
			// resolving the record too would undo it twice.
			a.jrnl.Retire(rec)
		} else {
			if err := a.resolvePending(rec); err != nil {
				return 0, err
			}
			a.jrnl.Retire(rec)
		}
	}
	n := 0
	for i := len(a.log) - 1; i >= 0; i-- {
		r := a.log[i]
		if err := a.undo(r); err != nil {
			return n, fmt.Errorf("rolling back op %d (%s): %w", i, r.op, err)
		}
		n++
	}
	a.log = a.log[:0]
	a.Stats.Rollbacks += uint64(n)
	return n, nil
}

// tailMatches reports whether the last op-log entry is the very operation
// the pending journal record protects. Allocation discipline makes the
// match unambiguous: every logged mutation of a frame or slot is itself
// logged, so the same (op, args) can only reappear at the tail with an
// intervening logged entry in between.
func (a *Allocator) tailMatches(rec *journal.Record) bool {
	if len(a.log) == 0 {
		return false
	}
	t := a.log[len(a.log)-1]
	if t.op != rec.Op {
		return false
	}
	switch rec.Op {
	case journal.OpBuddyAlloc, journal.OpBuddyFree:
		return t.a == rec.Args[0] && t.b == rec.Args[1]
	case journal.OpSlabAlloc:
		return t.a == rec.Args[0] && t.b == rec.Args[2]
	case journal.OpSlabFree:
		return t.a == rec.Args[0]
	}
	return false
}

func (a *Allocator) resolvePending(rec *journal.Record) error {
	if rec.Phase == journal.PhaseBegun {
		// Metadata untouched (mutations apply atomically in the
		// simulation, matching eADR's 8-byte atomic persistence for
		// the status words that gate each step) — except for a slab
		// allocation that had already grown its class with a buddy
		// page: release that page.
		if rec.Op == journal.OpSlabAlloc && rec.Args[2] != 0 {
			a.markRolledBack(uint32(rec.Args[2]-1), 0)
			a.buddy.Free(uint32(rec.Args[2]-1), 0)
		}
		return nil
	}
	switch rec.Op {
	case journal.OpBuddyAlloc:
		a.markRolledBack(uint32(rec.Args[0]), int(rec.Args[1]))
		a.buddy.Free(uint32(rec.Args[0]), int(rec.Args[1]))
	case journal.OpBuddyFree:
		if err := a.buddy.AllocExact(uint32(rec.Args[0]), int(rec.Args[1])); err != nil {
			return err
		}
	case journal.OpSlabAlloc:
		sl := unpackSlot(rec.Args[0])
		if err := a.slabs.free(sl); err != nil {
			return err
		}
		if rec.Args[2] != 0 {
			// The allocation grew the class with a fresh page;
			// release it back to the buddy too.
			grown := uint32(rec.Args[2] - 1)
			if err := a.slabs.deregister(sl.Class, grown); err != nil {
				return err
			}
			a.markRolledBack(grown, 0)
			a.buddy.Free(grown, 0)
		}
	case journal.OpSlabFree:
		if err := a.slabs.allocExact(unpackSlot(rec.Args[0])); err != nil {
			return err
		}
	case journal.OpLogTruncate:
		// Redo: the checkpoint committed; finish the truncation.
		a.log = a.log[:0]
	case journal.OpCheckpointCommit:
		// Owned by the checkpoint manager; nothing allocator-side.
	}
	return nil
}

func (a *Allocator) undo(r opRec) error {
	switch r.op {
	case journal.OpBuddyAlloc:
		a.markRolledBack(uint32(r.a), int(r.b))
		a.buddy.Free(uint32(r.a), int(r.b))
	case journal.OpBuddyFree:
		return a.buddy.AllocExact(uint32(r.a), int(r.b))
	case journal.OpSlabAlloc:
		sl := unpackSlot(r.a)
		if err := a.slabs.free(sl); err != nil {
			return err
		}
		if r.b != 0 {
			grown := uint32(r.b - 1)
			if err := a.slabs.deregister(sl.Class, grown); err != nil {
				return err
			}
			a.markRolledBack(grown, 0)
			a.buddy.Free(grown, 0)
		}
		return nil
	case journal.OpSlabFree:
		return a.slabs.allocExact(unpackSlot(r.a))
	default:
		return fmt.Errorf("unexpected log op %v", r.op)
	}
	return nil
}

func (a *Allocator) markRolledBack(start uint32, order int) {
	if a.rolledBack == nil {
		a.rolledBack = make(map[uint32]bool)
	}
	for f := start; f < start+(1<<order); f++ {
		a.rolledBack[f] = true
	}
}

// WasRolledBack reports whether the most recent recovery reclaimed frame f.
// Restore paths use it to invalidate persistent pointers into frames that
// belonged to the crashed epoch.
func (a *Allocator) WasRolledBack(f uint32) bool { return a.rolledBack[f] }

// IsFree reports whether NVM frame f is free: no live structure may point
// into it.
func (a *Allocator) IsFree(f uint32) bool { return a.buddy.IsFree(f) }

// CheckInvariants validates buddy free-list structure.
func (a *Allocator) CheckInvariants() error { return a.buddy.CheckInvariants() }

func packSlot(s Slot) uint64 {
	return uint64(s.Class)<<48 | uint64(s.Frame)<<16 | uint64(s.Index)
}

func unpackSlot(v uint64) Slot {
	return Slot{Class: Class(v >> 48), Frame: uint32(v>>16) & 0xFFFFFFFF, Index: uint16(v)}
}
