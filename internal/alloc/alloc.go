package alloc

import (
	"treesls/internal/journal"
	"treesls/internal/mem"
	"treesls/internal/simclock"
)

// Allocator is the NVM page allocator of the checkpoint manager: a buddy
// system plus the persistent op log, with every mutation journaled. It is
// part of the persistent world: the whole structure survives machine
// crashes, modelling metadata kept in the global metadata area on NVM.
type Allocator struct {
	memory *mem.Memory
	model  *simclock.CostModel
	jrnl   *journal.Journal

	buddy *Buddy

	// log is the persistent operation log: the frames AllocPage handed out
	// after the last checkpoint commit, which Recover frees again when the
	// system rolls back to that checkpoint.
	log []uint32

	// rolledBack records the frames that the most recent Recover freed
	// while undoing post-checkpoint allocations. Persistent structures
	// (checkpointed radix entries) consult it so they never trust a
	// pointer to a reclaimed frame.
	rolledBack map[uint32]bool

	// Stats for the experiment reports.
	Stats Stats
}

// Stats counts allocator activity.
type Stats struct {
	PageAllocs uint64
	PageFrees  uint64
	// SlotAllocs stays zero: capability objects are Go values and take
	// no allocator slot. The benchmark still reports it per round.
	SlotAllocs     uint64
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
	}
}

// Journal returns the journal protecting this allocator.
func (a *Allocator) Journal() *journal.Journal { return a.jrnl }

// FreeFrames reports free NVM frames (for over-commitment experiments).
func (a *Allocator) FreeFrames() int { return a.buddy.FreeFrames() }

// AllocPage allocates one NVM frame and returns its PageID. The operation is
// journaled and logged for post-crash rollback.
func (a *Allocator) AllocPage(lane *simclock.Lane) (mem.PageID, error) {
	return a.allocPage(lane, true)
}

// AllocPageCkpt allocates one NVM frame owned by the checkpoint manager
// itself (backup pages, checkpointed radix nodes). Such allocations are
// journaled for crash atomicity but NOT op-logged: they carry checkpointed
// state (e.g. a copy-on-write backup with the last checkpoint's content) and
// must survive the post-crash rollback that reverts application-visible
// allocations.
func (a *Allocator) AllocPageCkpt(lane *simclock.Lane) (mem.PageID, error) {
	p, err := a.allocPage(lane, false)
	if err == nil {
		a.Stats.CkptPageAllocs++
	}
	return p, err
}

// allocPage takes one frame from the buddy under a journal record and, for
// a runtime page, appends it to the op log before the record commits.
func (a *Allocator) allocPage(lane *simclock.Lane, logged bool) (mem.PageID, error) {
	rec := a.jrnl.Begin(lane, journal.OpBuddyAlloc)
	frame, err := a.buddy.Alloc(0)
	if err != nil {
		a.jrnl.Commit(lane, rec)
		return mem.NilPage, err
	}
	rec.Args[0] = uint64(frame)
	a.jrnl.MarkApplied(lane, rec)
	if logged {
		a.logAppend(lane, frame)
	}
	a.jrnl.Commit(lane, rec)
	if lane != nil {
		lane.Charge(a.model.BuddyAlloc)
	}
	a.Stats.PageAllocs++
	return mem.PageID{Kind: mem.KindNVM, Frame: frame}, nil
}

// FreePageCkpt releases an NVM frame under a journal record. It is not
// op-logged: checkpoint-owned frames are freed directly, and runtime frames
// only at a commit (Manager.DeferFreePage), so a rollback never needs a
// freed frame back.
func (a *Allocator) FreePageCkpt(lane *simclock.Lane, p mem.PageID) {
	if p.Kind != mem.KindNVM {
		panic("alloc: FreePageCkpt on " + p.String())
	}
	rec := a.jrnl.Begin(lane, journal.OpBuddyFree, uint64(p.Frame))
	a.buddy.Free(p.Frame, 0)
	a.jrnl.MarkApplied(lane, rec)
	a.jrnl.Commit(lane, rec)
	if lane != nil {
		lane.Charge(a.model.BuddyFree)
	}
	a.Stats.PageFrees++
}

// logAppend records one rollback entry in the persistent op log. The log
// lives in the NVM metadata area: the Go append is the (atomic) durable
// mutation, after which the entry's cache line is written back and fenced
// under the ADR discipline. The explicit crash point exposes the window in
// which the page is both allocated and logged but its journal record is
// still pending — recovery must then free it exactly once (see the
// tail-match guard in Recover).
func (a *Allocator) logAppend(lane *simclock.Lane, frame uint32) {
	a.log = append(a.log, frame)
	a.memory.CrashPoint()
	if a.memory.Mode() == mem.ModeADR && lane != nil {
		lane.Charge(a.model.CLWBLine + a.model.SFence)
	}
}

// TruncateLog drops the op log: everything allocated before a checkpoint
// commit belongs to it. The checkpoint manager calls it under its own
// commit record, which provides the atomicity (and, during recovery, the
// redo).
func (a *Allocator) TruncateLog() { a.log = a.log[:0] }

// Recover repairs the allocator after a power failure:
//
//  1. The pending journal record (if any) is resolved: an operation that
//     had fully applied is undone (the caller's view rolls back to the last
//     checkpoint anyway), a half-begun one is discarded.
//  2. The op log is rolled back in reverse, freeing every page allocated
//     after the last checkpoint commit.
//
// After Recover the buddy state matches the last committed checkpoint
// exactly. It returns the number of rolled-back allocations.
func (a *Allocator) Recover() (int, error) {
	a.rolledBack = make(map[uint32]bool)
	if rec := a.jrnl.PendingRecord(); rec != nil {
		// An applied allocation that already reached the op log (crash
		// between the log append and the journal commit) is undone by
		// the rollback below; resolving the record too would free it
		// twice.
		if rec.Phase != journal.PhaseApplied || !a.tailMatches(rec) {
			if err := a.resolvePending(rec); err != nil {
				return 0, err
			}
		}
		a.jrnl.Retire(rec)
	}
	for i := len(a.log) - 1; i >= 0; i-- {
		a.rolledBack[a.log[i]] = true
		a.buddy.Free(a.log[i], 0)
	}
	n := len(a.log)
	a.log = a.log[:0]
	a.Stats.Rollbacks += uint64(n)
	return n, nil
}

// tailMatches reports whether the last op-log entry is the very allocation
// the pending journal record protects. The match is unambiguous: a logged
// frame stays allocated until the next commit truncates the log, so no
// other allocation can hand out the same frame while it is the tail.
func (a *Allocator) tailMatches(rec *journal.Record) bool {
	return rec.Op == journal.OpBuddyAlloc && len(a.log) > 0 &&
		uint64(a.log[len(a.log)-1]) == rec.Args[0]
}

// resolvePending undoes the operation of a pending record. A begun record
// touched no metadata (mutations apply atomically in the simulation,
// matching eADR's 8-byte atomic persistence for the status words that gate
// each step), so only an applied one needs work. A checkpoint-commit record
// belongs to the manager, which resolves it before calling Recover.
func (a *Allocator) resolvePending(rec *journal.Record) error {
	if rec.Phase == journal.PhaseBegun {
		return nil
	}
	switch rec.Op {
	case journal.OpBuddyAlloc:
		a.rolledBack[uint32(rec.Args[0])] = true
		a.buddy.Free(uint32(rec.Args[0]), 0)
	case journal.OpBuddyFree:
		return a.buddy.AllocExact(uint32(rec.Args[0]), 0)
	}
	return nil
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
