// Package audit computes deterministic digests of the machine's logical
// state and checks cross-layer invariants of the checkpoint protocol.
//
// Two digests are defined:
//
//   - The runtime state digest covers everything reachable from the runtime
//     capability tree: object identities, per-kind logical fields, and the
//     CONTENT of every mapped memory page. Physical frame numbers, hotness
//     counters, write-protection bits and other volatile placement details
//     are deliberately excluded, so two machines holding the same logical
//     state digest identically even when one cached pages in DRAM and the
//     other kept them in NVM — this is what makes the digest usable for
//     differential tests across copy methods and persistence modes.
//
//   - The backup digest covers the state a crash at this instant would
//     restore: for every object reachable from the backup root, the newest
//     committed snapshot, with PMO page content read through an independent
//     reimplementation of the §4.2/§4.3.3 version rules.
//
// Digests are 64-bit FNV-1a over a canonical byte encoding; identical seeds
// must produce identical digests (the determinism regression test relies on
// byte-for-byte stability). The encoding is two-level. A content page enters
// as its own 64-bit hash (mem.PageHash, CRC-32C and CRC-32 of its bytes),
// which mem caches per frame until the frame is next written. Every non-PMO
// object enters as its kind, its ID and one word, the FNV-1a of its own
// fields (its record hash); a PMO folds its type, size and page entries
// inline. The backup digests keep each root's record hash on its ORoot,
// keyed by the committed snapshot and its version, so a digest re-reads
// only the pages and records written since the last one. The runtime
// digest hashes every record afresh, since the dirty bits a cache would
// have to trust are themselves under audit.
package audit

import (
	"fmt"

	"treesls/internal/alloc"
	"treesls/internal/caps"
	"treesls/internal/checkpoint"
	"treesls/internal/journal"
	"treesls/internal/mem"
)

// digest is an FNV-1a accumulator (folded by mem.FoldFNV) with canonical
// encoders. Tags separate fields of variable-length encodings so no two
// distinct states collide by concatenation ambiguity.
type digest struct{ h uint64 }

func newDigest() digest { return digest{h: mem.FNVOffset} }

func (d *digest) byte(b byte) { d.h = (d.h ^ uint64(b)) * mem.FNVPrime }

// u64 folds v's eight bytes, least significant first.
func (d *digest) u64(v uint64) { d.h = mem.FoldFNV64(d.h, v) }

func (d *digest) bytes(b []byte) {
	d.u64(uint64(len(b)))
	d.h = mem.FoldFNV(d.h, b)
}

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	d.h = mem.FoldFNV(d.h, []byte(s))
}

// Page-slot markers in the canonical encoding.
const (
	markContent  = 0 // followed by the page's content hash (mem.PageHash)
	markSwapped  = 1 // page lives on the swap device
	markNil      = 2 // slot exists but holds no page
	markNoSource = 3 // backup entry with no recoverable source
	markEternal  = 4 // eternal PMO content excluded (RestorableDigest)
)

// StateDigest hashes the logical state reachable from the runtime capability
// tree. Page content enters as its cached hash (mem.PageHash), which is
// recomputed from the bytes only after the page was written, and every other
// object as its record hash (objectHash), computed afresh: dirty bits are
// part of what the auditor checks, so no cache keyed by them may feed this
// digest. Digesting is free in simulated time — auditing never perturbs
// lane clocks.
func StateDigest(tree *caps.Tree, memory *mem.Memory) uint64 {
	return stateDigest(tree, memory, nil)
}

// stateDigest is StateDigest's walk. When page is non-nil it is also called
// for every page slot of every reachable PMO, in walk order, so the
// auditor's page-placement check shares the digest's one walk.
func stateDigest(tree *caps.Tree, memory *mem.Memory, page func(pmo *caps.PMO, idx uint64, s *caps.PageSlot)) uint64 {
	d := newDigest()
	tree.Walk(func(o caps.Object) {
		d.byte(byte(o.Kind()))
		d.u64(o.ID())
		v, ok := o.(*caps.PMO)
		if !ok {
			d.u64(objectHash(o))
			return
		}
		d.byte(byte(v.Type))
		d.u64(v.SizePages)
		v.ForEachPage(func(idx uint64, s *caps.PageSlot) bool {
			d.u64(idx)
			switch {
			case s.SwappedOut:
				d.byte(markSwapped)
			case s.Page.IsNil():
				d.byte(markNil)
			default:
				d.byte(markContent)
				d.u64(memory.PageHash(s.Page))
			}
			if page != nil {
				page(v, idx, s)
			}
			return true
		})
	})
	return d.h
}

// objectHash is the record hash of a runtime non-PMO object: the FNV-1a of
// its own logical fields. It folds the same words as recordHash of a
// snapshot of the object, so a runtime record and its backup record hash
// alike.
func objectHash(o caps.Object) uint64 {
	d := newDigest()
	switch v := o.(type) {
	case *caps.CapGroup:
		d.str(v.Name)
		d.u64(uint64(v.NumSlots()))
		for i := 0; i < v.NumSlots(); i++ {
			c := v.Cap(i)
			if c.Obj == nil {
				d.u64(0)
				continue
			}
			d.u64(c.Obj.ID())
			d.byte(byte(c.Rights))
		}
	case *caps.Thread:
		d.context(&v.Ctx, v.Sched, v.State)
	case *caps.VMSpace:
		d.u64(uint64(v.NumRegions()))
		v.ForEachRegion(func(r *caps.VMRegion) {
			d.u64(r.VABase)
			d.u64(r.NumPages)
			d.u64(r.PMO.ID())
			d.u64(r.PMOOffset)
			d.byte(byte(r.Perm))
		})
	case *caps.IPCConn:
		d.u64(objID(v.Client))
		d.u64(objID(v.Server))
		d.bytes(v.Buf)
		d.u64(v.Seq)
	case *caps.Notification:
		d.u64(uint64(int64(v.Count)))
		d.u64(uint64(v.NumWaiters()))
	case *caps.IRQNotification:
		d.u64(uint64(int64(v.Line)))
		d.u64(uint64(v.Pending))
		d.u64(objID(v.Handler))
	}
	return d.h
}

// context folds a thread's registers, scheduling parameters and state.
// Running is a scheduling instant, not logical state: a restore revives
// running threads as runnable.
func (d *digest) context(ctx *caps.Context, sched caps.SchedContext, st caps.ThreadState) {
	d.u64(ctx.PC)
	d.u64(ctx.SP)
	for _, r := range ctx.R {
		d.u64(r)
	}
	d.u64(uint64(int64(sched.Priority)))
	d.u64(uint64(int64(sched.Affinity)))
	d.u64(uint64(sched.TimeSlice))
	if st == caps.ThreadRunning {
		st = caps.ThreadRunnable
	}
	d.byte(byte(st))
}

func objID(o caps.Object) uint64 {
	// Typed nils must not reach Object.ID; callers pass concrete pointers.
	switch v := o.(type) {
	case *caps.Thread:
		if v == nil {
			return 0
		}
	case nil:
		return 0
	}
	return o.ID()
}

// restoreSource reimplements the version rules of §4.2/§4.3.3 independently
// of the checkpoint package (an intentional double bookkeeping: a bug in
// either implementation shows up as a digest or invariant mismatch).
// It returns the slot index, or markSwapped/markNoSource sentinels as
// negative values -1 and -2.
func restoreSource(cp *caps.CkptPage, committed uint64) int {
	valid := func(p mem.PageID) bool { return !p.IsNil() && p.Kind == mem.KindNVM }
	for i := 0; i < 2; i++ { // rule 1
		if valid(cp.Page[i]) && cp.Ver[i] == committed && cp.Ver[i] != 0 {
			return i
		}
	}
	if cp.Swap != 0 {
		return -1
	}
	if valid(cp.Page[1]) && cp.Ver[1] == 0 { // rule 2
		return 1
	}
	src, best := -2, uint64(0) // rule 3
	for i := 0; i < 2; i++ {
		if valid(cp.Page[i]) && cp.Ver[i] != 0 && cp.Ver[i] <= committed && cp.Ver[i] > best {
			src, best = i, cp.Ver[i]
		}
	}
	return src
}

// BackupDigest hashes the state a restore at this instant would produce:
// every object reachable from the backup root through its newest committed
// snapshot. The reachability walk mirrors the restore discovery (DFS in
// snapshot slot order), so the visit order — and the digest — is
// deterministic.
func BackupDigest(m *checkpoint.Manager, memory *mem.Memory) uint64 {
	return backupDigest(m, memory, true, nil)
}

// RestorableDigest hashes only the state a restore ROLLS BACK to: eternal
// PMO page content is excluded. Eternal pages (§5) deliberately survive
// recovery with whatever the device last wrote, so two captures of the same
// checkpoint version can legitimately differ there; everything a checkpoint
// promises to reproduce is covered. The cluster cut protocol announces this
// digest — it must verify bit-identically after any recovery to the cut.
func RestorableDigest(m *checkpoint.Manager, memory *mem.Memory) uint64 {
	return backupDigest(m, memory, false, nil)
}

// backupDigest is the backup digests' DFS. A non-PMO root folds the record
// hash of its newest committed snapshot (recordHash), which its ORoot caches
// under that snapshot's pointer and version, so a digest folds again only
// the records a round rewrote. The cache is the audit's own: the checkpoint
// manager's record digests (ORoot.Sum) are what the auditor checks, and
// they are absent under DisableChecksums. When missing is non-nil it is
// also called, in DFS order, for every reachable root that has no committed
// snapshot, so the auditor's restorability check shares the digest's walk.
func backupDigest(m *checkpoint.Manager, memory *mem.Memory, includeEternal bool, missing func(r *caps.ORoot)) uint64 {
	d := newDigest()
	committed := m.CommittedVersion()
	root := m.RootORoot()
	if root == nil || committed == 0 {
		return d.h
	}
	var seen caps.IDSet
	var visit func(r *caps.ORoot)
	visit = func(r *caps.ORoot) {
		if r == nil || !seen.Add(r.ObjID) {
			return
		}
		// Version numbers differ across checkpoint cadences, so only the
		// content is folded; the version keys the record-hash cache.
		snap, ver := r.LatestCommitted(committed)
		d.byte(byte(r.Kind))
		d.u64(r.ObjID)
		if snap == nil {
			d.byte(markNoSource)
			if missing != nil {
				missing(r)
			}
			return
		}
		s, ok := snap.(*caps.PMOSnap)
		if !ok {
			d.u64(r.Digest.Of(snap, ver, recordHash))
			switch s := snap.(type) {
			case *caps.CapGroupSnap:
				for _, bc := range s.Slots {
					visit(bc.Root)
				}
			case *caps.VMSpaceSnap:
				for i := range s.Regions {
					visit(s.Regions[i].PMORoot)
				}
			case *caps.IPCConnSnap:
				visit(s.ClientRoot)
				visit(s.ServerRoot)
			case *caps.NotificationSnap:
				for _, w := range s.Waiters {
					visit(w)
				}
			case *caps.IRQNotificationSnap:
				visit(s.HandlerRoot)
			}
			return
		}
		d.byte(byte(s.Type))
		d.u64(s.SizePages)
		if s.Type == caps.PMOEternal && !includeEternal {
			d.byte(markEternal)
			return
		}
		s.Pages.Walk(func(idx uint64, cp *caps.CkptPage) bool {
			if cp.Born > committed {
				return true // stillborn entry: not part of restorable state
			}
			d.u64(idx)
			switch src := restoreSource(cp, committed); src {
			case -1:
				d.byte(markSwapped)
			case -2:
				d.byte(markNoSource)
			default:
				d.byte(markContent)
				d.u64(memory.PageHash(cp.Page[src]))
			}
			return true
		})
	}
	visit(root)
	return d.h
}

// recordHash is the record hash of a non-PMO snapshot: the FNV-1a of the
// fields a restore revives, folded as objectHash folds the runtime object's.
func recordHash(snap caps.Snapshot) uint64 {
	d := newDigest()
	switch s := snap.(type) {
	case *caps.CapGroupSnap:
		d.str(s.Name)
		d.u64(uint64(len(s.Slots)))
		for _, bc := range s.Slots {
			if bc.Root == nil {
				d.u64(0)
				continue
			}
			d.u64(bc.Root.ObjID)
			d.byte(byte(bc.Rights))
		}
	case *caps.ThreadSnap:
		d.context(&s.Ctx, s.Sched, s.State)
	case *caps.VMSpaceSnap:
		d.u64(uint64(len(s.Regions)))
		for i := range s.Regions {
			rs := &s.Regions[i]
			d.u64(rs.VABase)
			d.u64(rs.NumPages)
			d.u64(rs.PMORoot.ObjID)
			d.u64(rs.PMOOffset)
			d.byte(byte(rs.Perm))
		}
	case *caps.IPCConnSnap:
		d.u64(rootID(s.ClientRoot))
		d.u64(rootID(s.ServerRoot))
		d.bytes(s.Buf)
		d.u64(s.Seq)
	case *caps.NotificationSnap:
		d.u64(uint64(int64(s.Count)))
		d.u64(uint64(len(s.Waiters)))
		for _, w := range s.Waiters {
			d.u64(rootID(w))
		}
	case *caps.IRQNotificationSnap:
		d.u64(uint64(int64(s.Line)))
		d.u64(uint64(s.Pending))
		d.u64(rootID(s.HandlerRoot))
	}
	return d.h
}

func rootID(r *caps.ORoot) uint64 {
	if r == nil {
		return 0
	}
	return r.ObjID
}

// Result is one audit's outcome.
type Result struct {
	// Where labels the audit point ("checkpoint", "restore", ...).
	Where string
	// RuntimeDigest and BackupDigest are the two state digests at the
	// audit instant.
	RuntimeDigest uint64
	BackupDigest  uint64
	// Violations lists every invariant breach found (empty = clean).
	Violations []string
}

// Ok reports whether the audit found no violations.
func (r Result) Ok() bool { return len(r.Violations) == 0 }

// Auditor checks cross-layer invariants of the checkpoint protocol. It is
// wired by the kernel and invoked after every checkpoint and restore when
// auditing is enabled.
type Auditor struct {
	Mem   *mem.Memory
	Alloc *alloc.Allocator
	Jrnl  *journal.Journal
	Ckpt  *checkpoint.Manager

	// Checks counts audits run; TotalViolations accumulates across them.
	Checks          uint64
	TotalViolations uint64

	// owners maps each live runtime frame to the PMO holding it, for the
	// alias check. Every Check of a live tree clears and refills it, so
	// its buckets are reused instead of rebuilt.
	owners map[mem.PageID]uint64
}

// Check runs every invariant against the current state and computes both
// digests. tree may be nil (crashed machine: only backup-side checks run).
func (a *Auditor) Check(tree *caps.Tree, where string) Result {
	res := Result{Where: where}
	bad := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}
	m := a.Ckpt
	committed := m.CommittedVersion()

	// Invariant 1: the in-memory committed version mirrors the durable
	// commit word — between operations they must agree. One exception:
	// under deferred commit publication (cluster consistent cut) the
	// word lawfully lags in-memory state by exactly the prepared round
	// until PublishCommit.
	if dv := m.DurableVersion(); dv != committed &&
		!(m.PreparedVersion() == committed && dv+1 == committed) {
		bad("%s: committed version %d != durable commit word %d", where, committed, dv)
	}

	// Invariant 2: no journal record may be pending between operations —
	// a pending record means a crashed protocol step leaked.
	if rec := a.Jrnl.PendingRecord(); rec != nil {
		bad("%s: journal record pending between operations (op=%v seq=%d)", where, rec.Op, rec.Seq)
	}

	// Invariant 3: no backup slot may be tagged above the committed
	// version once an operation completes (uncommitted tags are transient
	// inside TakeCheckpoint, scrubbed by restore).
	m.ForEachRoot(func(r *caps.ORoot) {
		for i := 0; i < 2; i++ {
			if r.Ver[i] > committed {
				bad("%s: object %d (%v) slot %d tagged v%d above committed v%d",
					where, r.ObjID, r.Kind, i, r.Ver[i], committed)
			}
			if r.Backup[i] == nil && r.Ver[i] != 0 {
				bad("%s: object %d slot %d has version %d but no snapshot", where, r.ObjID, i, r.Ver[i])
			}
		}
		if snap, ok := r.Backup[0].(*caps.PMOSnap); ok {
			a.checkPMOSnap(&res, where, r, snap, committed)
		}
	})

	// Invariant 4: every object reachable from the backup root must have
	// a committed snapshot (restorability). The backup digest's DFS
	// reaches exactly those roots, so it reports them as it folds.
	res.BackupDigest = backupDigest(m, a.Mem, true, func(r *caps.ORoot) {
		bad("%s: object %d (%v) reachable from backup root but has no committed snapshot",
			where, r.ObjID, r.Kind)
	})

	// Invariant 5: runtime page placement bookkeeping, checked by the
	// runtime digest's walk.
	if tree != nil {
		res.RuntimeDigest = a.checkRuntimePages(&res, where, tree)
	}

	// Invariant 6: the buddy allocator's free lists are structurally sound.
	if err := a.Alloc.CheckInvariants(); err != nil {
		bad("%s: allocator: %v", where, err)
	}

	a.Checks++
	a.TotalViolations += uint64(len(res.Violations))
	return res
}

// checkPMOSnap validates one checkpointed radix tree.
func (a *Auditor) checkPMOSnap(res *Result, where string, r *caps.ORoot, snap *caps.PMOSnap, committed uint64) {
	bad := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}
	nvmFrames := a.Mem.NVMFrames()
	snap.Pages.Walk(func(idx uint64, cp *caps.CkptPage) bool {
		for i := 0; i < 2; i++ {
			if cp.Ver[i] > committed {
				bad("%s: PMO %d page %d slot %d tagged v%d above committed v%d",
					where, r.ObjID, idx, i, cp.Ver[i], committed)
			}
			p := cp.Page[i]
			if p.IsNil() {
				continue
			}
			if p.Kind == mem.KindDRAM {
				bad("%s: PMO %d page %d slot %d points at volatile DRAM frame %d",
					where, r.ObjID, idx, i, p.Frame)
			}
			if p.Kind == mem.KindNVM && int(p.Frame) >= nvmFrames {
				bad("%s: PMO %d page %d slot %d frame %d out of NVM bounds (%d)",
					where, r.ObjID, idx, i, p.Frame, nvmFrames)
			}
		}
		if cp.Born <= committed && restoreSource(cp, committed) == -2 {
			bad("%s: PMO %d page %d (born v%d) has no restore source at committed v%d",
				where, r.ObjID, idx, cp.Born, committed)
		}
		return true
	})
}

// checkRuntimePages validates runtime page placement: mapped slots hold
// pages, no two slots alias a frame, and the manager's DRAM-cache count
// matches the tree. It checks each page as the runtime digest's walk
// reaches it, and returns that digest.
func (a *Auditor) checkRuntimePages(res *Result, where string, tree *caps.Tree) uint64 {
	bad := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}
	if a.owners == nil {
		a.owners = make(map[mem.PageID]uint64)
	}
	clear(a.owners)
	dram := 0
	digest := stateDigest(tree, a.Mem, func(pmo *caps.PMO, idx uint64, s *caps.PageSlot) {
		if s.SwappedOut {
			if !s.Page.IsNil() {
				bad("%s: PMO %d page %d swapped out but still holds frame %d",
					where, pmo.ID(), idx, s.Page.Frame)
			}
			return
		}
		if s.Page.IsNil() {
			bad("%s: PMO %d page %d mapped but holds no frame", where, pmo.ID(), idx)
			return
		}
		// Media invariant: a live runtime page must never carry poison
		// past a protocol boundary. Restore either verifies an adopted
		// source or rewrites the frame whole (which clears poison), so
		// poison here means a machine-check would fire on normal access.
		if a.Mem.Poisoned(s.Page, 0, mem.PageSize) {
			bad("%s: PMO %d page %d live runtime frame %v is poisoned",
				where, pmo.ID(), idx, s.Page)
		}
		if prev, dup := a.owners[s.Page]; dup {
			bad("%s: frame %v aliased by PMO %d page %d and object %d",
				where, s.Page, pmo.ID(), idx, prev)
		}
		a.owners[s.Page] = pmo.ID()
		if s.Page.Kind == mem.KindDRAM {
			dram++
		}
	})
	if cached := a.Ckpt.CachedPages(); dram != cached {
		bad("%s: %d DRAM pages in the tree but manager counts %d cached", where, dram, cached)
	}
	return digest
}
