package checkpoint

import (
	"errors"
	"fmt"

	"treesls/internal/caps"
	"treesls/internal/journal"
	"treesls/internal/mem"
	"treesls/internal/obs"
	"treesls/internal/simclock"
)

// ErrNoCheckpoint reports a restore attempted with no recoverable commit
// record: either no checkpoint was ever committed, or both copies of the
// commit record failed validation. Fail-closed — a loud, attributable halt —
// is the designed response to total commit-record loss; guessing a version
// would turn media damage into silent corruption.
var ErrNoCheckpoint = errors.New("checkpoint: no committed checkpoint to restore")

// Restore rebuilds the whole system from the persistent world after a power
// failure (Figure 5, step ❼):
//
//  1. The allocator journal's pending record is resolved (with the
//     checkpoint-commit record handled here, since only the manager knows
//     whether the version bump happened) and the allocator op log is rolled
//     back, reverting all post-checkpoint malloc/free.
//  2. Every kernel object reachable from the backup root is revived from the
//     newest committed snapshot (two-phase: revive empty, then fill, so
//     references resolve regardless of graph shape). An object is revived
//     into the crashed runtime object its root still points at, reset in
//     place (caps.Revive), so a warm restore reuses the Go storage of the
//     objects it rebuilds; it reads only the backup tree and NVM.
//  3. PMO pages are rebuilt by the version rules of §4.2/§4.3.3: a backup
//     with version == global version wins; otherwise a version-zero second
//     backup (the unmodified runtime page); otherwise the newest committed
//     backup.
//
// It returns the restored runtime capability tree and the version restored
// to. The caller (the kernel) rebuilds derived state: page tables (lazily,
// via faults), scheduler queues, and address-space structures.
func (m *Manager) Restore(lane *simclock.Lane) (*caps.Tree, uint64, error) {
	restoreStart := lane.Now()
	// The durable truth for the committed version is the commit word in
	// the global metadata area, not the Go-side mirror: under ADR the
	// word of an in-flight commit may have been dropped at the power
	// failure, in which case the whole round is rolled back below.
	m.committed = m.readCommitWord()
	// A crash at the primary record's store, write-back or fence can
	// commit the round through the primary alone. Re-sync a mirror left
	// behind, uncharged like readCommitWord's repair and not counted in
	// MetaRepairs (a lag is not media damage), or a torn primary next
	// round would fall back below the version restored here.
	if mv, ok := m.readCommitSlot(commitMirrorPage()); ok && mv < m.committed {
		m.rewriteCommitSlot(commitMirrorPage(), m.committed)
	}
	// Mirror the device's crash-damage counters into the manager's
	// robustness stats (surfaced by treesls-inspect).
	m.Stats.TornLines = m.memory.Stats.CrashLinesTorn
	m.Stats.DroppedLines = m.memory.Stats.CrashLinesDropped

	// Step 1: allocator recovery.
	if rec := m.jrnl.PendingRecord(); rec != nil && rec.Op == journal.OpCheckpointCommit {
		if rec.Args[0] == m.committed {
			// The version bump hit NVM before the crash: the
			// checkpoint IS committed; redo the log truncation.
			m.alloc.TruncateLog()
		}
		m.jrnl.Retire(rec)
	}
	if _, err := m.alloc.Recover(); err != nil {
		return nil, 0, fmt.Errorf("checkpoint: allocator recovery: %w", err)
	}
	// Sever every backup-tree reference into a free frame — one the
	// rollback just reclaimed, or one a crashed post-commit collection
	// (deferred frees, unreachable sweep) had already released — before
	// anything can allocate (and so recycle) those frames. From here on a
	// slot that names an NVM frame owns it. This pass performs no
	// persistence events, so no crash can strand it half-done, and a
	// re-entered restore, whose Recover finds an empty op log, runs it
	// again.
	m.severFreed()
	if !m.HasCheckpoint() {
		return nil, 0, ErrNoCheckpoint
	}
	if m.rootORoot == nil {
		return nil, 0, fmt.Errorf("checkpoint: missing backup root")
	}
	// The manifest covers the whole recovery episode, not one attempt: a
	// restore that degrades a page, publishes the replacement slot, and then
	// crashes has permanently changed what this version restores to — the
	// re-entered restore finds an intact rule-2 slot and records nothing.
	// Keeping the interrupted attempt's entries is the only way the final
	// manifest still names every page that is not bit-identical to its
	// original commit. (Re-derived entries may duplicate; readers treat the
	// manifest as a set.)
	if !m.restoreInFlight || m.LastManifest == nil || m.LastManifest.Version != m.committed {
		m.LastManifest = &RestoreManifest{Version: m.committed}
	}
	m.restoreInFlight = true

	// Runtime bookkeeping is volatile: reset it. Deferred frees are
	// dropped rather than processed — the rollback may have revived the
	// state that referenced those frames (the frames leak, bounded by
	// one epoch's frees).
	m.active = m.active[:0]
	m.cached = 0
	m.deferredFrees = m.deferredFrees[:0]
	m.pending = pendingCommit{}
	m.Stats.EpochFaults = 0

	// Step 2a: discover reachable roots and revive each one's runtime
	// object empty, in place when the root still points at one.
	m.discovered.Reset()
	m.order = m.order[:0]
	clear(m.refs) // a crashed restore may have left its stack behind
	m.refs = m.refs[:0]
	m.scrubUncommittedTags()
	if err := m.discover(lane, m.rootORoot); err != nil {
		return nil, 0, err
	}

	// Step 2b: fill each object from its snapshot; step 3 for PMOs.
	lookup := func(r *caps.ORoot) caps.Object {
		if !m.discovered.Has(r.ObjID) {
			panic(fmt.Sprintf("checkpoint: restore reference to undiscovered object %d", r.ObjID))
		}
		return r.Runtime
	}
	for _, r := range m.order {
		snap, _ := r.LatestCommitted(m.committed)
		start := lane.Now()
		lane.Charge(m.model.RestoreObject)
		switch s := snap.(type) {
		case *caps.CapGroupSnap:
			r.Runtime.(*caps.CapGroup).RestoreFrom(s, lookup)
			lane.Charge(simclock.Duration(len(s.Slots)) * m.model.CapCopy)
		case *caps.ThreadSnap:
			r.Runtime.(*caps.Thread).RestoreFrom(s)
			lane.Charge(m.model.ThreadCopy)
		case *caps.VMSpaceSnap:
			r.Runtime.(*caps.VMSpace).RestoreFrom(s, lookup)
			lane.Charge(simclock.Duration(len(s.Regions)) * m.model.VMRegionCopy)
		case *caps.PMOSnap:
			if err := m.restorePMOPages(lane, r.Runtime.(*caps.PMO), s); err != nil {
				return nil, 0, err
			}
		case *caps.IPCConnSnap:
			r.Runtime.(*caps.IPCConn).RestoreFrom(s, lookup)
			lane.Charge(m.model.IPCObjCopy)
		case *caps.NotificationSnap:
			r.Runtime.(*caps.Notification).RestoreFrom(s, lookup)
			lane.Charge(m.model.NotifObjCopy)
		case *caps.IRQNotificationSnap:
			r.Runtime.(*caps.IRQNotification).RestoreFrom(s, lookup)
			lane.Charge(m.model.NotifObjCopy)
		default:
			return nil, 0, fmt.Errorf("checkpoint: unknown snapshot type %T", snap)
		}
		m.Stats.PerKind[r.Kind].addRestore(lane.Now().Sub(start))
	}

	root, ok := m.rootORoot.Runtime.(*caps.CapGroup)
	if !ok {
		return nil, 0, fmt.Errorf("checkpoint: backup root is not a cap group")
	}
	m.tree = caps.RebuildTree(root, m.savedNextID)
	m.Stats.Restores++

	// Pages copied during the restore (the new version-zero runtime
	// slots) were written back as they went; drain them so a crash after
	// this restore finds durable rule-2 sources.
	m.fence(lane)

	// External-synchrony restore callbacks (§5).
	for _, cb := range m.callbacks {
		lane.Charge(m.model.SyscallEntry)
		cb.OnRestore(m.committed, lane)
	}

	m.restoreInFlight = false
	m.met.restores.Inc()
	m.met.restore.ObserveDur(lane.Now().Sub(restoreStart))
	if m.traceOn() {
		m.obs.Trace.Span(lane.ID(), restoreStart, lane.Now(), "checkpoint", "restore",
			obs.I("version", int64(m.committed)), obs.I("objects", int64(len(m.order))))
	}
	return m.tree, m.committed, nil
}

// discover marks root r and everything its newest committed snapshot
// reaches as discovered, in depth-first order, appending each to m.order
// and reviving its runtime object empty (caps.Revive). The references of
// each snapshot go on m.refs, and each call walks its own window of it.
func (m *Manager) discover(lane *simclock.Lane, r *caps.ORoot) error {
	if r == nil || !m.discovered.Add(r.ObjID) {
		return nil
	}
	// Verify the record digest of the snapshot the restore would use; a
	// corrupt record degrades to the older committed slot, exactly like a
	// corrupt backup page degrades to an older version. (PMO skeletons
	// carry no digest — their content is page-checksummed.)
	if r.Kind != caps.KindPMO && !m.cfg.DisableChecksums {
		for {
			s2, v2 := r.LatestCommitted(m.committed)
			if s2 == nil {
				break
			}
			slot := -1
			for i := range r.Backup {
				if r.Backup[i] == s2 && r.Ver[i] == v2 {
					slot = i
				}
			}
			if slot < 0 {
				break
			}
			lane.Charge(m.model.ChecksumRecord)
			if recordSum(s2) == r.Sum[slot] {
				break
			}
			r.Backup[slot] = nil
			r.Ver[slot] = 0
			r.Sum[slot] = 0
			m.Stats.DegradedObjects++
		}
	}
	snap, _ := r.LatestCommitted(m.committed)
	if snap == nil {
		return fmt.Errorf("checkpoint: object %d (%v) reachable but has no intact committed snapshot", r.ObjID, r.Kind)
	}
	obj := caps.Revive(r.Runtime, r.ObjID, snap)
	caps.BindORoot(obj, r)
	r.Runtime = obj
	m.order = append(m.order, r)
	base := len(m.refs)
	m.refs = appendSnapshotRefs(m.refs, snap)
	// Re-read every entry: nested discoveries push above end and may move
	// the stack.
	for i, end := base, len(m.refs); i < end; i++ {
		if err := m.discover(lane, m.refs[i]); err != nil {
			return err
		}
	}
	clear(m.refs[base:])
	m.refs = m.refs[:base]
	return nil
}

// scrubUncommittedTags zeroes, on every root, the snapshot tags above the
// committed version that the crashed round left: the retry reuses that
// round number and skips clean objects, trusting whatever carries it to be
// its own capture. A non-PMO snapshot is dropped with its tag. A PMO keeps
// its skeleton in slot 0: a reachable PMO's tag is its committed creation
// round, never scrubbed, and the next commit's sweepUnreachable frees an
// unreachable one's pages through the skeleton. The scrub is uncharged.
func (m *Manager) scrubUncommittedTags() {
	for _, r := range m.roots {
		for i := range r.Backup {
			if r.Ver[i] <= m.committed {
				continue
			}
			if r.Kind != caps.KindPMO {
				r.Backup[i] = nil
			}
			r.Ver[i], r.Sum[i] = 0, 0
		}
	}
}

// appendSnapshotRefs appends the ORoots a snapshot references to refs and
// returns the extended slice.
func appendSnapshotRefs(refs []*caps.ORoot, snap caps.Snapshot) []*caps.ORoot {
	add := func(r *caps.ORoot) {
		if r != nil {
			refs = append(refs, r)
		}
	}
	switch s := snap.(type) {
	case *caps.CapGroupSnap:
		for _, bc := range s.Slots {
			add(bc.Root)
		}
	case *caps.VMSpaceSnap:
		for i := range s.Regions {
			add(s.Regions[i].PMORoot)
		}
	case *caps.IPCConnSnap:
		add(s.ClientRoot)
		add(s.ServerRoot)
	case *caps.NotificationSnap:
		refs = append(refs, s.Waiters...)
	case *caps.IRQNotificationSnap:
		add(s.HandlerRoot)
	}
	return refs
}

// Sentinel results of RestoreSource beyond slot indices 0 and 1.
const (
	srcNone = -1 // no recoverable copy (uncommitted-only page)
	srcSwap = -2 // the consistent copy lives on the swap device
)

// nvmSlot reports whether a checkpoint-page slot holds a frame: any non-nil
// NVM page. Restore's severFreed unlinks every slot that points into a free
// frame before anything allocates, so a slot that passes owns its frame.
func nvmSlot(p mem.PageID) bool { return !p.IsNil() && p.Kind == mem.KindNVM }

// RestoreSource applies the version rules of §4.2/§4.3.3 to one
// checkpointed page and returns the copy a restore reads for the committed
// version: a slot index (0 or 1), or srcSwap (-2) when the consistent copy
// is swapped out, or srcNone (-1) when there is none. Restore, capture,
// scrub and fault injection share it; the audit digest keeps its own
// independent copy as the oracle. Pure function; property-tested in
// isolation.
func RestoreSource(cp *caps.CkptPage, committed uint64) int {
	// Rule 1: a backup whose version equals the global version.
	for i := 0; i < 2; i++ {
		if nvmSlot(cp.Page[i]) && cp.Ver[i] == committed && cp.Ver[i] != 0 {
			return i
		}
	}
	// Swapped pages: the device copy supersedes anything older.
	if cp.Swap != 0 {
		return srcSwap
	}
	// Rule 2: a version-zero second backup is the unmodified runtime page.
	if nvmSlot(cp.Page[1]) && cp.Ver[1] == 0 {
		return 1
	}
	// Rule 3: the newest committed backup.
	src, best := srcNone, uint64(0)
	for i := 0; i < 2; i++ {
		if nvmSlot(cp.Page[i]) && cp.Ver[i] != 0 && cp.Ver[i] <= committed && cp.Ver[i] > best {
			src, best = i, cp.Ver[i]
		}
	}
	return src
}

// restorePMOPages rebuilds the runtime page set of a PMO by the version
// rules. For each checkpointed page it selects the consistent source:
//
//	rule 1: a backup whose version equals the global version (the page was
//	        modified after the checkpoint; the backup holds the
//	        pre-modification content saved by the fault handler);
//	rule 2: otherwise a second backup with version zero (the unmodified
//	        runtime page itself, which NVM kept intact);
//	rule 3: otherwise the backup with the higher (committed) version — the
//	        DRAM-cached-page case, where the runtime copy died with DRAM.
//
// Restoration is non-destructive to version information, so a crash in the
// middle of a restore simply restarts it (idempotence).
func (m *Manager) restorePMOPages(lane *simclock.Lane, pmo *caps.PMO, snap *caps.PMOSnap) error {
	var fail error
	var stillborn []uint64
	snap.Pages.Walk(func(idx uint64, cp *caps.CkptPage) bool {
		lane.Charge(m.model.RestorePerPage)
		if cp.Born > m.committed {
			// The entry was created inside a round that never
			// committed: the page does not belong to the restored
			// state. Remove the entry — if it merely stayed behind,
			// the retried round would commit it (Born aliases the
			// reused round number) with slots pointing at frames the
			// rollback reclaimed and that may since belong to someone
			// else.
			stillborn = append(stillborn, idx)
			return true
		}
		// Backup slots written by the crashed round carry its version
		// tag, which the retried round will reuse — scrub them, or a
		// later restore would read a stale capture through rule 1, and
		// their frames go back to the allocator.
		m.scrubUncommittedSlots(lane, cp)
		src := RestoreSource(cp, m.committed)
		if src == srcSwap {
			// Swapped-out page (§8 over-commitment): the
			// consistent content lives on the swap device; revive
			// the page as a swapped-out placeholder and let a
			// fault bring it back. Any runtime pointer left behind
			// is cleared.
			cp.Page[1] = mem.NilPage
			cp.Ver[1] = 0
			pmo.InstallSwapped(idx)
			return true
		}

		// Every restore read is verified — poison check always, digest
		// check unless disabled — whichever rule chose the source. A
		// corrupt chosen source degrades to the other slot's older
		// committed version. The committed state names this page, so one
		// with no intact version left, or no surviving slot at all (a
		// crashed lostPage cleared the corrupt slots but died before
		// publishing their replacement, or scrub quarantined every copy),
		// is lost: skipping it would leave reads returning demand-zeros
		// with nothing in the manifest. The restore never aborts on media
		// damage and never installs unverified bytes.
		lost := src == srcNone
		if !lost && !m.verifySource(lane, cp.Page[src]) {
			alt := 1 - src
			if nvmSlot(cp.Page[alt]) && cp.Ver[alt] != 0 && cp.Ver[alt] <= m.committed &&
				m.verifySource(lane, cp.Page[alt]) {
				// Graceful degradation: fall back to the older
				// committed version — never to a version-zero
				// runtime slot, which (under rule 1) holds
				// post-checkpoint modifications. The restored page
				// is stale by one or more rounds, which beats
				// failing the whole restore.
				m.LastManifest.Degraded = append(m.LastManifest.Degraded, DegradedPage{
					PMO: pmo.ID(), Index: idx,
					WantVersion: m.committed, GotVersion: cp.Ver[alt],
				})
				src = alt
				m.Stats.DegradedRestores++
				m.met.degraded.Inc()
			} else {
				lost = true
			}
		}

		switch {
		case lost:
			// Rebuild the page as explicit zeros and name it.
			if err := m.lostPage(lane, pmo, idx, cp); err != nil {
				fail = err
				return false
			}
		case src == 1 && cp.Ver[1] == 0:
			// The runtime NVM page is the consistent copy; adopt it
			// directly, no copying.
		default:
			// Copy the consistent backup into the other slot, which
			// becomes the new runtime page (version zero). An empty
			// other slot gets a fresh frame; a crash before its
			// publication merely leaks it.
			other := 1 - src
			dst := cp.Page[other]
			fresh := !nvmSlot(dst)
			if fresh {
				p, err := m.alloc.AllocPageCkpt(lane)
				if err != nil {
					fail = fmt.Errorf("checkpoint: allocating restore page: %w", err)
					return false
				}
				dst = p
			}
			lane.Charge(m.memory.CopyPage(dst, cp.Page[src]))
			m.publishRuntime(lane, pmo, cp, other, dst)
			if fresh {
				m.Stats.BackupPages++
			}
		}

		s := pmo.InstallPage(idx, cp.Page[1])
		s.Writable = pmo.Type == caps.PMOEternal
		s.Dirty = false
		return true
	})
	for _, idx := range stillborn {
		if cp, ok := snap.Pages.Get(idx); ok {
			m.scrubUncommittedSlots(lane, cp)
			snap.Pages.Delete(idx)
		}
	}
	// InstallPage filled Touched/dirty bookkeeping; a freshly restored PMO
	// is clean and fully synced with its snapshot.
	pmo.Touched = pmo.Touched[:0]
	caps.ClearDirty(pmo)
	return fail
}

// severFreed unlinks every checkpoint-page slot that points into a free
// frame. Two kinds of frame qualify: those the allocator rollback
// reclaimed, and those a crash stopped the post-commit collection after
// releasing — their slots stay filed under the roots the next sweep will
// visit again, which must not free them twice. The frames are already free
// — only the stale pointers are cleared, never the frames themselves. It is
// the one guard against stale frame pointers: afterwards every slot that
// names an NVM frame owns it, whatever the frame's rollback history. Pure
// metadata mutation: no journal, flush, or fence, hence no crash window.
func (m *Manager) severFreed() {
	for _, r := range m.roots {
		for bi := range r.Backup {
			snap, ok := r.Backup[bi].(*caps.PMOSnap)
			if !ok {
				continue
			}
			snap.Pages.Walk(func(_ uint64, cp *caps.CkptPage) bool {
				for i := 0; i < 2; i++ {
					p := cp.Page[i]
					if !nvmSlot(p) || !m.alloc.IsFree(p.Frame) {
						continue
					}
					m.forgetFrame(p)
					cp.Page[i] = mem.NilPage
					cp.Ver[i] = 0
				}
				return true
			})
		}
	}
}

// scrubUncommittedSlots clears every slot of cp whose version tag belongs to
// a round newer than the committed one — state written by the crashed,
// never-committed round — and frees the frames they name: checkpoint-owned
// backup allocations, or old runtime frames retagged by a hybrid-copy
// migration. No slot names a rolled-back frame here: severFreed unlinked
// them all.
func (m *Manager) scrubUncommittedSlots(lane *simclock.Lane, cp *caps.CkptPage) {
	slot0 := cp.Page[0]
	for i := 0; i < 2; i++ {
		if cp.Ver[i] <= m.committed {
			continue
		}
		p := cp.Page[i]
		cp.Page[i] = mem.NilPage
		cp.Ver[i] = 0
		if !nvmSlot(p) {
			continue
		}
		if i == 1 && slot0 == p {
			// Aliased slots: slot 0 either already freed the frame
			// (both stale) or still references it (committed).
			continue
		}
		m.freeBackup(lane, p)
	}
}

// publishRuntime publishes p, which restore or a swap-in just filled with
// one page's committed content, as the page's version-zero runtime copy in
// slot slot of cp. It writes p back and fences before the tag: the next
// restore's rule 2 trusts a version-zero slot as committed content, and
// under ADR a crash before the fence reverts the frame, handing that
// restore stale bytes behind a trusted tag. The copy ends in slot 1, the
// runtime slot (the slots swap when it landed in slot 0), and is sealed
// unless the PMO is eternal; a reused slot's replica of an older backup is
// dropped, not refreshed, because refreshing here made the media campaign
// restore silently corrupt pages under COW.
func (m *Manager) publishRuntime(lane *simclock.Lane, pmo *caps.PMO, cp *caps.CkptPage, slot int, p mem.PageID) {
	m.flushPage(lane, p)
	m.fence(lane)
	cp.Page[slot] = p
	cp.Ver[slot] = 0
	if slot == 0 {
		cp.Page[0], cp.Page[1] = cp.Page[1], cp.Page[0]
		cp.Ver[0], cp.Ver[1] = cp.Ver[1], cp.Ver[0]
	}
	if pmo.Type != caps.PMOEternal {
		m.sealPage(lane, p, checkReplica)
	}
}

// ---- Restore manifest (media-fault tolerance) ------------------------------

// RestoreManifest is the explicit account of everything the last restore
// could NOT rebuild bit-identically. It is the "never silently corrupt"
// contract: every restored page is either exactly the committed content, or
// listed here — degraded (an older committed version was installed) or lost
// (no intact version survived; the page was restored as deterministic
// zeros). Entries appear in backup-tree walk order, so identical damage
// yields an identical manifest.
type RestoreManifest struct {
	// Version is the checkpoint version the restore targeted.
	Version  uint64
	Degraded []DegradedPage
	Lost     []LostPage
}

// Clean reports whether the restore reproduced every page bit-identically.
func (r *RestoreManifest) Clean() bool {
	return r == nil || (len(r.Degraded) == 0 && len(r.Lost) == 0)
}

// DegradedPage names one page restored from an older committed version
// because its newest copy was corrupt beyond repair.
type DegradedPage struct {
	PMO, Index  uint64
	WantVersion uint64 // the version the page should carry
	GotVersion  uint64 // the older committed version actually installed
}

// LostPage names one page with no intact retained version: it was restored
// as a zero-filled frame.
type LostPage struct {
	PMO, Index uint64
}

// Manifest returns the manifest of the most recent restore (nil before the
// first restore).
func (m *Manager) Manifest() *RestoreManifest { return m.LastManifest }

// lostPage rebuilds a page whose every retained copy is poisoned or fails
// its digest: the corrupt slots are released (their frames healed on the
// way back to the pool, modeling page retirement + re-ECC), and a fresh
// zero-filled frame is installed as the version-zero runtime slot. The
// restored system reads deterministic zeros — never garbage — and the page
// is named in the restore manifest.
func (m *Manager) lostPage(lane *simclock.Lane, pmo *caps.PMO, idx uint64, cp *caps.CkptPage) error {
	slot0 := cp.Page[0]
	for i := 0; i < 2; i++ {
		p := cp.Page[i]
		cp.Page[i] = mem.NilPage
		cp.Ver[i] = 0
		if !nvmSlot(p) {
			continue
		}
		if i == 1 && p == slot0 {
			continue // aliased slots: freed once via slot 0
		}
		m.memory.ClearPoison(p, 0, mem.PageSize)
		m.freeBackup(lane, p)
	}
	p, err := m.alloc.AllocPageCkpt(lane)
	if err != nil {
		return fmt.Errorf("checkpoint: allocating replacement for lost page: %w", err)
	}
	m.memory.ZeroPage(p)
	lane.Charge(m.model.NVMWritePage)
	m.publishRuntime(lane, pmo, cp, 1, p)
	m.Stats.BackupPages++
	m.Stats.LostPages++
	m.met.lostPages.Inc()
	m.LastManifest.Lost = append(m.LastManifest.Lost, LostPage{PMO: pmo.ID(), Index: idx})
	if m.traceOn() {
		m.obs.Trace.Instant(lane.ID(), lane.Now(), "checkpoint", "lost-page",
			obs.I("pmo", int64(pmo.ID())), obs.I("idx", int64(idx)))
	}
	return nil
}
