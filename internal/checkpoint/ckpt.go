package checkpoint

import (
	"fmt"

	"treesls/internal/alloc"
	"treesls/internal/caps"
	"treesls/internal/mem"
	"treesls/internal/obs"
	"treesls/internal/simclock"
)

// QuiesceFunc models the residual non-interruptible kernel time of a core
// when the stop IPI arrives (cores are interrupted from user space or at
// syscall boundaries; a core inside the kernel finishes its short critical
// section first). The kernel supplies a deterministic pseudo-random function
// bounded by CostModel.MaxKernelSection.
type QuiesceFunc func(core int) simclock.Duration

// TakeCheckpoint performs one whole-system checkpoint (Figure 5, steps ❶-❺)
// and returns its report. lanes are the simulated core clocks; lanes[leader]
// runs the main checkpoint procedure while the others run hybrid copy in
// parallel. quiesce may be nil (zero residual kernel time).
func (m *Manager) TakeCheckpoint(lanes []*simclock.Lane, leader int, quiesce QuiesceFunc) Report {
	if m.tree == nil {
		panic("checkpoint: no runtime tree")
	}
	var rep Report
	round := m.committed + 1
	m.walkStamp++
	// A crash inside an earlier walk may have left its children stack
	// unpopped.
	m.popKids(0)
	rep.Version = round
	rep.Full = !m.HasCheckpoint()
	rep.FaultsLastEpoch = m.Stats.EpochFaults
	m.Stats.EpochFaults = 0

	ll := lanes[leader]

	// --- Step ❶: IPI broadcast and quiescence. -------------------------
	// All cores rendezvous at the latest lane time (idle cores simply
	// wait at the barrier), then each core needs IPI delivery, its
	// residual kernel section, and an acknowledgement.
	stwStart := ll.Now()
	for _, l := range lanes {
		if l.Now() > stwStart {
			stwStart = l.Now()
		}
	}
	ll.AdvanceTo(stwStart)
	ll.Charge(m.model.IPISend)
	quiescedAt := ll.Now()
	for i, l := range lanes {
		if i == leader {
			continue
		}
		l.AdvanceTo(ll.Now())
		var extra simclock.Duration
		if quiesce != nil {
			extra = quiesce(i)
			if extra > m.model.MaxKernelSection {
				extra = m.model.MaxKernelSection
			}
		}
		l.Charge(extra + m.model.IPIAckPerCore)
		if l.Now() > quiescedAt {
			quiescedAt = l.Now()
		}
	}
	for _, l := range lanes {
		l.AdvanceTo(quiescedAt)
	}
	rep.IPIWait = quiescedAt.Sub(stwStart)

	// --- Step ❷: checkpoint the capability tree. -----------------------
	// Parallel mode (the default on multi-core machines) partitions the
	// tree into subtree work units claimed by every lane through the
	// deterministic work queue (walk.go); the serial reference walk runs
	// entirely on the leader.
	parallel := m.cfg.ParallelWalk && len(lanes) > 1
	treeStart := ll.Now()
	if parallel {
		m.parallelWalk(lanes, leader, round, &rep)
	} else {
		m.rootORoot = m.checkpointObject(ll, m.tree.Root, round, &rep)
	}
	treeEnd := ll.Now()
	rep.CapTree = treeEnd.Sub(treeStart)
	if !parallel {
		rep.WalkWork = rep.CapTree
	}

	// --- Step ❸: other cores run hybrid copy in parallel. --------------
	// Each non-leader core walks a stride-partitioned sublist of the
	// active page list. With a single core, the leader does it serially.
	hybridStart := quiescedAt
	var hybridEnd simclock.Time
	if m.cfg.HybridCopy {
		workers := m.workers[:0]
		for i, l := range lanes {
			if i != leader {
				workers = append(workers, l)
			}
		}
		if len(workers) == 0 {
			workers = append(workers, ll)
		} else if parallel {
			// The copy overlaps the tail of the parallel walk: each
			// worker starts as soon as its own share of the walk is
			// done, so the earliest worker finish time opens the copy
			// window. (With the serial walk the workers never left the
			// quiescence barrier and this equals quiescedAt.)
			hybridStart = workers[0].Now()
			for _, w := range workers[1:] {
				if w.Now() < hybridStart {
					hybridStart = w.Now()
				}
			}
		}
		m.workers = workers
		hybridEnd = m.runHybridCopy(workers, hybridStart, round, &rep)
	}

	// --- Step ❹: atomic commit of the new checkpoint. ------------------
	othersStart := ll.Now()
	// Everything the round wrote (backup pages, rule-2 runtime sources,
	// replicas) was written back line-by-line as it went; one global
	// fence drains it all to durability before the version is published.
	m.fence(ll)
	// The ID counter must be saved before the commit word can possibly
	// persist: restoring a committed round with a stale counter would let
	// the revived tree reuse object IDs. (The converse staleness — a
	// too-new counter with an uncommitted round — only skips IDs.)
	m.savedNextID = m.tree.NextID()
	if m.cfg.DeferCommitPublish {
		// Deferred publication (the cluster consistent-cut protocol,
		// cut.go): the round is fully durable — every backup page,
		// record and replica is fenced — but the commit word stays at
		// the previous version until PublishCommit. A crash in this
		// window is indistinguishable from a crash just before the
		// commit word: the prepared slots carry an uncommitted version
		// tag and restore scrubs them. In-memory `committed` still
		// advances so runtime bookkeeping (COW tags, incremental
		// walks, callbacks) sees the new round.
		if m.pending.version != 0 {
			panic("checkpoint: preparing a round while a publish is still pending")
		}
		m.pending = pendingCommit{
			version: round,
			stamp:   m.walkStamp,
			frees:   len(m.deferredFrees),
			roots:   len(m.roots),
		}
		m.committed = round
	} else {
		m.commitVersion(ll, round)
		m.publishGC(ll, m.walkStamp, len(m.deferredFrees), true)
	}

	// External-synchrony checkpoint callbacks (§5): run by the leader
	// right after commit, before cores resume. This is the
	// release-on-commit hook: everything a driver buffered before this
	// round is now backed by persistent state and may leave the machine.
	releaseStart := ll.Now()
	for _, cb := range m.callbacks {
		ll.Charge(m.model.SyscallEntry)
		cb.OnCheckpoint(round, ll)
	}
	rep.Release = ll.Now().Sub(releaseStart)
	if m.traceOn() && len(m.callbacks) > 0 {
		m.obs.Trace.Span(ll.ID(), releaseStart, ll.Now(), "checkpoint", "release",
			obs.I("version", int64(round)), obs.I("callbacks", int64(len(m.callbacks))))
	}

	// --- Step ❺: resume. ------------------------------------------------
	ll.Charge(m.model.IPIResume)
	leaderEnd := ll.Now()
	rep.Others = leaderEnd.Sub(othersStart)

	stwEnd := leaderEnd
	if hybridEnd > stwEnd {
		stwEnd = hybridEnd
	}
	for _, l := range lanes {
		l.AdvanceTo(stwEnd)
	}
	rep.STWTotal = stwEnd.Sub(stwStart)
	if m.cfg.HybridCopy {
		rep.HybridCopy = hybridEnd.Sub(hybridStart)
	}
	rep.CachedPages = m.cached

	m.Stats.Checkpoints++
	m.LastReport = rep

	if m.traceOn() {
		tr := m.obs.Trace
		tid := ll.ID()
		tr.Span(tid, stwStart, quiescedAt, "checkpoint", "ipi-rendezvous")
		tr.Span(tid, treeStart, treeEnd, "checkpoint", "captree",
			obs.I("objects", int64(countObjects(&rep))))
		if m.cfg.HybridCopy {
			tr.Span(tid, hybridStart, hybridStart+simclock.Time(rep.HybridCopy), "checkpoint", "hybrid-copy",
				obs.I("migrated", int64(rep.Migrated)), obs.I("demoted", int64(rep.Demoted)),
				obs.I("dirty_dram_copied", int64(rep.DirtyDRAMCopied)))
		}
		tr.Span(tid, othersStart, leaderEnd, "checkpoint", "commit")
		tr.Span(tid, stwStart, stwEnd, "checkpoint", "checkpoint",
			obs.I("version", int64(rep.Version)), obs.I("full", b2i(rep.Full)),
			obs.I("faults_last_epoch", int64(rep.FaultsLastEpoch)))
	}
	m.met.stw.ObserveDur(rep.STWTotal)
	m.met.ipi.ObserveDur(rep.IPIWait)
	m.met.capTree.ObserveDur(rep.CapTree)
	m.met.walkWork.ObserveDur(rep.WalkWork)
	m.met.walkUnits.Add(uint64(rep.WalkUnits))
	m.met.walkSteals.Add(uint64(rep.WalkSteals))
	if m.cfg.HybridCopy {
		m.met.hybrid.ObserveDur(rep.HybridCopy)
	}
	m.met.commit.ObserveDur(rep.Others)
	m.met.dirtySet.Set(int64(rep.FaultsLastEpoch))
	m.met.cachedPages.Set(int64(rep.CachedPages))
	m.met.activeList.Set(int64(len(m.active)))

	return rep
}

// countObjects totals the per-kind object counts of a report.
func countObjects(rep *Report) int {
	n := 0
	for _, c := range rep.PerKindCount {
		n += c
	}
	return n
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// checkpointObject checkpoints o (if dirty) and recurses into the objects it
// references, charging lane. It implements the per-kind strategies of §4.1.
func (m *Manager) checkpointObject(lane *simclock.Lane, o caps.Object, round uint64, rep *Report) *caps.ORoot {
	r := m.resolve(lane, o)
	if r.SeenInRound(m.walkStamp) {
		return r
	}
	base := len(m.kids)
	m.visitResolved(lane, o, r, round, rep)
	// Walk this visit's window of the stack by index, re-reading every
	// entry: the nested visits push above end and may move the stack.
	for i, end := base, len(m.kids); i < end; i++ {
		if c := m.kids[i]; c != nil {
			m.checkpointObject(lane, c, round, rep)
		}
	}
	m.popKids(base)
	return r
}

// popKids truncates the children stack back to base, clearing the dropped
// entries so that the stack keeps no removed object alive.
func (m *Manager) popKids(base int) {
	clear(m.kids[base:])
	m.kids = m.kids[:base]
}

// visitResolved checkpoints the single object o (whose root r is already
// resolved and not yet seen this round) without descending, and pushes onto
// m.kids the children a full walk would recurse into, in visit order. Both
// checkpointObject and the parallel walk's shallow units are built on it.
func (m *Manager) visitResolved(lane *simclock.Lane, o caps.Object, r *caps.ORoot, round uint64, rep *Report) {
	r.MarkSeen(m.walkStamp)

	start := lane.Now()
	committed := m.committed
	_, latestVer := r.LatestCommitted(committed)
	needSnap := o.Dirty() || latestVer == 0
	full := latestVer == 0

	// resolveChild finds or creates the child's ORoot; the child itself
	// is checkpointed later. Recursion time must not pollute this
	// object's per-kind timing, so children are gathered first and
	// visited after the timing window closes.
	resolveChild := func(c caps.Object) *caps.ORoot {
		m.kids = append(m.kids, c)
		return m.resolve(lane, c)
	}

	switch obj := o.(type) {
	case *caps.CapGroup:
		if needSnap {
			ws := r.WriteSlot(committed)
			snap := m.snapshotSlot(r, ws, round, func() caps.Snapshot { return &caps.CapGroupSnap{} }).(*caps.CapGroupSnap)
			obj.Snapshot(snap, resolveChild)
			lane.Charge(simclock.Duration(len(snap.Slots)) * m.model.CapCopy)
			if full {
				m.Stats.BackupBytes += alloc.ClassCapGroup.Size() + 16*len(snap.Slots)
				lane.Charge(m.model.SlabAlloc)
			}
		} else {
			// Clean group: the checkpointer still scans the slot
			// array to detect changes (Table 3's incremental
			// CapGroup cost), and descends — children may be dirty.
			lane.Charge(simclock.Duration(obj.NumSlots()) * m.model.CapCopy / 4)
			obj.ForEach(func(_ int, c caps.Capability) { m.kids = append(m.kids, c.Obj) })
		}
	case *caps.Thread:
		if needSnap {
			ws := r.WriteSlot(committed)
			snap := m.snapshotSlot(r, ws, round, func() caps.Snapshot { return &caps.ThreadSnap{} }).(*caps.ThreadSnap)
			obj.Snapshot(snap)
			lane.Charge(m.model.ThreadCopy)
			if full {
				m.Stats.BackupBytes += alloc.ClassThread.Size()
				lane.Charge(m.model.SlabAlloc)
			}
		}
	case *caps.VMSpace:
		// Write-protect the newly-changed pages of the PMOs backing
		// this space (the paper attributes this page-table walk to VM
		// Space checkpointing, Figure 9b), then snapshot the region
		// list. The page table itself is never checkpointed.
		obj.ForEachRegion(func(reg *caps.VMRegion) {
			rep.PagesMarkedRO += m.writeProtectTouched(lane, reg.PMO)
		})
		if needSnap {
			ws := r.WriteSlot(committed)
			snap := m.snapshotSlot(r, ws, round, func() caps.Snapshot { return &caps.VMSpaceSnap{} }).(*caps.VMSpaceSnap)
			obj.Snapshot(snap, resolveChild)
			lane.Charge(simclock.Duration(len(snap.Regions)) * m.model.VMRegionCopy)
			if full {
				m.Stats.BackupBytes += alloc.ClassVMSpace.Size() + alloc.ClassVMRegion.Size()*len(snap.Regions)
				lane.Charge(m.model.SlabAlloc)
			}
		} else {
			// Clean space: scan the region list for changes.
			lane.Charge(simclock.Duration(obj.NumRegions()) * m.model.VMRegionCopy / 4)
			obj.ForEachRegion(func(reg *caps.VMRegion) { m.kids = append(m.kids, reg.PMO) })
		}
	case *caps.PMO:
		m.checkpointPMO(lane, obj, r, round, rep)
	case *caps.IPCConn:
		if needSnap {
			ws := r.WriteSlot(committed)
			snap := m.snapshotSlot(r, ws, round, func() caps.Snapshot { return &caps.IPCConnSnap{} }).(*caps.IPCConnSnap)
			obj.Snapshot(snap, resolveChild)
			lane.Charge(m.model.IPCObjCopy)
			if full {
				m.Stats.BackupBytes += alloc.ClassIPCConn.Size()
				lane.Charge(m.model.SlabAlloc)
			}
		}
	case *caps.Notification:
		if needSnap {
			ws := r.WriteSlot(committed)
			snap := m.snapshotSlot(r, ws, round, func() caps.Snapshot { return &caps.NotificationSnap{} }).(*caps.NotificationSnap)
			obj.Snapshot(snap, resolveChild)
			lane.Charge(m.model.NotifObjCopy + simclock.Duration(len(snap.Waiters))*m.model.CapCopy)
			if full {
				m.Stats.BackupBytes += alloc.ClassNotification.Size()
				lane.Charge(m.model.SlabAlloc)
			}
		}
	case *caps.IRQNotification:
		if needSnap {
			ws := r.WriteSlot(committed)
			snap := m.snapshotSlot(r, ws, round, func() caps.Snapshot { return &caps.IRQNotificationSnap{} }).(*caps.IRQNotificationSnap)
			obj.Snapshot(snap, resolveChild)
			lane.Charge(m.model.NotifObjCopy)
			if full {
				m.Stats.BackupBytes += alloc.ClassIRQNotification.Size()
				lane.Charge(m.model.SlabAlloc)
			}
		}
	default:
		panic(fmt.Sprintf("checkpoint: unknown object kind %T", o))
	}

	if needSnap && o.Kind() != caps.KindPMO && !m.cfg.DisableChecksums {
		// Digest the record just written (the slot tagged with this
		// round). PMO roots are excluded: their singleton snapshot is a
		// skeleton whose content is guarded by the per-page checksums.
		for i := 0; i < 2; i++ {
			if r.Ver[i] == round && r.Backup[i] != nil {
				r.Sum[i] = recordSum(r.Backup[i])
				lane.Charge(m.model.ChecksumRecord)
			}
		}
	}
	if needSnap {
		caps.ClearDirty(o)
	}
	elapsed := lane.Now().Sub(start)
	rep.PerKind[o.Kind()] += elapsed
	rep.PerKindCount[o.Kind()]++
	if needSnap {
		ts := &m.Stats.PerKind[o.Kind()]
		if full {
			ts.addFull(elapsed)
		} else {
			ts.addIncr(elapsed)
		}
	}
}

// snapshotSlot prepares backup slot ws of root r for a snapshot at version
// round, honouring eidetic retention, and returns the snapshot object to
// fill (reusing the previous allocation when possible — the paper's
// "subsequent checkpoints reuse many of the already established object
// structures").
func (m *Manager) snapshotSlot(r *caps.ORoot, ws int, round uint64, fresh func() caps.Snapshot) caps.Snapshot {
	if m.cfg.EideticVersions > 0 && r.Backup[ws] != nil && r.Ver[ws] > 0 {
		r.History = append(r.History, caps.HistoricSnapshot{Version: r.Ver[ws], Snap: r.Backup[ws]})
		if over := len(r.History) - m.cfg.EideticVersions; over > 0 {
			r.History = append(r.History[:0], r.History[over:]...)
		}
		r.Backup[ws] = nil
	}
	if r.Backup[ws] == nil {
		r.Backup[ws] = fresh()
	}
	r.Ver[ws] = round
	return r.Backup[ws]
}

// writeProtectTouched write-protects the NVM-resident touched pages of pmo,
// returning how many PTEs it flipped. (DRAM-cached hot pages deliberately
// stay writable; eternal PMOs are never protected.)
func (m *Manager) writeProtectTouched(lane *simclock.Lane, pmo *caps.PMO) int {
	if pmo.Type == caps.PMOEternal || m.cfg.Method == MethodStopAndCopy {
		return 0
	}
	n := 0
	for _, idx := range pmo.Touched {
		s := pmo.Lookup(idx)
		if s == nil || !s.Writable {
			continue
		}
		if s.Page.Kind == mem.KindDRAM {
			continue
		}
		s.Writable = false
		lane.Charge(m.model.MarkPageRO)
		n++
	}
	return n
}
