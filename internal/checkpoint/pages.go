package checkpoint

import (
	"fmt"

	"treesls/internal/alloc"
	"treesls/internal/caps"
	"treesls/internal/mem"
	"treesls/internal/obs"
	"treesls/internal/simclock"
)

// pmoSnap returns (creating on demand) the singleton PMOSnap of r. Unlike
// other object kinds, a PMO keeps ONE long-lived backup structure whose
// pages carry their own versions (§4.2); slot 0 holds it. The snapshot's
// slot version is set once, to the round that created it, and never
// advanced: advancing it would un-commit the PMO if a later round crashed
// mid-checkpoint, while page-level versions already carry all content
// history the restore rules need.
func (m *Manager) pmoSnap(lane *simclock.Lane, r *caps.ORoot, pmo *caps.PMO, round uint64) *caps.PMOSnap {
	if r.Backup[0] == nil {
		lane.Charge(m.model.SlabAlloc)
		m.Stats.BackupBytes += alloc.ClassPMO.Size()
		r.Backup[0] = &caps.PMOSnap{Type: pmo.Type, SizePages: pmo.SizePages}
		r.Ver[0] = round
	}
	return r.Backup[0].(*caps.PMOSnap)
}

// checkpointPMO checkpoints one PMO during the STW pause: it reuses the
// checkpointed radix tree, adding entries for pages touched since the last
// round. Page *contents* are not copied here — the runtime NVM page doubles
// as the consistent copy (Figure 6a), and DRAM-cached pages are
// stop-and-copied by the hybrid-copy cores.
func (m *Manager) checkpointPMO(lane *simclock.Lane, pmo *caps.PMO, r *caps.ORoot, round uint64, rep *Report) {
	snap := m.pmoSnap(lane, r, pmo, round)
	snap.SizePages = pmo.SizePages
	nodesBefore := snap.Pages.Nodes()

	// Incremental root visit (Table 3: PMO incremental ~0.03 µs).
	lane.Charge(m.model.RadixVisit)

	// Eternal PMOs are never write-protected, so their dirty pages never
	// enter Touched: under ADR their in-cache stores must be written back
	// here or the runtime page (their only restore source) would lose
	// them at the crash. Eternal state has always-current semantics — no
	// rollback guarantee — but what restore reads must at least be the
	// bytes that were durable at the last checkpoint.
	if pmo.Type == caps.PMOEternal && m.cfg.Method != MethodStopAndCopy && m.memory.Mode() == mem.ModeADR {
		pmo.ForEachPage(func(idx uint64, s *caps.PageSlot) bool {
			if s.Dirty && s.Page.Kind == mem.KindNVM {
				m.flushPage(lane, s.Page)
				s.Dirty = false
			}
			return true
		})
	}

	if m.cfg.Method == MethodStopAndCopy {
		m.stopAndCopyPMO(lane, pmo, snap, round, rep)
		if grown := snap.Pages.Nodes() - nodesBefore; grown > 0 {
			m.Stats.BackupBytes += alloc.ClassRadixNode.Size() * grown
		}
		caps.ClearDirty(pmo)
		return
	}

	for _, idx := range pmo.Touched {
		s := pmo.Lookup(idx)
		cp := m.ckptPage(lane, snap, idx, round)
		if s.Page.Kind == mem.KindDRAM {
			continue // hybrid copy owns cached pages
		}
		// The runtime NVM page becomes "the second backup with
		// version zero" (§4.3.3): it is the consistent copy for the
		// version being committed, because it is write-protected now
		// and was saved to Page[0] by any fault that modified it. Its
		// epoch's stores may still sit in the CPU caches, so it is
		// written back here (drained by the round's pre-commit fence).
		cp.Page[1] = s.Page
		cp.Ver[1] = 0
		m.flushPage(lane, s.Page)
		if pmo.Type != caps.PMOEternal {
			// This commit re-establishes the page as a rule-2 restore
			// source; re-digest it here (it is write-protected until
			// the next fault, so the digest stays true). Eternal pages
			// keep always-current semantics — they are written without
			// faults, so a digest would go stale; they get the poison
			// check only.
			m.sealPage(lane, s.Page, checkReplica)
		} else {
			m.forgetFrame(s.Page)
		}
		m.releaseSwapSlot(cp) // this round supersedes any swapped content
		if pmo.Type != caps.PMOEternal && s.Writable {
			// Fallback protection for PMOs not mapped in any VM
			// space (the VMSpace pass normally did this).
			s.Writable = false
			lane.Charge(m.model.MarkPageRO)
			rep.PagesMarkedRO++
		}
		s.Dirty = false
	}
	pmo.Touched = pmo.Touched[:0]

	if grown := snap.Pages.Nodes() - nodesBefore; grown > 0 {
		m.Stats.BackupBytes += alloc.ClassRadixNode.Size() * grown
	}
	caps.ClearDirty(pmo)
}

// ckptPage returns the checkpointed-radix entry of page idx, creating one
// born at round when the page has none yet.
func (m *Manager) ckptPage(lane *simclock.Lane, snap *caps.PMOSnap, idx, round uint64) *caps.CkptPage {
	if cp, ok := snap.Pages.Get(idx); ok {
		lane.Charge(m.model.RadixVisit)
		return cp
	}
	cp := &caps.CkptPage{Born: round}
	snap.Pages.Set(idx, cp)
	lane.Charge(m.model.RadixInsert)
	m.Stats.BackupBytes += alloc.ClassCheckpointedPage.Size()
	return cp
}

// copyBackup copies src into backup slot slot of cp — giving the slot a
// frame first if it has none — writes the copy back and seals it under the
// given replica policy. It is the one backup copy of the checkpoint
// protocol, made by the COW fault, stop-and-copy, the dirty-DRAM copy, the
// demotion and the scrub repair. Publishing the slot's version stays with
// the caller: the STW copiers leave the write-back to the round's
// pre-commit fence, and the COW fault fences before it tags the copy.
func (m *Manager) copyBackup(lane *simclock.Lane, cp *caps.CkptPage, slot int, src mem.PageID, replica bool) error {
	if cp.Page[slot].IsNil() {
		p, err := m.alloc.AllocPageCkpt(lane)
		if err != nil {
			return err
		}
		cp.Page[slot] = p
		m.Stats.BackupPages++
	}
	lane.Charge(m.memory.CopyPage(cp.Page[slot], src))
	m.flushPage(lane, cp.Page[slot])
	m.sealPage(lane, cp.Page[slot], replica)
	m.Stats.PagesCopied++
	m.met.pagesCopied.Inc()
	return nil
}

// stopAndCopyPMO checkpoints a PMO under MethodStopAndCopy: every dirty page
// (hardware dirty bit) is copied into a versioned backup during the pause.
// Pages are never write-protected, so there are no runtime faults — the cost
// moves wholesale into the STW window, which is exactly the trade-off
// Figure 7 illustrates.
func (m *Manager) stopAndCopyPMO(lane *simclock.Lane, pmo *caps.PMO, snap *caps.PMOSnap, round uint64, rep *Report) {
	pmo.Touched = pmo.Touched[:0]
	if pmo.Type == caps.PMOEternal {
		// Eternal pages still need radix entries pointing at the
		// runtime page so restore can find them.
		pmo.ForEachPage(func(idx uint64, s *caps.PageSlot) bool {
			cp, ok := snap.Pages.Get(idx)
			if !ok {
				cp = &caps.CkptPage{Born: round}
				snap.Pages.Set(idx, cp)
				lane.Charge(m.model.RadixInsert)
			}
			cp.Page[1] = s.Page
			cp.Ver[1] = 0
			if s.Page.Kind == mem.KindNVM {
				m.flushPage(lane, s.Page)
			}
			m.forgetFrame(s.Page) // eternal: always-current, never digested
			return true
		})
		return
	}
	pmo.ForEachPage(func(idx uint64, s *caps.PageSlot) bool {
		lane.Charge(m.model.PageTableWalk) // dirty-bit scan
		if !s.Dirty {
			return true
		}
		cp := m.ckptPage(lane, snap, idx, round)
		ws := m.backupWriteSlot(cp)
		if cp.Page[ws] == s.Page {
			// A restore adopted this backup frame as the runtime page
			// (the version-zero slot doubles as the runtime frame after
			// recovery). That aliasing is sound under COW — the page is
			// write-protected, and a fault copies the content out before
			// the first store lands — but stop-and-copy pages stay
			// writable, so tagging the shared frame as this round's
			// backup would let post-commit stores mutate a committed
			// backup behind its digest. Drop the alias (the frame stays
			// owned by the runtime slot) and copy into a fresh frame.
			cp.Page[ws] = mem.NilPage
			cp.Ver[ws] = 0
			m.forgetFrame(s.Page)
		}
		if m.copyBackup(lane, cp, ws, s.Page, refreshReplica) != nil {
			return true // out of NVM: page stays dirty, retried next round
		}
		cp.Ver[ws] = round
		s.Dirty = false
		rep.PagesStopCopied++
		m.met.stopCopied.Inc()
		if m.traceOn() {
			m.obs.Trace.Instant(lane.ID(), lane.Now(), "page", "stop-copy",
				obs.I("pmo", int64(pmo.ID())), obs.I("idx", int64(idx)))
		}
		return true
	})
}

// MaterializePage services a first-touch fault: it allocates an NVM page,
// zeroes it (a recycled frame may hold a previous owner's bytes), and
// installs it into the PMO. With HandleWriteFault and SwapIn (swap.go) it
// makes the manager the vm.FaultOps of every address space.
func (m *Manager) MaterializePage(lane *simclock.Lane, pmo *caps.PMO, idx uint64) (*caps.PageSlot, error) {
	p, err := m.alloc.AllocPage(lane)
	if err != nil {
		return nil, err
	}
	m.memory.ZeroPage(p)
	lane.Charge(m.model.NVMWritePage)
	return pmo.InstallPage(idx, p), nil
}

// HandleWriteFault implements the copy-on-write step (Figure 5 ❻): the
// pre-modification page content — which is exactly the content of the last
// committed checkpoint, since the page was write-protected — is copied to
// the backup page with the current global version, then the page is made
// writable again. It also feeds the hotness tracking of hybrid copy.
func (m *Manager) HandleWriteFault(lane *simclock.Lane, pmo *caps.PMO, idx uint64, s *caps.PageSlot) error {
	r := pmo.ORoot()
	if r == nil || r.Backup[0] == nil {
		return fmt.Errorf("checkpoint: write fault on never-checkpointed PMO %d", pmo.ID())
	}
	snap := r.Backup[0].(*caps.PMOSnap)
	cp, ok := snap.Pages.Get(idx)
	if !ok {
		return fmt.Errorf("checkpoint: write fault on page %d of PMO %d with no checkpointed entry", idx, pmo.ID())
	}
	if err := m.copyBackup(lane, cp, 0, s.Page, refreshReplica); err != nil {
		return fmt.Errorf("checkpoint: allocating backup page: %w", err)
	}
	// The backup immediately satisfies restore rule 1 once its version is
	// set, so — unlike STW writers, which defer to the round's single
	// pre-commit fence — the fault handler must make the copy durable
	// BEFORE publishing the version. A crash inside this window restores
	// through rule 2 from the still-unmodified runtime page.
	m.fence(lane)
	cp.Ver[0] = m.committed

	s.Writable = true
	s.Dirty = true
	s.IdleRounds = 0
	if s.Hotness < ^uint16(0) {
		s.Hotness++
	}
	pmo.Touched = append(pmo.Touched, idx)

	if m.cfg.HybridCopy && !s.OnHotList && s.Hotness >= m.cfg.HotThreshold && pmo.Type != caps.PMOEternal {
		m.active = append(m.active, pageRef{pmo: pmo, snap: snap, idx: idx})
		s.OnHotList = true
		lane.Charge(m.model.HotListAppend)
	}

	m.Stats.COWFaults++
	m.Stats.EpochFaults++
	m.met.cowFaults.Inc()
	if m.traceOn() {
		m.obs.Trace.Instant(lane.ID(), lane.Now(), "page", "cow-fault",
			obs.I("pmo", int64(pmo.ID())), obs.I("idx", int64(idx)),
			obs.I("hotness", int64(s.Hotness)))
	}
	return nil
}

// maxCachedPages caps the number of DRAM-cached hot pages: a newly hot page
// stays on NVM while the cache is full.
const maxCachedPages = 4096

// runHybridCopy is step ❸ of Figure 5: the non-leader cores traverse
// stride-partitioned sublists of the dual-function active page list,
// stop-and-copying dirty DRAM-cached pages, migrating newly-hot pages to
// DRAM, and demoting pages that stayed clean too long back to NVM.
// It returns the latest finishing time across the worker lanes that did
// copy work; workers whose clocks advanced only during the parallel walk
// do not extend the copy window.
func (m *Manager) runHybridCopy(workers []*simclock.Lane, start simclock.Time, round uint64, rep *Report) simclock.Time {
	entered := m.entered[:0]
	for _, w := range workers {
		entered = append(entered, w.Now())
	}
	m.entered = entered
	keep := m.active[:0]
	for i, ref := range m.active {
		w := workers[i%len(workers)]
		w.Charge(m.model.HotListVisit)
		s := ref.pmo.Lookup(ref.idx)
		cp, ok := ref.snap.Pages.Get(ref.idx)
		if !ok {
			s.OnHotList = false
			continue
		}
		switch {
		case s.Page.Kind == mem.KindNVM:
			// Newly appended since the last checkpoint: migrate to
			// DRAM (NVM->DRAM migration, Figure 6b).
			if m.cached >= maxCachedPages {
				s.OnHotList = false
				s.Hotness = 0
				continue
			}
			d := m.memory.AllocDRAM()
			if d.IsNil() {
				s.OnHotList = false
				s.Hotness = 0
				continue
			}
			w.Charge(m.memory.CopyPage(d, s.Page))
			// The old NVM runtime page becomes the latest backup; its
			// epoch's stores must be written back for the commit fence.
			// It is now a versioned restore source exactly like a
			// stop-copied or COW backup, so it joins the replica tier
			// too — without this, a media fault on a migrated-away
			// frame is detectable but unrepairable.
			m.flushPage(w, s.Page)
			m.sealPage(w, s.Page, refreshReplica)
			cp.Page[1] = s.Page
			cp.Ver[1] = round
			s.Page = d
			s.Writable = true
			s.Dirty = false
			s.IdleRounds = 0
			m.cached++
			rep.Migrated++
			m.Stats.Migrations++
			m.met.migrations.Inc()
			if m.traceOn() {
				m.obs.Trace.Instant(w.ID(), w.Now(), "page", "migrate-to-dram",
					obs.I("pmo", int64(ref.pmo.ID())), obs.I("idx", int64(ref.idx)))
			}
			keep = append(keep, ref)

		case s.Dirty:
			// Dirty cached page: stop-and-copy into the backup slot
			// not holding the newest committed version.
			ws := m.backupWriteSlot(cp)
			if m.copyBackup(w, cp, ws, s.Page, refreshReplica) != nil {
				// NVM exhausted: keep the page dirty; it will be
				// retried next round.
				keep = append(keep, ref)
				continue
			}
			cp.Ver[ws] = round
			s.Dirty = false
			s.IdleRounds = 0
			rep.DirtyDRAMCopied++
			if m.traceOn() {
				m.obs.Trace.Instant(w.ID(), w.Now(), "page", "dirty-dram-copy",
					obs.I("pmo", int64(ref.pmo.ID())), obs.I("idx", int64(ref.idx)))
			}
			keep = append(keep, ref)

		default:
			// Clean cached page: age it; demote if cold (DRAM->NVM
			// migration, §4.3.3).
			s.IdleRounds++
			if s.IdleRounds < m.cfg.DemoteAfter {
				keep = append(keep, ref)
				continue
			}
			// Ensure the second backup holds the latest data, then
			// make it the runtime page with version zero. (Slot 1 can
			// only be the newest when it holds a frame.)
			if m.latestBackupSlot(cp) != 1 && m.copyBackup(w, cp, 1, s.Page, checkReplica) != nil {
				keep = append(keep, ref)
				continue
			}
			cp.Ver[1] = 0
			m.memory.FreeDRAM(s.Page)
			s.Page = cp.Page[1]
			s.Writable = false
			s.OnHotList = false
			s.Hotness = 0
			s.Dirty = false
			s.IdleRounds = 0
			m.cached--
			rep.Demoted++
			m.Stats.Demotions++
			m.met.demotions.Inc()
			if m.traceOn() {
				m.obs.Trace.Instant(w.ID(), w.Now(), "page", "demote-to-nvm",
					obs.I("pmo", int64(ref.pmo.ID())), obs.I("idx", int64(ref.idx)))
			}
		}
	}
	m.active = keep

	end := start
	for i, w := range workers {
		if w.Now() > entered[i] && w.Now() > end {
			end = w.Now()
		}
	}
	return end
}

// backupWriteSlot picks the CkptPage slot that may be overwritten during an
// in-flight checkpoint: the one NOT holding the newest committed version.
func (m *Manager) backupWriteSlot(cp *caps.CkptPage) int {
	latest := m.latestBackupSlot(cp)
	if latest < 0 {
		return 0
	}
	return 1 - latest
}

// latestBackupSlot returns the slot holding the newest committed version, or
// -1 if neither slot holds one.
func (m *Manager) latestBackupSlot(cp *caps.CkptPage) int {
	best, bestVer := -1, uint64(0)
	for i := 0; i < 2; i++ {
		if !cp.Page[i].IsNil() && cp.Ver[i] != 0 && cp.Ver[i] <= m.committed && cp.Ver[i] >= bestVer {
			best, bestVer = i, cp.Ver[i]
		}
	}
	return best
}
