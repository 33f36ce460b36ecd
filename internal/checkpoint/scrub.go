package checkpoint

import (
	"treesls/internal/caps"
	"treesls/internal/mem"
	"treesls/internal/obs"
	"treesls/internal/simclock"
)

// ScrubReport summarizes one scrub pass over the persistent world.
type ScrubReport struct {
	// PagesChecked counts backup/restore-source pages verified.
	PagesChecked int
	// RecordsChecked counts object records whose digest was verified.
	RecordsChecked int
	// Repaired counts pages rebuilt in place (replica or clean-runtime
	// redundancy).
	Repaired int
	// Quarantined counts corrupt *fallback* slots retired: dropping a
	// fallback never changes what a restore produces while the chosen
	// copy is intact.
	Quarantined int
	// Unrepairable counts corruptions scrub can only report: the chosen
	// restore source (or an object record) with no redundancy left.
	// Restore resolves these explicitly — degraded fallback or the lost-
	// page manifest — so they are detected, not silent.
	Unrepairable int
	// MetaRepairs counts commit-record and journal-region copies rebuilt
	// from their mirror.
	MetaRepairs int
}

// Scrub walks the persistent world between checkpoints, verifying the
// checksummed redundancy a future restore will depend on and repairing what
// it still can (§8 "Data Reliability"): the dual-copy commit record, the
// mirrored journal frame, every committed object record's digest, and every
// page a restore at this instant would read. Scrubbing is proactive — it
// converts latent media damage into repairs (or explicit counters) while
// the redundancy to repair from still exists, instead of discovering the
// damage at restore time when half the options may be gone.
func (m *Manager) Scrub(lane *simclock.Lane) ScrubReport {
	var sr ScrubReport
	start := lane.Now()
	sr.MetaRepairs += m.scrubCommitRecord()
	sr.MetaRepairs += m.jrnl.Scrub()
	if m.HasCheckpoint() {
		m.ForEachRoot(func(r *caps.ORoot) {
			if r.Kind == caps.KindPMO {
				m.scrubPMO(lane, r, &sr)
				return
			}
			if m.cfg.DisableChecksums {
				return
			}
			for i := range r.Backup {
				if r.Backup[i] == nil || r.Ver[i] == 0 || r.Ver[i] > m.committed {
					continue
				}
				sr.RecordsChecked++
				lane.Charge(m.model.ChecksumRecord)
				if recordSum(r.Backup[i]) != r.Sum[i] {
					// A corrupt object record cannot be rebuilt
					// between checkpoints — the runtime object has
					// moved on since the snapshot. Leave it for
					// restore to skip explicitly; the object's next
					// snapshot overwrites it.
					sr.Unrepairable++
				}
			}
		})
	}
	if sr.Repaired > 0 {
		m.fence(lane) // drain the in-place page repairs to durability
	}
	m.Stats.ScrubScans++
	m.Stats.ScrubPagesChecked += uint64(sr.PagesChecked)
	m.Stats.ScrubRepairs += uint64(sr.Repaired)
	m.Stats.ScrubQuarantined += uint64(sr.Quarantined)
	m.Stats.ScrubUnrepairable += uint64(sr.Unrepairable)
	m.Stats.MetaRepairs += uint64(sr.MetaRepairs)
	if m.traceOn() {
		m.obs.Trace.Span(lane.ID(), start, lane.Now(), "checkpoint", "scrub",
			obs.I("pages", int64(sr.PagesChecked)),
			obs.I("records", int64(sr.RecordsChecked)),
			obs.I("repaired", int64(sr.Repaired)),
			obs.I("quarantined", int64(sr.Quarantined)),
			obs.I("unrepairable", int64(sr.Unrepairable)),
			obs.I("meta_repairs", int64(sr.MetaRepairs)))
	}
	return sr
}

// scrubPMO verifies the checkpointed pages of one PMO root. For each page
// the slot a restore would choose is verified (poison + digest, replica
// repair inside verifySource); a still-corrupt chosen source is rebuilt
// from the clean runtime copy when one provably holds the committed content.
// The non-chosen fallback slot is then verified too, and quarantined if
// corrupt. Scrub never quarantines the *chosen* source: silently dropping
// it would make a later restore fall back to an older version without a
// manifest entry — exactly the silent divergence this machinery exists to
// prevent.
func (m *Manager) scrubPMO(lane *simclock.Lane, r *caps.ORoot, sr *ScrubReport) {
	snap, ok := r.Backup[0].(*caps.PMOSnap)
	if !ok || r.Ver[0] == 0 || r.Ver[0] > m.committed {
		return
	}
	if snap.Type == caps.PMOEternal {
		return // always-current semantics: no committed redundancy to verify
	}
	pmo, _ := r.Runtime.(*caps.PMO)
	snap.Pages.Walk(func(idx uint64, cp *caps.CkptPage) bool {
		if cp.Born > m.committed {
			return true // stillborn entry; restore removes it
		}
		src := RestoreSource(cp, m.committed)
		if src < 0 {
			return true // swapped out, or no committed copy to protect
		}
		sr.PagesChecked++
		reps := m.Stats.ReplicaRepair
		chosenOK := m.verifySource(lane, cp.Page[src])
		if chosenOK && m.Stats.ReplicaRepair > reps {
			sr.Repaired++ // verifySource healed it from the replica
		}
		if !chosenOK {
			if m.scrubRepairChosen(lane, pmo, idx, cp, src) {
				chosenOK = true
				sr.Repaired++
			} else {
				sr.Unrepairable++
			}
		}
		alt := 1 - src
		reps = m.Stats.ReplicaRepair
		if chosenOK && nvmSlot(cp.Page[alt]) && cp.Ver[alt] != 0 && cp.Ver[alt] <= m.committed &&
			cp.Page[alt] != cp.Page[src] && !m.verifySource(lane, cp.Page[alt]) {
			// Corrupt fallback with an intact chosen copy: retire it.
			p := cp.Page[alt]
			cp.Page[alt] = mem.NilPage
			cp.Ver[alt] = 0
			m.memory.ClearPoison(p, 0, mem.PageSize)
			m.freeBackup(lane, p)
			sr.Quarantined++
		} else if m.Stats.ReplicaRepair > reps {
			sr.Repaired++ // fallback slot healed from its replica
		}
		return true
	})
}

// scrubRepairChosen tries to rebuild a corrupt chosen restore source from
// the one redundancy verifySource cannot use: the live runtime page, when
// it provably still holds the committed content. That is exactly the clean
// DRAM-cached case — a cached page that stayed clean since its last
// checkpoint holds the newest committed version (the round that committed
// it copied those very bytes into the backup slot being repaired). A dirty
// or faulted runtime page has diverged and must never be copied back.
func (m *Manager) scrubRepairChosen(lane *simclock.Lane, pmo *caps.PMO, idx uint64, cp *caps.CkptPage, src int) bool {
	if pmo == nil {
		return false
	}
	s := pmo.Lookup(idx)
	if s == nil || s.Page.IsNil() || s.Page.Kind != mem.KindDRAM || s.Dirty {
		return false
	}
	return m.copyBackup(lane, cp, src, s.Page, refreshReplica) == nil
}
