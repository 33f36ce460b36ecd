package checkpoint

// Media-fault tolerance: per-page checksums over every restore-source page
// and content digests over every backup object record, so that NVM media
// damage — uncorrectable (poisoned) lines as well as silent bit rot — is
// *detected* before a restore or a scrub trusts the bytes. Detection turns
// silent corruption into one of three explicit outcomes: repair (replica or
// clean-runtime rebuild), degradation to an older committed version, or a
// named entry in the restore manifest. See DESIGN.md, "Media faults,
// scrubbing, and degraded restore".

import (
	"hash/crc32"

	"treesls/internal/caps"
	"treesls/internal/mem"
	"treesls/internal/simclock"
)

// castagnoli is the CRC-32C table. crc32.Checksum recognizes it and runs the
// CPU's CRC32 instruction (SSE4.2 on amd64, the CRC extension on arm64), so
// a page is digested at close to memory bandwidth instead of one dependent
// multiply per byte.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// pageChecksum is the restore-source page digest: CRC-32C over the page,
// the per-block checksum btrfs and ext4 keep for the same job. It detects
// every error confined to a 32-bit burst and, since the Castagnoli
// polynomial has minimum Hamming distance 4 at page length, every error of
// up to three flipped bits anywhere in the page; a wider random pattern
// (a scrambled line) escapes with probability 2^-32. The digest is
// Go-modeled manager metadata that no simulated byte, state digest or
// golden includes, so its algorithm is free to change.
func pageChecksum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// frameSum is the integrity entry of one NVM frame on backup duty, filed
// in Manager.integrity under the frame's number. It holds the frame's
// checksum: the CRC-32C of its bytes and its write generation
// (mem.Memory.Gen) when they were hashed. A frame with a §8 replica also
// names the replica's frame, whose own entry holds the replica's checksum.
// Frame 0 lies in the reserved metadata area (alloc.ReservedMetaFrames) and
// is never allocated, so replica 0 means none.
//
// The replica rule: a replica exists only while it holds the bytes its
// frame's checksum covers. sealPage is the one writer of entries and keeps
// that rule; forgetFrame is the one way off duty. With
// cfg.DisableChecksums a backup frame's entry only names its replica.
type frameSum struct {
	gen     uint64
	crc     uint32
	replica uint32
}

// nvmFrame names NVM frame f.
func nvmFrame(f uint32) mem.PageID { return mem.PageID{Kind: mem.KindNVM, Frame: f} }

// Replica policies of sealPage.
const (
	checkReplica   = false // keep a replica only if it still holds the bytes
	refreshReplica = true  // copy the bytes into the replica, creating one
)

// sealPage records the checksum the manager will demand from restore-source
// page p before trusting it again, and enforces the replica rule. Called
// whenever the checkpoint protocol (re)establishes p as a restore source:
// backup copies at their write, rule-2 runtime pages at their covering
// commit, and restore's version-zero slots. A checksum recorded at p's
// current generation already holds the digest and is kept. The entry is
// Go-modeled metadata beside the CkptPage (hence atomic); the simulated cost
// of the hashing pass is charged to lane.
//
// With refreshReplica (the sites that write a backup copy) p's bytes are
// copied into its replica, which is made first if p has none and
// cfg.Replicas > 1. With checkReplica a replica survives only if its
// checksum equals p's new one; with checksums disabled there is nothing to
// compare, so it is dropped.
func (m *Manager) sealPage(lane *simclock.Lane, p mem.PageID, refresh bool) {
	if p.IsNil() || p.Kind != mem.KindNVM {
		return
	}
	sums := !m.cfg.DisableChecksums
	e, filed := m.integrity[p.Frame]
	if sums {
		if gen := m.memory.Gen(p); !filed || e.gen != gen {
			e.gen, e.crc = gen, pageChecksum(m.memory.Data(p))
		}
		if lane != nil {
			lane.Charge(m.model.ChecksumPage)
		}
	}
	switch {
	case refresh && m.cfg.Replicas > 1:
		if e.replica == 0 {
			c, err := m.alloc.AllocPageCkpt(lane)
			if err != nil {
				break // replication is best-effort under NVM pressure
			}
			// File the replica before its first copy, at generation 0,
			// which no copied frame has: a crash inside the copy leaves
			// it owned, not leaked, and never trusted.
			e.replica = c.Frame
			m.integrity[p.Frame] = e
			m.integrity[c.Frame] = frameSum{}
		}
		rep := nvmFrame(e.replica)
		lane.Charge(m.memory.CopyPage(rep, p))
		m.flushPage(lane, rep)
		crc := e.crc
		if !sums {
			crc = pageChecksum(m.memory.Data(p))
		}
		m.integrity[e.replica] = frameSum{gen: m.memory.Gen(rep), crc: crc}
	case e.replica != 0 && (!sums || m.integrity[e.replica].crc != e.crc):
		m.freeReplica(e.replica)
		e.replica = 0
	}
	switch {
	case sums || e.replica != 0:
		m.integrity[p.Frame] = e
	case filed:
		delete(m.integrity, p.Frame)
	}
}

// freeReplica returns replica frame f to the allocator and forgets it.
func (m *Manager) freeReplica(f uint32) {
	m.alloc.FreePageCkpt(nil, nvmFrame(f))
	delete(m.integrity, f)
}

// forgetFrame takes frame p off backup duty (freed, recycled, or no longer
// a restore source): its entry is forgotten and its replica freed. Every
// such path passes here, or a reused frame would be judged against a stale
// checksum and "repaired" from a stale replica.
func (m *Manager) forgetFrame(p mem.PageID) {
	if p.IsNil() || p.Kind != mem.KindNVM {
		return
	}
	if e, ok := m.integrity[p.Frame]; ok {
		if e.replica != 0 {
			m.freeReplica(e.replica)
		}
		delete(m.integrity, p.Frame)
	}
}

// freeBackup takes backup frame p off duty and returns it to the allocator.
func (m *Manager) freeBackup(lane *simclock.Lane, p mem.PageID) {
	m.forgetFrame(p)
	m.alloc.FreePageCkpt(lane, p)
	m.Stats.BackupPages--
}

// sumHolds reports whether page p still hashes to e.crc. While p's write
// generation equals e.gen, p holds the very bytes e.crc was computed over —
// every path that changes a frame's bytes bumps its generation (mem's
// TestPageHashTracksEveryWrite) — so the answer is yes without reading the
// page. Only a page written since is hashed again. Either way the answer
// equals a fresh hash compared with e.crc; only host time differs, and
// callers charge the simulated read and hash regardless.
func (m *Manager) sumHolds(p mem.PageID, e frameSum) bool {
	return e.gen == m.memory.Gen(p) || pageChecksum(m.memory.Data(p)) == e.crc
}

// verifySource decides whether restore or scrub may trust the content of
// NVM source page p. Two independent defenses run: the device's poison flag
// (a machine-check read) always fires, and the manager's page digest
// catches silent rot unless cfg.DisableChecksums (pages without a digest —
// eternal PMO pages — get the poison check only). On failure the page is
// repaired in place from its replica when §8 replication is on; returns
// false when the page cannot be proven intact. A replica repairs only when
// it matches its own digest and, if p has one, p's recorded digest too.
// sealPage's replica rule makes a mismatch impossible; the check stays as
// a second line, because a stale replica would "repair" p back to old
// bytes that sealPage would then record as correct. Both digest checks
// rehash only a frame written since its digest was recorded (sumHolds);
// the simulated read and hash are charged either way.
func (m *Manager) verifySource(lane *simclock.Lane, p mem.PageID) bool {
	bad := m.memory.CheckRead(p, 0, mem.PageSize) != nil
	e, filed := m.integrity[p.Frame]
	hasSum := filed && !m.cfg.DisableChecksums
	if !bad && hasSum {
		if lane != nil {
			lane.Charge(m.model.NVMReadPage + m.model.ChecksumPage)
		}
		bad = !m.sumHolds(p, e)
	}
	if !bad {
		return true
	}
	if e.replica == 0 {
		return false
	}
	rep, rs := nvmFrame(e.replica), m.integrity[e.replica]
	if (hasSum && rs.crc != e.crc) || m.memory.CheckRead(rep, 0, mem.PageSize) != nil || !m.sumHolds(rep, rs) {
		return false
	}
	d := m.memory.CopyPage(p, rep) // full-page store re-establishes ECC
	if lane != nil {
		lane.Charge(d)
	}
	m.flushPage(lane, p)
	if hasSum {
		// p holds its replica's bytes again: re-record the checksum at
		// p's new generation (the replica still matches it). Without
		// checksums there is nothing to record, and sealing would drop
		// the replica p was just repaired from.
		m.sealPage(lane, p, checkReplica)
	}
	m.Stats.ReplicaRepair++
	return true
}

// recordSum digests one backup object record: FNV-1a over the canonical
// record encodeRecord writes, the very bytes the replication image ships,
// folded field by field without building them. It guards the backup tree's
// *records* the way page checksums guard its pages — a restore only trusts
// a record whose digest matches the one stored at its snapshot (ORoot.Sum).
func recordSum(snap caps.Snapshot) uint64 {
	e := recEncoder{fold: true, h: mem.FNVOffset}
	encodeRecord(&e, snap)
	return e.h
}
