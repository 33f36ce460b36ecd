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

// pageSum is a recorded page checksum: the CRC-32C of a frame's bytes and
// the frame's write generation (mem.Memory.Gen) when they were hashed.
type pageSum struct {
	crc uint32
	gen uint64
}

// currentSum returns page p's checksum at its current generation: the
// recorded one while p's generation has not moved since, else a fresh hash.
func (m *Manager) currentSum(p mem.PageID) pageSum {
	gen := m.memory.Gen(p)
	if rec, ok := m.sums[p]; ok && rec.gen == gen {
		return rec
	}
	return pageSum{crc: pageChecksum(m.memory.Data(p)), gen: gen}
}

// sumHolds reports whether page p still hashes to rec.crc. While p's write
// generation equals rec.gen, p holds the very bytes rec.crc was computed
// over — every path that changes a frame's bytes bumps its generation
// (mem's TestPageHashTracksEveryWrite) — so the answer is yes without
// reading the page. Only a page written since is hashed again. Either way
// the answer equals a fresh hash compared with rec.crc; only host time
// differs, and callers charge the simulated read and hash regardless.
func (m *Manager) sumHolds(p mem.PageID, rec pageSum) bool {
	return rec.gen == m.memory.Gen(p) || pageChecksum(m.memory.Data(p)) == rec.crc
}

// checksumPage records the content digest the manager will demand from
// restore-source page p before trusting it again. Called whenever the
// checkpoint protocol (re)establishes p as a restore source: backup copies
// at their write, rule-2 runtime pages at their covering commit. An entry
// recorded at p's current generation already holds that digest and is
// kept. The digest lives beside the CkptPage metadata (Go-modeled, hence
// atomic); the simulated cost of the hashing pass is charged to lane.
func (m *Manager) checksumPage(lane *simclock.Lane, p mem.PageID) {
	if m.cfg.DisableChecksums || p.IsNil() || p.Kind != mem.KindNVM {
		return
	}
	m.sums[p] = m.currentSum(p)
	if lane != nil {
		lane.Charge(m.model.ChecksumPage)
	}
}

// dropSum forgets the digest of a page leaving restore-source duty (frame
// freed or recycled). Every FreePageCkpt of a tracked page must pass here,
// or a reused frame would be judged against a stale digest.
func (m *Manager) dropSum(p mem.PageID) {
	delete(m.sums, p)
}

// verifySource decides whether restore or scrub may trust the content of
// source page p. Two independent defenses run: the device's poison flag (a
// machine-check read) always fires, and the manager's page digest catches
// silent rot unless cfg.DisableChecksums (pages without a digest — eternal
// PMO pages — get the poison check only). On failure the page is repaired
// in place from its replica when §8 replication is on; returns false when
// the page cannot be proven intact. A replica repairs only when it matches
// its own digest and, if p has one, p's recorded digest too: a replica left
// behind by an older content of p would otherwise "repair" p back to stale
// bytes, which checksumPage would then record as correct. Both digest
// checks rehash only a frame written since its digest was recorded
// (sumHolds); the simulated read and hash are charged either way.
func (m *Manager) verifySource(lane *simclock.Lane, p mem.PageID) bool {
	bad := m.memory.CheckRead(p, 0, mem.PageSize) != nil
	want, hasSum := m.sums[p]
	if !bad && hasSum {
		if lane != nil {
			lane.Charge(m.model.NVMReadPage + m.model.ChecksumPage)
		}
		bad = !m.sumHolds(p, want)
	}
	if !bad {
		return true
	}
	if rep, ok := m.replicas[p]; ok && (!hasSum || rep.sum.crc == want.crc) {
		if m.memory.CheckRead(rep.copy, 0, mem.PageSize) == nil && m.sumHolds(rep.copy, rep.sum) {
			d := m.memory.CopyPage(p, rep.copy) // full-page store re-establishes ECC
			if lane != nil {
				lane.Charge(d)
			}
			m.flushPage(lane, p)
			m.checksumPage(lane, p)
			m.Stats.ReplicaRepair++
			return true
		}
	}
	return false
}

// recordSum digests one backup object record: a canonical FNV-1a encoding
// of every snapshot field, with object references reduced to their stable
// IDs. It guards the backup tree's *records* the way page checksums guard
// its pages — a restore only trusts a record whose digest matches the one
// stored at its snapshot (ORoot.Sum).
func recordSum(snap caps.Snapshot) uint64 {
	h := uint64(mem.FNVOffset)
	w8 := func(v uint64) { h = mem.FoldFNV64(h, v) }
	wRoot := func(r *caps.ORoot) {
		if r == nil {
			w8(^uint64(0))
			return
		}
		w8(r.ObjID)
	}
	w8(uint64(snap.SnapKind()))
	switch s := snap.(type) {
	case *caps.CapGroupSnap:
		w8(uint64(len(s.Name)))
		h = mem.FoldFNV(h, []byte(s.Name))
		w8(uint64(len(s.Slots)))
		for _, bc := range s.Slots {
			wRoot(bc.Root)
			w8(uint64(bc.Rights))
		}
	case *caps.ThreadSnap:
		w8(s.Ctx.PC)
		w8(s.Ctx.SP)
		for _, r := range s.Ctx.R {
			w8(r)
		}
		w8(uint64(int64(s.Sched.Priority)))
		w8(uint64(int64(s.Sched.Affinity)))
		w8(uint64(s.Sched.TimeSlice))
		w8(uint64(s.State))
	case *caps.VMSpaceSnap:
		w8(uint64(len(s.Regions)))
		for i := range s.Regions {
			r := &s.Regions[i]
			w8(r.VABase)
			w8(r.NumPages)
			wRoot(r.PMORoot)
			w8(r.PMOOffset)
			w8(uint64(r.Perm))
		}
	case *caps.IPCConnSnap:
		wRoot(s.ClientRoot)
		wRoot(s.ServerRoot)
		w8(uint64(len(s.Buf)))
		h = mem.FoldFNV(h, s.Buf)
		w8(s.Seq)
	case *caps.NotificationSnap:
		w8(uint64(int64(s.Count)))
		w8(uint64(len(s.Waiters)))
		for _, wt := range s.Waiters {
			wRoot(wt)
		}
	case *caps.IRQNotificationSnap:
		w8(uint64(int64(s.Line)))
		w8(uint64(s.Pending))
		wRoot(s.HandlerRoot)
	}
	return h
}
