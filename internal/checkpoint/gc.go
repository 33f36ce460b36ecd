package checkpoint

import (
	"treesls/internal/caps"
	"treesls/internal/obs"
	"treesls/internal/simclock"
)

// sweepUnreachable garbage-collects object roots that the just-committed
// round did not visit: their runtime objects were removed from the
// capability tree before the checkpoint (process exit, object revocation),
// so no restorable state can reference them. Running strictly after the
// commit keeps the protocol crash-safe — until the commit, the previous
// round's state still referenced these backups.
//
// For PMO roots the checkpointed radix pages are released, replicas are
// dropped and swap slots recycled. A slot whose frame the allocator already
// holds free is skipped: nothing allocates between the round's deferred
// frees and this sweep, so such a frame is one this collection just freed —
// a deferred runtime frame a demoted page's backup slot aliases, or the
// other slot's frame when both slots alias it. Non-PMO snapshots are plain
// Go objects; removing the root makes them collectible.
func (m *Manager) sweepUnreachable(lane *simclock.Lane, stamp uint64) {
	sweptBefore := m.Stats.RootsSwept
	// done counts the directory entries the loop has finished with. The
	// directory is compacted after the loop, not during it: the frees are
	// persistence events, so an injected crash can unwind out of the loop,
	// and the deferred compaction then drops exactly the roots swept so far
	// and keeps the rest — the root whose pages were being freed included —
	// filed once each, in ascending ID, for the next sweep to finish.
	done := 0
	defer func() {
		kept := m.roots[:0]
		for i, r := range m.roots {
			if i >= done || r.SeenInRound(stamp) {
				kept = append(kept, r)
			}
		}
		clear(m.roots[len(kept):])
		m.roots = kept
	}()
	// Sweep in ascending object-ID order: frame frees feed the allocator's
	// free list, so the order must be a pure function of the tree state
	// for runs to stay byte-identical regardless of how many lanes walked
	// the tree.
	for _, r := range m.roots {
		if r.SeenInRound(stamp) {
			done++
			continue
		}
		if snap, ok := r.Backup[0].(*caps.PMOSnap); ok {
			snap.Pages.Walk(func(idx uint64, cp *caps.CkptPage) bool {
				for _, p := range cp.Page {
					if nvmSlot(p) && !m.alloc.IsFree(p.Frame) {
						m.freeBackup(lane, p)
					}
				}
				m.releaseSwapSlot(cp)
				return true
			})
		}
		m.Stats.RootsSwept++
		done++
	}
	// One summary event after the loop keeps the trace compact.
	if swept := m.Stats.RootsSwept - sweptBefore; swept > 0 && m.traceOn() {
		m.obs.Trace.Instant(lane.ID(), lane.Now(), "checkpoint", "gc-sweep",
			obs.I("swept", int64(swept)))
	}
}
