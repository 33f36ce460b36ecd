package checkpoint

// Deferred commit publication: the shard-side half of the cluster-wide
// consistent cut (internal/cluster).
//
// Under Config.DeferCommitPublish, TakeCheckpoint runs every step of the
// ordinary protocol EXCEPT publishing the commit word: the round's backup
// pages, records and replicas are all durable and fenced, but the durable
// version still names the previous round. The coordinator collects each
// shard's (version, digest) report, durably announces the cluster cut, and
// only then does each shard PublishCommit — the same word/journal/truncate
// sequence the inline commit runs, just moved after the announcement.
//
// The crash windows this opens all reduce to ones the single-machine
// protocol already proves:
//
//   - crash before the announcement: the commit word never moved, so the
//     prepared round is exactly a round crashed just before its commit
//     word — restore scrubs the uncommitted slot tags and the shard comes
//     back at the previous cut.
//   - crash after the announcement but before this shard published: the
//     prepared state is fully durable, so recovery ROLLS FORWARD — it
//     persists the commit word for the announced version and then restores,
//     which is the proven "crash between commit word and log truncation"
//     window (the pending journal record, if any, replays idempotently).
//   - crash mid-publish: identical to the inline commit's own windows.
//
// Retention makes one rule load-bearing: backup slots alternate between two
// versions, so a shard must NEVER prepare round v+1 while round v is still
// unpublished — the second prepare would overwrite the slot a roll-forward
// to v needs. TakeCheckpoint panics on that misuse.

import (
	"fmt"

	"treesls/internal/simclock"
)

// pendingCommit describes a fully durable but unpublished checkpoint round.
// frees and roots record the deferred-free prefix covered by the round's
// fence and the root-directory size at prepare time: publication must not
// release frames deferred after the prepare (only the NEXT round's commit
// justifies those), and must skip the unreachable sweep if roots appeared
// after the walk (they carry no seen stamp and would be wrongly collected).
type pendingCommit struct {
	version uint64
	stamp   uint64
	frees   int
	roots   int
}

// PreparedVersion returns the version of the prepared-but-unpublished round,
// or 0 when none is pending. Non-zero only under Config.DeferCommitPublish,
// between a TakeCheckpoint and its PublishCommit.
func (m *Manager) PreparedVersion() uint64 { return m.pending.version }

// PublishCommit publishes the prepared round's commit word and runs the
// reclamation the inline commit would have run: journal-guarded word
// publication, allocator-log truncation, deferred frees, unreachable sweep.
// Returns the published version.
func (m *Manager) PublishCommit(lane *simclock.Lane) (uint64, error) {
	if m.pending.version == 0 {
		return 0, fmt.Errorf("checkpoint: no prepared round to publish")
	}
	round := m.pending.version
	m.commitVersion(lane, round)
	m.publishGC(lane, m.pending.stamp, m.pending.frees, len(m.roots) == m.pending.roots)
	m.pending = pendingCommit{}
	return round, nil
}

// RollForwardCommit publishes version v on a crashed machine during
// recovery. It is justified only by a durably announced cluster cut naming
// v for this shard: the announcement proves the prepare completed, so every
// page and record of round v is durable even though the word still names
// v-1. A no-op when the word already reads v; any other gap is an error —
// deferral is at most one round deep, so recovery can only ever need to
// advance the word by one.
func (m *Manager) RollForwardCommit(lane *simclock.Lane, v uint64) error {
	cur := m.readCommitWord()
	if v == cur {
		return nil
	}
	if v != cur+1 {
		return fmt.Errorf("checkpoint: roll-forward to v%d from durable v%d (can only advance one round)", v, cur)
	}
	m.persistCommitWord(lane, v)
	return nil
}

// publishGC performs the post-publication reclamation of a committed round:
// draining the deferred runtime-frame frees the round's fence covered and
// sweeping the object roots its walk proved unreachable. The inline commit
// covers the whole deferred-free list and always sweeps; a deferred publish
// restricts both to what the prepare actually guaranteed.
func (m *Manager) publishGC(ll *simclock.Lane, stamp uint64, frees int, sweep bool) {
	// Deferred runtime-frame releases: safe now that the commit has made
	// the state that stopped referencing them durable.
	for _, p := range m.deferredFrees[:frees] {
		m.alloc.FreePageCkpt(ll, p)
		m.forgetFrame(p)
	}
	m.deferredFrees = append(m.deferredFrees[:0], m.deferredFrees[frees:]...)
	if sweep {
		// Garbage-collect object roots that this (now committed) round
		// could not reach: their objects were deleted before the
		// checkpoint, so no restorable state references them anymore.
		m.sweepUnreachable(ll, stamp)
	}
}
