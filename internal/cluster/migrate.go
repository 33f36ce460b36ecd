package cluster

// Elastic resharding: a migration epoch moves the keyspace from the current
// ring to a ±1-member ring while the cluster keeps serving. The epoch is a
// little state machine advanced one micro-action per MigStep (the same
// crash-injection granularity as the cut protocol):
//
//	scan    — each source shard enumerates, in deterministic table order,
//	          the keys whose owner changes under the new ring (one shard
//	          per action);
//	stream  — each planned key is read on its source and shipped to its
//	          destination in one fabric migration frame, where it is
//	          applied (one key per action). A client write to an
//	          already-streamed (or newly created) moved key is
//	          dual-written: applied at the source, which still owns it
//	          and answers, and forwarded to the destination so the
//	          install never goes stale;
//	commit  — one ordinary cut round whose participants are the union of
//	          old and new members and whose cut names the NEW ring. The
//	          durable append of that cut is the reshard's atomic instant.
//
// Ordinary old-ring rounds are allowed (and wanted — they bound gated
// latency) between scan/stream actions; only the commit round changes the
// ring. Any machine or coordinator loss before the commit announcement
// aborts the epoch whole: the old ring stands, every moved key is still
// owned and justified by its source, and a half-joined destination is
// re-imaged. After the announcement the epoch always rolls forward:
// recovery restores to the commit cut (which covers both sides of every
// hand-off) and finishes the bookkeeping. There is no state from which
// recovery yields a mixed ring.

import (
	"fmt"

	"treesls/internal/obs"
	"treesls/internal/simclock"
)

// MigPhase identifies where a migration epoch stands.
type MigPhase int

// Migration phases, in order. MigNone is the zero value (no epoch).
const (
	MigNone MigPhase = iota
	MigScan
	MigStream
	MigCommit
)

// String names the phase.
func (p MigPhase) String() string {
	switch p {
	case MigNone:
		return "none"
	case MigScan:
		return "scan"
	case MigStream:
		return "stream"
	case MigCommit:
		return "commit"
	default:
		return fmt.Sprintf("MigPhase(%d)", int(p))
	}
}

// movedKey is one planned hand-off. Dynamically discovered keys (created by
// a client write after their source's scan) enter the plan pre-streamed:
// the dual-written value is already complete at the destination.
type movedKey struct {
	key      string
	src, dst int
	streamed bool
}

// Migration is one in-flight migration epoch. Everything here is the
// coordinator's volatile state — only the commit cut is durable, which is
// exactly why an unannounced epoch aborts whole on any loss.
type Migration struct {
	add    bool
	target int
	old    *Ring // the ring that stands until the commit
	next   *Ring // the ring the commit cut will name

	phase     MigPhase
	scanQueue []int // source shards not yet scanned
	plan      []*movedKey
	planIdx   map[string]*movedKey
	cursor    int  // next plan entry to stream
	announced bool // the commit cut is in the durable log
}

// MigrationStatus is an inspector's view of the in-flight epoch.
type MigrationStatus struct {
	Active    bool
	Add       bool
	Target    int
	Phase     MigPhase
	Announced bool
	// OldRing / NewRing are the ring versions the epoch transitions.
	OldRing, NewRing uint64
	// PlanKeys / Streamed count planned hand-offs and completed ones.
	PlanKeys, Streamed int
}

// MigrationInFlight reports whether a migration epoch is open.
func (c *Cluster) MigrationInFlight() bool { return c.mig != nil }

// MigrationStatus returns the in-flight epoch's status (zero when none).
func (c *Cluster) MigrationStatus() MigrationStatus {
	m := c.mig
	if m == nil {
		return MigrationStatus{}
	}
	st := MigrationStatus{
		Active: true, Add: m.add, Target: m.target,
		Phase: m.phase, Announced: m.announced,
		OldRing: m.old.Version(), NewRing: m.next.Version(),
		PlanKeys: len(m.plan),
	}
	for _, mk := range m.plan {
		if mk.streamed {
			st.Streamed++
		}
	}
	return st
}

// participants returns the commit round's participant set: the union of old
// and new members, sorted (for add: old ∪ {target}; for remove: old).
func (m *Migration) participants() []int {
	seen := map[int]bool{}
	var out []int
	for _, id := range m.old.Members() {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	for _, id := range m.next.Members() {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	// Members() are sorted and the union of two ±1 sets stays sorted when
	// the extra element is appended in order; normalize anyway.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// StartAddShard boots a brand-new shard machine (with its own local boot
// checkpoint, durable before any key moves) and opens a scale-out migration
// epoch toward ring+target. Returns the new shard's id.
func (c *Cluster) StartAddShard() (int, error) {
	if err := c.migStartGuard(); err != nil {
		return 0, err
	}
	id := len(c.Shards)
	s, err := c.newShard(id)
	if err != nil {
		return 0, fmt.Errorf("cluster: booting joining shard %d: %w", id, err)
	}
	c.Shards = append(c.Shards, s)
	c.Fabric.AddEndpoint()
	c.Coord.forming = append(c.Coord.forming, report{})
	// The joining shard's boot state becomes durable locally (v1) before
	// it receives anything: an aborted join re-images from here.
	s.M.TakeCheckpoint()
	if _, err := s.M.PublishCheckpoint(); err != nil {
		return 0, fmt.Errorf("cluster: joining shard %d boot publish: %w", id, err)
	}
	c.startMigration(&Migration{
		add:       true,
		target:    id,
		old:       c.Ring,
		next:      c.Ring.WithShard(id),
		scanQueue: c.Ring.Members(),
	})
	return id, nil
}

// StartRemoveShard opens a scale-in migration epoch: the target member's
// keys stream to their new owners, and the commit cut names ring-target.
// The machine itself survives until then (and, decommissioned, after).
func (c *Cluster) StartRemoveShard(id int) error {
	if err := c.migStartGuard(); err != nil {
		return err
	}
	if !c.Ring.Has(id) {
		return fmt.Errorf("cluster: shard %d is not a ring member", id)
	}
	if c.Ring.Shards() == 1 {
		return fmt.Errorf("cluster: cannot remove the last ring member")
	}
	c.startMigration(&Migration{
		add:       false,
		target:    id,
		old:       c.Ring,
		next:      c.Ring.WithoutShard(id),
		scanQueue: []int{id},
	})
	return nil
}

func (c *Cluster) migStartGuard() error {
	if c.mig != nil {
		return fmt.Errorf("cluster: a migration epoch is already in flight")
	}
	if c.phase != PhaseIdle {
		return fmt.Errorf("cluster: cannot start a migration mid-round (%v)", c.phase)
	}
	return nil
}

func (c *Cluster) startMigration(m *Migration) {
	m.phase = MigScan
	m.planIdx = map[string]*movedKey{}
	c.mig = m
	c.bumpEvents()
	if ob := c.Shards[0].M.Obs; ob.TraceOn() {
		ob.Trace.Instant(coordLaneID, c.Coord.lane.Now(), "cluster", "migration-start",
			obs.I("ring_from", int64(m.old.Version())),
			obs.I("ring_to", int64(m.next.Version())),
			obs.I("target", int64(m.target)))
	}
}

// MigStep performs one migration micro-action (scan one shard, stream one
// key, or open the commit round). The harness interleaves it with fleet
// steps and ordinary rounds; it must not be called with a round in flight.
func (c *Cluster) MigStep() error {
	m := c.mig
	if m == nil {
		return fmt.Errorf("cluster: MigStep with no migration in flight")
	}
	if c.phase != PhaseIdle {
		return fmt.Errorf("cluster: MigStep with a round in flight (%v)", c.phase)
	}
	switch m.phase {
	case MigScan:
		src := m.scanQueue[0]
		m.scanQueue = m.scanQueue[1:]
		keys, err := c.Shards[src].Srv.Keys()
		if err != nil {
			return fmt.Errorf("cluster: scanning shard %d: %w", src, err)
		}
		for _, key := range keys {
			if m.old.Owner(key) != src {
				// A stale extra copy left by an earlier epoch's
				// hand-off: not this shard's key, not moved.
				continue
			}
			dst := m.next.Owner(key)
			if dst == src {
				continue
			}
			if _, dup := m.planIdx[string(key)]; dup {
				continue
			}
			mk := &movedKey{key: string(key), src: src, dst: dst}
			m.plan = append(m.plan, mk)
			m.planIdx[mk.key] = mk
		}
		if len(m.scanQueue) == 0 {
			m.phase = MigStream
		}
		c.bumpEvents()
	case MigStream:
		for m.cursor < len(m.plan) && m.plan[m.cursor].streamed {
			m.cursor++
		}
		if m.cursor == len(m.plan) {
			m.phase = MigCommit
			c.bumpEvents()
			return nil
		}
		mk := m.plan[m.cursor]
		val, ok, err := c.Shards[mk.src].Srv.Peek([]byte(mk.key))
		if err != nil {
			return fmt.Errorf("cluster: reading %q on shard %d: %w", mk.key, mk.src, err)
		}
		if ok {
			if _, err := c.shipKV(mk.src, mk.dst, []byte(mk.key), val,
				c.Shards[mk.src].leaderLane().Now()); err != nil {
				return err
			}
		}
		// else: deleted since the scan — nothing to move; the plan entry
		// stays so the commit cleanup is uniform.
		mk.streamed = true
		m.cursor++
		c.bumpEvents()
	case MigCommit:
		// The commit round: participants are the old∪new union and the
		// announce will name the new ring. Step drives it from here;
		// completion (ring flip + cleanup) happens when it ends.
		c.StartRound()
		c.bumpEvents()
	default:
		return fmt.Errorf("cluster: MigStep in phase %v", m.phase)
	}
	return nil
}

// migrationFrameBytes is the fixed part of one key's migration frame: the
// 41-byte delta header, the 17-byte record key, the 4-byte record length
// and the key's and value's 8-byte length prefixes — the frame a one-record
// checkpoint delta carries the pair in.
const migrationFrameBytes = 41 + 17 + 4 + 8 + 8

// shipKV moves one key/value over the fabric in one migration frame and
// applies it to the destination's store. Returns the apply completion time.
func (c *Cluster) shipKV(src, dst int, key, val []byte, earliest simclock.Time) (simclock.Time, error) {
	n := migrationFrameBytes + len(key) + len(val)
	arrive := c.Fabric.SendMigrate(src, dst, n, earliest)
	res, err := c.Shards[dst].Srv.ApplyAt(arrive, 0, key, val)
	if err != nil {
		return 0, fmt.Errorf("cluster: applying %q on shard %d: %w", key, dst, err)
	}
	c.Stats.MigrationBytes += uint64(n)
	if ob := c.Shards[src].M.Obs; ob.TraceOn() {
		ob.Trace.Span(c.Shards[src].leaderLane().ID(), earliest, arrive, "cluster", "migrate-key",
			obs.I("dst", int64(dst)),
			obs.I("bytes", int64(n)))
	}
	if ob := c.Shards[0].M.Obs; ob.MetricsOn() {
		ob.Metrics.Counter("cluster.migration.bytes").Add(uint64(n))
		ob.Metrics.Counter("cluster.migration.records").Inc()
	}
	return res.End, nil
}

// DualWrite forwards a client write applied at its (old-ring) source to the
// key's destination when a migration epoch has the key in flight. The
// source still owns the key and answers the client; the forward keeps the
// destination's install current. Reports whether it forwarded.
//
// Every moved key is forwarded from its first post-scan write onward: a SET
// replaces the whole value, so one forwarded write makes the destination
// complete for that key regardless of what was or wasn't streamed before.
func (c *Cluster) DualWrite(key, val []byte, earliest simclock.Time) (bool, error) {
	m := c.mig
	if m == nil || m.announced {
		return false, nil
	}
	src := m.old.Owner(key)
	dst := m.next.Owner(key)
	if src == dst {
		return false, nil
	}
	mk, ok := m.planIdx[string(key)]
	if !ok {
		// Created (or first written) after its source's scan: enters the
		// plan pre-streamed — this very write carries the full value.
		mk = &movedKey{key: string(key), src: src, dst: dst, streamed: true}
		m.plan = append(m.plan, mk)
		m.planIdx[mk.key] = mk
	}
	if !mk.streamed {
		// The stream will capture this write when it reads the source.
		return false, nil
	}
	if _, err := c.shipKV(src, dst, key, val, earliest); err != nil {
		return false, err
	}
	c.Stats.DualWrites++
	if ob := c.Shards[0].M.Obs; ob.MetricsOn() {
		ob.Metrics.Counter("cluster.migration.dual_writes").Inc()
	}
	return true, nil
}

// ForwardRequest charges the dual-routing hop for a client request that
// arrived at a previous owner after the ring flipped: `from` relays it to
// the key's current owner over the migration mesh. Returns the arrival
// time at the owner.
func (c *Cluster) ForwardRequest(from, to, payload int, earliest simclock.Time) simclock.Time {
	arrive := c.Fabric.SendMigrate(from, to, payload, earliest)
	c.Stats.ForwardedRequests++
	if ob := c.Shards[0].M.Obs; ob.MetricsOn() {
		ob.Metrics.Counter("cluster.migration.forwards").Inc()
	}
	return arrive
}

// completeMigration runs when the commit round finishes in the clean path:
// flip the ring, then finalize.
func (c *Cluster) completeMigration() error {
	m := c.mig
	c.mig = nil
	c.Ring = m.next
	return c.finalizeMigration(m)
}

// finalizeMigration finishes a committed epoch with the new ring already
// installed (clean commit or recovery roll-forward): moved keys are deleted
// from sources that remain members (runtime hygiene — the next cut makes it
// durable), counters bump, and the fleet re-routes.
func (c *Cluster) finalizeMigration(m *Migration) error {
	for _, mk := range m.plan {
		if !c.Ring.Has(mk.src) {
			continue // a leaving shard keeps its state; it is off-ring
		}
		if _, _, err := c.Shards[mk.src].Srv.Delete(0, []byte(mk.key)); err != nil {
			return fmt.Errorf("cluster: post-commit delete of %q on shard %d: %w", mk.key, mk.src, err)
		}
	}
	c.Stats.Migrations++
	c.Stats.KeysMoved += uint64(len(m.plan))
	ob := c.Shards[0].M.Obs
	if ob.MetricsOn() {
		ob.Metrics.Counter("cluster.migration.epochs").Inc()
		ob.Metrics.Counter("cluster.migration.keys_moved").Add(uint64(len(m.plan)))
	}
	if ob.TraceOn() {
		ob.Trace.Instant(coordLaneID, c.Coord.lane.Now(), "cluster", "migration-commit",
			obs.I("ring", int64(c.Ring.Version())),
			obs.I("keys_moved", int64(len(m.plan))))
	}
	if c.onRingChange != nil {
		c.onRingChange()
	}
	return nil
}

// abortMigration rolls an unannounced epoch back whole. restoredVictim
// names a shard that recovery already restored (so it is not re-imaged
// twice), or -1. The old ring stands: sources still own and justify every
// moved key; a surviving destination's extra copies are unreachable junk
// (skipped by future scans, invisible to routing); a half-joined
// destination machine is re-imaged to its boot checkpoint.
func (c *Cluster) abortMigration(m *Migration, restoredVictim int) error {
	c.mig = nil
	c.Stats.MigrationsAborted++
	if m.add && m.target != restoredVictim {
		if err := c.resetShard(m.target); err != nil {
			return err
		}
	}
	if m.phase == MigCommit && (c.phase == PhasePrepare || c.phase == PhaseAnnounce) {
		// The interrupted round was the (unannounced) commit round:
		// demote it to an ordinary old-ring round. Survivors keep their
		// cached prepares; the destination's pending prepare was
		// scrubbed by its re-image.
		c.phase = PhasePrepare
		c.cursor = 0
		c.roundShards = c.Ring.Members()
	}
	ob := c.Shards[0].M.Obs
	if ob.MetricsOn() {
		ob.Metrics.Counter("cluster.migration.aborted").Inc()
	}
	if ob.TraceOn() {
		ob.Trace.Instant(coordLaneID, c.Coord.lane.Now(), "cluster", "migration-abort",
			obs.I("ring", int64(c.Ring.Version())))
	}
	return nil
}

// resetShard re-images a half-joined destination: crash + restore lands it
// on its local boot checkpoint, scrubbing half-applied installs and any
// pending commit-round prepare.
func (c *Cluster) resetShard(id int) error {
	s := c.Shards[id]
	s.M.Crash()
	if err := s.M.Restore(); err != nil {
		return fmt.Errorf("cluster: re-imaging shard %d: %w", id, err)
	}
	s.prepared = report{}
	c.Coord.forming[id] = report{}
	return nil
}
