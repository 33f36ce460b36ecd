// Package cluster shards the TreeSLS keyspace across N persistent machines
// behind a consistent-hash router, and extends the paper's external-synchrony
// guarantee (§5) cluster-wide through a coordinator-driven consistent cut.
//
// Each shard is a full kernel.Machine running its own kvstore server and
// checkpoint manager in deferred-publication mode
// (checkpoint.Config.DeferCommitPublish). A cluster round is a four-phase
// protocol, advanced one micro-action per Step so crash harnesses can
// inject a failure between any two actions:
//
//	prepare   — every participant takes a checkpoint with the commit word
//	            withheld and reports (version, backup digest) over the
//	            control fabric;
//	announce  — once all reports are in, the coordinator durably appends
//	            the cut: the ring (version, members) it stands for, the
//	            participants' versions and digests, and their fold, the
//	            cluster digest;
//	publish   — each participant publishes its commit word (the withheld
//	            half of the ordinary commit);
//	release   — each participant's extsync gate releases exactly the
//	            responses the announced cut covers.
//
// Recovery always lands on the newest announced cut. A shard whose word
// lags the cut by one round provably prepared it (the announcement exists),
// so recovery rolls the word forward before restoring; every other crash
// point rolls back to the cut like an ordinary uncommitted round. Because a
// gated response is released only after the covering cut is announced AND
// the local word published, no client ever holds an acknowledgement that
// any recoverable state of the cluster lacks.
//
// Elastic resharding (migrate.go) rides the same machinery: a migration
// epoch streams moved keys source→destination, and its commit is a cut
// whose ring fields name the NEW ring while its participant set is the
// union of old and new members. The announce append is the one atomic
// instant of the reshard — recovery re-derives the routing ring from the
// newest cut, so every crash lands on exactly the old ring or exactly the
// new one, never a mix.
package cluster

import (
	"fmt"

	"treesls/internal/apps/kvstore"
	"treesls/internal/extsync"
	"treesls/internal/kernel"
	"treesls/internal/mem"
	"treesls/internal/net"
	"treesls/internal/obs/audit"
	"treesls/internal/repl"
	"treesls/internal/simclock"
)

// Config describes a cluster.
type Config struct {
	// Shards is the number of keyspace shards at boot (default 2); elastic
	// resharding can grow or shrink the live member set afterwards.
	Shards int
	// Cores is the core count of each shard machine (default 2).
	Cores int
	// Gated routes every shard's responses through its extsync ring,
	// released only at announced cuts — the cluster-wide external
	// synchrony contract. Off = the unsafe baseline the conviction tests
	// use.
	Gated bool
	// Replicate attaches a local-mode hot standby replicator to every
	// shard (internal/repl): cuts then double as cluster-wide failover
	// points, since each shard's ledger digest at a cut version equals
	// the digest the cut announced.
	Replicate bool
	// RingSlots sizes each shard's extsync ring (gated mode).
	RingSlots uint64
	// Persist selects the shards' persistence model (eADR or ADR).
	Persist mem.PersistMode
	// Seed seeds per-shard quiescence jitter and ADR crash damage
	// (shard i uses Seed+i, the coordinator's recovery choices are
	// deterministic regardless).
	Seed uint64
	// HeapPages / Buckets size each shard's kvstore (defaults 512/128).
	HeapPages uint64
	Buckets   uint64
	// PerOpCompute adds fixed per-request CPU work on the shard servers
	// (the scaling experiment's saturation knob).
	PerOpCompute simclock.Duration
	// Audit runs each shard's state-digest auditor at every protocol
	// boundary.
	Audit bool
	// Replicas keeps redundant backup-page copies on every shard,
	// turning detected media corruption into transparent repair;
	// DisableChecksums runs the shards as the media ablation baseline
	// (silent rot sails through). Both exist for composed fault
	// campaigns that stack media damage on cluster crashes.
	Replicas         int
	DisableChecksums bool
}

func (c *Config) fill() {
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.Cores <= 0 {
		c.Cores = 2
	}
	if c.RingSlots == 0 {
		c.RingSlots = 1024
	}
	if c.HeapPages == 0 {
		c.HeapPages = 512
	}
	if c.Buckets == 0 {
		c.Buckets = 128
	}
}

// report is a shard's prepare report: the checkpoint version it prepared
// and its backup-tree audit digest at that version.
type report struct {
	version uint64
	digest  uint64
}

// Shard is one keyspace partition: a whole machine with its own network,
// server, gate and (optionally) hot standby.
type Shard struct {
	M   *kernel.Machine
	Net *net.Network
	Srv *kvstore.Server
	Drv *extsync.Driver // nil when ungated
	Rep *repl.Replicator

	// prepared caches the shard's report for the forming round. Volatile
	// per SHARD crash (the machine's prepared state rolls back with it),
	// but it survives a coordinator crash — which is exactly what lets a
	// new coordinator re-collect reports without re-preparing.
	prepared report
}

func (s *Shard) leaderLane() *simclock.Lane { return &s.M.Cores[0].Lane }

// Cut is one announced cluster cut: the durable record that epoch Epoch
// consists of Versions[i] on shard Shards[i], under ring (RingVersion,
// RingMembers). Ordinary cuts name the current ring and its members as
// participants; a migration-commit cut names the NEW ring while its
// participants are the union of old and new members, so both sides of the
// hand-off are covered by the same durable instant.
type Cut struct {
	Epoch uint64
	// RingVersion / RingMembers are the routing ring this cut stands for;
	// recovery re-derives the live ring from the newest cut's pair.
	RingVersion uint64
	RingMembers []int
	// Shards lists the participant shard ids; Versions/Digests are
	// parallel to it.
	Shards   []int
	Versions []uint64
	Digests  []uint64
	// Cluster is FoldCut(Shards, Versions, Digests) — the cluster digest
	// a recovery to this cut must reproduce.
	Cluster uint64
	// At is the coordinator time of the announcement.
	At simclock.Time
}

// VersionOf returns the version this cut names for a shard, and whether the
// cut covers that shard at all.
func (cut Cut) VersionOf(shard int) (uint64, bool) {
	for i, s := range cut.Shards {
		if s == shard {
			return cut.Versions[i], true
		}
	}
	return 0, false
}

// FoldCut computes the cluster digest: an FNV-1a fold over each
// participant's (shard id, version, digest) in participant order, each
// word's eight bytes little-endian.
func FoldCut(shards []int, versions, digests []uint64) uint64 {
	h := uint64(mem.FNVOffset)
	for i := range versions {
		h = mem.FoldFNV64(h, uint64(shards[i]))
		h = mem.FoldFNV64(h, versions[i])
		h = mem.FoldFNV64(h, digests[i])
	}
	return h
}

// Coordinator drives cluster epochs. Its announced-cut log models a record
// appended to the coordinator's own NVM — it survives every failure; the
// forming state is volatile and a coordinator crash drops it.
type Coordinator struct {
	lane    simclock.Lane
	cuts    []Cut
	forming []report
}

// coordLaneID is the coordinator's trace lane (clear of core and standby
// lanes).
const coordLaneID = 98

// Newest returns the newest announced cut. The boot round guarantees at
// least one exists.
func (co *Coordinator) Newest() Cut { return co.cuts[len(co.cuts)-1] }

// Cuts returns the announced-cut log, oldest first.
func (co *Coordinator) Cuts() []Cut { return co.cuts }

// Phase identifies where a cluster round stands; the crash campaign uses it
// to classify injection boundaries.
type Phase int

// Round phases, in protocol order.
const (
	PhaseIdle Phase = iota
	PhasePrepare
	PhaseAnnounce
	PhasePublish
	PhaseRelease
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseIdle:
		return "idle"
	case PhasePrepare:
		return "prepare"
	case PhaseAnnounce:
		return "announce"
	case PhasePublish:
		return "publish"
	case PhaseRelease:
		return "release"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Stats counts cluster activity.
type Stats struct {
	Rounds        uint64
	PowerFailures uint64
	ShardFailures uint64
	CoordFailures uint64
	RollForwards  uint64
	// Migrations / MigrationsAborted count migration epochs that committed
	// (their ring-change cut was announced) vs rolled back whole.
	Migrations        uint64
	MigrationsAborted uint64
	// KeysMoved totals keys handed off by committed migrations.
	KeysMoved uint64
	// DualWrites counts in-flight writes forwarded source→destination
	// during a migration epoch; ForwardedRequests counts post-flip client
	// requests relayed from a previous owner to the current one;
	// MigrationBytes totals migration-frame wire bytes.
	DualWrites        uint64
	ForwardedRequests uint64
	MigrationBytes    uint64
}

// Cluster is N shards, their router ring, the control fabric and the cut
// coordinator.
type Cluster struct {
	cfg    Config
	Ring   *Ring
	Shards []*Shard
	Coord  *Coordinator
	Fabric *net.Fabric

	phase  Phase
	cursor int // index within roundShards for the per-shard phases
	// roundShards is the in-flight round's participant set (set by
	// StartRound): the ring members, or the old∪new union for a migration
	// commit round.
	roundShards []int

	// mig is the in-flight migration epoch, nil outside one (migrate.go).
	mig *Migration
	// onRingChange fires after the routing ring changes (commit or
	// recovery roll-forward); the fleet hooks it to re-route keys.
	onRingChange func()

	// roundEvents counts round micro-actions taken outside recovery: the
	// crash-at-event-K coordinate contributed by the cut protocol.
	roundEvents uint64
	inRecovery  bool

	Stats Stats
}

// New boots the cluster: shard machines with deferred commit publication,
// per-shard networks/servers/gates, the ring, the fabric — and one boot
// round, so a crash at any later instant always has an announced cut to
// recover to.
func New(cfg Config) (*Cluster, error) {
	cfg.fill()
	c := &Cluster{
		cfg:    cfg,
		Ring:   NewRing(cfg.Shards, 0),
		Fabric: net.NewFabric(nil, cfg.Shards),
		Coord:  &Coordinator{forming: make([]report, cfg.Shards)},
	}
	c.Coord.lane.SetID(coordLaneID)
	for i := 0; i < cfg.Shards; i++ {
		s, err := c.newShard(i)
		if err != nil {
			return nil, err
		}
		c.Shards = append(c.Shards, s)
	}
	// Boot round: prepare/announce/publish the base checkpoints so epoch 1
	// exists before any traffic.
	c.inRecovery = true
	if err := c.Round(); err != nil {
		return nil, fmt.Errorf("cluster: boot round: %w", err)
	}
	c.inRecovery = false
	return c, nil
}

// newShard builds shard i's machine/network/server/gate stack. Shared by
// boot and by AddShard (a joining shard is built exactly like a boot one).
func (c *Cluster) newShard(i int) (*Shard, error) {
	cfg := c.cfg
	kcfg := kernel.DefaultConfig()
	kcfg.Cores = cfg.Cores
	kcfg.CheckpointEvery = 0 // rounds are cluster-driven
	kcfg.Seed = cfg.Seed + uint64(i)
	kcfg.Mem.Persist = cfg.Persist
	kcfg.Mem.CrashSeed = cfg.Seed + uint64(i)
	kcfg.Checkpoint.DeferCommitPublish = true
	kcfg.Checkpoint.Replicas = cfg.Replicas
	kcfg.Checkpoint.DisableChecksums = cfg.DisableChecksums
	kcfg.Audit = cfg.Audit
	m := kernel.New(kcfg)
	nw, err := net.New(m, net.Config{Gated: cfg.Gated, RingSlots: cfg.RingSlots})
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %d network: %w", i, err)
	}
	if nw.Driver != nil {
		// Deferred release: a local prepare must NOT release
		// responses — only the release phase of an announced cut
		// does, via ReleaseUpTo. This is the cut-conditioned
		// extension of the §5 gate.
		nw.Driver.SetDeferred(true)
	}
	srv, err := kvstore.NewServer(m, kvstore.ServerConfig{
		Name:         fmt.Sprintf("shard%d", i),
		Threads:      cfg.Cores,
		HeapPages:    cfg.HeapPages,
		Buckets:      cfg.Buckets,
		EchoValue:    true,
		Ext:          nw.Driver,
		PerOpCompute: cfg.PerOpCompute,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %d server: %w", i, err)
	}
	s := &Shard{M: m, Net: nw, Srv: srv, Drv: nw.Driver}
	if cfg.Replicate {
		// Local-mode standby: replication is asynchronous and
		// never releases responses (the cut gate owns release);
		// driver deliberately nil so even a future remote-mode
		// pump could not bypass the cut.
		s.Rep = repl.Attach(m, nil, repl.Config{})
	}
	return s, nil
}

// Phase returns the current round phase.
func (c *Cluster) CurrentPhase() Phase { return c.phase }

// SetOnRingChange registers the routing-ring-change hook (the fleet's
// re-route callback). Fires after a migration commits — in the clean path
// or a recovery roll-forward — with the new ring already installed.
func (c *Cluster) SetOnRingChange(fn func()) { c.onRingChange = fn }

// Events returns the cluster's monotone event counter: every round and
// migration micro-action taken outside recovery plus every network event on
// every shard. The crash harnesses use it as the crash-at-event-K
// coordinate.
func (c *Cluster) Events() uint64 {
	e := c.roundEvents
	for _, s := range c.Shards {
		e += s.Net.Events()
	}
	return e
}

// StartRound opens a cluster round over the current participant set; Step
// advances it.
func (c *Cluster) StartRound() {
	if c.phase != PhaseIdle {
		panic("cluster: StartRound with a round in progress")
	}
	c.phase = PhasePrepare
	c.cursor = 0
	if c.mig != nil && c.mig.phase == MigCommit {
		c.roundShards = c.mig.participants()
	} else {
		c.roundShards = c.Ring.Members()
	}
}

// Step performs one round micro-action. Traffic must not interleave with a
// round: the harness drives Step until the phase returns to idle (injecting
// crashes between steps is exactly what the scenario suite does).
func (c *Cluster) Step() error {
	switch c.phase {
	case PhaseIdle:
		return fmt.Errorf("cluster: Step with no round in progress")
	case PhasePrepare:
		id := c.roundShards[c.cursor]
		s := c.Shards[id]
		if s.prepared.version == 0 {
			s.M.TakeCheckpoint()
			v := s.M.Ckpt.PreparedVersion()
			if v == 0 {
				return fmt.Errorf("cluster: shard %d prepare published eagerly", id)
			}
			s.prepared = report{version: v, digest: audit.RestorableDigest(s.M.Ckpt, s.M.Memory)}
		}
		arrive := c.Fabric.SendReport(id, s.leaderLane().Now())
		if arrive > c.Coord.lane.Now() {
			c.Coord.lane.AdvanceTo(arrive)
		}
		c.Coord.forming[id] = s.prepared
		c.advance(PhaseAnnounce)
	case PhaseAnnounce:
		n := len(c.roundShards)
		ringV, ringM := c.Ring.Version(), c.Ring.Members()
		if c.mig != nil && c.mig.phase == MigCommit {
			// The migration's commit: this cut names the NEW ring.
			// Appending it below is the reshard's atomic instant.
			ringV, ringM = c.mig.next.Version(), c.mig.next.Members()
		}
		cut := Cut{
			Epoch:       uint64(len(c.Coord.cuts)) + 1,
			RingVersion: ringV,
			RingMembers: ringM,
			Shards:      append([]int(nil), c.roundShards...),
			Versions:    make([]uint64, n),
			Digests:     make([]uint64, n),
		}
		for i, id := range c.roundShards {
			r := c.Coord.forming[id]
			if r.version == 0 {
				return fmt.Errorf("cluster: announcing with shard %d unreported", id)
			}
			cut.Versions[i] = r.version
			cut.Digests[i] = r.digest
		}
		cut.Cluster = FoldCut(cut.Shards, cut.Versions, cut.Digests)
		// The append is the announcement's durability point (a record
		// on the coordinator's NVM).
		c.Coord.lane.Charge(c.Shards[0].M.Model.CommitCheckpoint)
		cut.At = c.Coord.lane.Now()
		c.Coord.cuts = append(c.Coord.cuts, cut)
		c.Coord.forming = make([]report, len(c.Shards))
		if c.mig != nil && c.mig.phase == MigCommit {
			c.mig.announced = true
		}
		c.phase = PhasePublish
		c.cursor = 0
		c.bumpEvents()
	case PhasePublish:
		id := c.roundShards[c.cursor]
		s := c.Shards[id]
		cut := c.Coord.Newest()
		arrive := c.Fabric.SendAnnounce(id, len(c.roundShards), c.Coord.lane.Now())
		ll := s.leaderLane()
		if arrive > ll.Now() {
			ll.AdvanceTo(arrive)
		}
		if pv := s.M.Ckpt.PreparedVersion(); pv != 0 {
			want, _ := cut.VersionOf(id)
			if pv != want {
				return fmt.Errorf("cluster: shard %d prepared v%d but the cut names v%d",
					id, pv, want)
			}
			if _, err := s.M.PublishCheckpoint(); err != nil {
				return fmt.Errorf("cluster: shard %d publish: %w", id, err)
			}
		}
		// else: the shard already published, or crashed and was
		// restored straight to the cut — the word is right either way.
		s.prepared = report{}
		c.advance(PhaseRelease)
	case PhaseRelease:
		id := c.roundShards[c.cursor]
		s := c.Shards[id]
		if s.Drv != nil {
			v, _ := c.Coord.Newest().VersionOf(id)
			s.Drv.ReleaseUpTo(v, s.leaderLane())
		}
		c.advance(PhaseIdle)
		if c.phase == PhaseIdle {
			c.Stats.Rounds++
			if c.mig != nil && c.mig.announced {
				// The commit round of a migration epoch just
				// finished: flip the ring and clean up.
				if err := c.completeMigration(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// advance moves the per-shard cursor, entering `next` when it wraps.
func (c *Cluster) advance(next Phase) {
	c.bumpEvents()
	c.cursor++
	if c.cursor == len(c.roundShards) {
		c.phase = next
		c.cursor = 0
	}
}

func (c *Cluster) bumpEvents() {
	if !c.inRecovery {
		c.roundEvents++
	}
}

// Round drives a full cluster round (starting one if needed) to completion
// with no crash injection.
func (c *Cluster) Round() error {
	if c.phase == PhaseIdle {
		c.StartRound()
	}
	return c.finishRound()
}

// finishRound steps the in-progress round to completion.
func (c *Cluster) finishRound() error {
	for c.phase != PhaseIdle {
		if err := c.Step(); err != nil {
			return err
		}
	}
	return nil
}

// ---- Failures and recovery --------------------------------------------------

// PowerFail crashes every shard at once (a whole-cluster power failure) and
// recovers each to the newest announced cut, rolling forward shards whose
// word lags a covered prepare; shards the cut does not cover (a joining
// destination, a long-removed member) restore to their own newest durable
// version. The routing ring is re-derived from the cut, so an in-flight
// migration rolls back whole (cut names the old ring) or forward whole (the
// commit was announced). Returns the recovered cut after verifying every
// covered digest.
func (c *Cluster) PowerFail() (Cut, error) {
	c.inRecovery = true
	defer func() { c.inRecovery = false }()
	for _, s := range c.Shards {
		s.M.Crash()
		s.prepared = report{}
	}
	c.Coord.forming = make([]report, len(c.Shards))
	c.phase = PhaseIdle
	c.cursor = 0
	c.Stats.PowerFailures++
	cut := c.Coord.Newest()
	for i := range c.Shards {
		if err := c.restoreShardToCut(i, cut); err != nil {
			return Cut{}, err
		}
	}
	c.Ring = c.ringFromCut(cut)
	if m := c.mig; m != nil {
		c.mig = nil
		if m.announced {
			// Committed before the lights went out: the ring above is
			// already the new one; finish the bookkeeping.
			if err := c.finalizeMigration(m); err != nil {
				return Cut{}, err
			}
		} else {
			// The migration's volatile state died with the power: the
			// newest cut names the old ring, the epoch rolls back
			// whole. Destination installs were never covered by a cut
			// for a joining shard, and a surviving member's stale
			// extra copies are invisible to routing.
			c.Stats.MigrationsAborted++
		}
	}
	return cut, c.VerifyCut(cut)
}

// FailShard crashes one shard and runs the cluster's recovery procedure:
// the shard restores to the newest announced cut (rolling forward when the
// cut covers its unpublished prepare; plain restore when the cut does not
// cover it), an unannounced migration epoch aborts whole, an announced one
// rolls forward, and the interrupted round — if any — is re-formed or
// finished before traffic resumes.
func (c *Cluster) FailShard(i int) error {
	c.inRecovery = true
	defer func() { c.inRecovery = false }()
	s := c.Shards[i]
	s.M.Crash()
	s.prepared = report{}
	c.Coord.forming[i] = report{}
	c.Stats.ShardFailures++
	if err := c.restoreShardToCut(i, c.Coord.Newest()); err != nil {
		return err
	}
	if m := c.mig; m != nil && !m.announced {
		// Losing any machine before the commit announcement aborts the
		// epoch: the old ring stands and every moved key is still owned
		// (and justified) by its source.
		if err := c.abortMigration(m, i); err != nil {
			return err
		}
	}
	// A round interrupted before its announcement must re-collect from
	// the top: the crashed shard's report (if any) described a prepare
	// that restore just scrubbed. Survivors still hold theirs and skip
	// straight to re-sending. Past the announcement the cut stands and
	// the remaining publishes/releases simply run.
	if c.phase == PhasePrepare || c.phase == PhaseAnnounce {
		c.phase = PhasePrepare
		c.cursor = 0
	}
	return c.finishRound()
}

// FailCoordinator models losing the coordinator process: the durable cut
// log survives, the volatile forming state — and any unannounced migration
// epoch, whose plan lives in the coordinator — does not. The replacement
// coordinator re-drives the interrupted round: before the announcement it
// re-collects reports (shards cache theirs, so nothing re-prepares); after
// it, it re-sends the announcement to every shard — publish is guarded and
// release idempotent, so re-driving from the top is safe.
func (c *Cluster) FailCoordinator() error {
	c.inRecovery = true
	defer func() { c.inRecovery = false }()
	c.Coord.forming = make([]report, len(c.Shards))
	c.Stats.CoordFailures++
	if m := c.mig; m != nil && !m.announced {
		// The migration plan was the coordinator's volatile state; a
		// half-joined destination is re-imaged, a half-drained source
		// keeps everything — the old ring stands.
		if err := c.abortMigration(m, -1); err != nil {
			return err
		}
	}
	switch c.phase {
	case PhasePrepare, PhaseAnnounce:
		c.phase = PhasePrepare
		c.cursor = 0
	case PhasePublish, PhaseRelease:
		c.cursor = 0
	}
	return c.finishRound()
}

// restoreShardToCut recovers crashed shard i: to the version the cut names
// for it, or — when the cut does not cover the shard (a joining destination
// before its first covering cut, a member removed epochs ago) — to the
// shard's own newest durable version.
func (c *Cluster) restoreShardToCut(i int, cut Cut) error {
	s := c.Shards[i]
	v, covered := cut.VersionOf(i)
	if !covered {
		if err := s.M.Restore(); err != nil {
			return fmt.Errorf("cluster: shard %d (uncovered by cut e%d) restore: %w", i, cut.Epoch, err)
		}
		return nil
	}
	if s.M.Ckpt.DurableVersion() < v {
		c.Stats.RollForwards++
	}
	if err := s.M.RestoreToCut(v); err != nil {
		return fmt.Errorf("cluster: shard %d restore to cut e%d: %w", i, cut.Epoch, err)
	}
	return nil
}

// ringFromCut re-derives the routing ring a cut stands for. When the live
// ring already matches, it is kept (same points, no churn).
func (c *Cluster) ringFromCut(cut Cut) *Ring {
	if c.Ring.Version() == cut.RingVersion {
		return c.Ring
	}
	return NewRingOf(cut.RingMembers, 0, cut.RingVersion)
}

// CutDigestError reports a restored shard whose recomputed restorable
// digest does not match what its cut announced — the cluster-level
// "restore silently changed committed state" failure. It is typed so
// campaign harnesses can attribute it to the cut-digest invariant even
// when recovery itself (PowerFail) detects it before any oracle runs;
// Shard is -1 when the cluster-wide digest fold mismatches instead.
type CutDigestError struct {
	Shard       int
	Epoch       uint64
	Got, Want   uint64
	FoldFailure bool
}

func (e *CutDigestError) Error() string {
	if e.FoldFailure {
		return fmt.Sprintf("cluster: digest fold %#x != announced cluster digest %#x (e%d)",
			e.Got, e.Want, e.Epoch)
	}
	return fmt.Sprintf("cluster: shard %d digest %#x != cut e%d digest %#x",
		e.Shard, e.Got, e.Epoch, e.Want)
}

// VerifyCut checks the cluster against an announced cut: every covered
// shard's committed version and backup digest must match its slice, and the
// fold of the live digests must equal the announced cluster digest.
func (c *Cluster) VerifyCut(cut Cut) error {
	versions := make([]uint64, len(cut.Shards))
	digests := make([]uint64, len(cut.Shards))
	for i, id := range cut.Shards {
		s := c.Shards[id]
		versions[i] = s.M.Ckpt.CommittedVersion()
		digests[i] = audit.RestorableDigest(s.M.Ckpt, s.M.Memory)
		if versions[i] != cut.Versions[i] {
			return fmt.Errorf("cluster: shard %d at v%d, cut e%d names v%d",
				id, versions[i], cut.Epoch, cut.Versions[i])
		}
		if digests[i] != cut.Digests[i] {
			return &CutDigestError{Shard: id, Epoch: cut.Epoch, Got: digests[i], Want: cut.Digests[i]}
		}
	}
	if fold := FoldCut(cut.Shards, versions, digests); fold != cut.Cluster {
		return &CutDigestError{Shard: -1, Epoch: cut.Epoch, Got: fold, Want: cut.Cluster, FoldFailure: true}
	}
	return nil
}

// coveredVersion returns the newest announced version covering shard id,
// scanning the cut log newest-first (a removed shard's coverage stops at
// its last participating cut; a joining shard has none until its commit).
func (c *Cluster) coveredVersion(id int) (uint64, bool) {
	cuts := c.Coord.cuts
	for j := len(cuts) - 1; j >= 0; j-- {
		if v, ok := cuts[j].VersionOf(id); ok {
			return v, true
		}
	}
	return 0, false
}

// ReleasedCovered checks the cluster-wide external-synchrony invariant on
// the gates themselves: no shard may have released responses covered by a
// version beyond the newest announced cut that names it. The crash
// campaign asserts it at every probe point.
func (c *Cluster) ReleasedCovered() error {
	if !c.cfg.Gated {
		return nil
	}
	for i, s := range c.Shards {
		rv := s.Drv.ReleasedVersion()
		if rv == 0 {
			continue
		}
		v, ok := c.coveredVersion(i)
		if !ok {
			return fmt.Errorf("cluster: shard %d released through v%d but no announced cut ever covered it", i, rv)
		}
		if rv > v {
			return fmt.Errorf("cluster: shard %d released through v%d but its newest covering cut names only v%d",
				i, rv, v)
		}
	}
	return nil
}

// Now returns the cluster clock: the maximum over shard machine clocks and
// the coordinator lane.
func (c *Cluster) Now() simclock.Time {
	t := c.Coord.lane.Now()
	for _, s := range c.Shards {
		if n := s.M.Now(); n > t {
			t = n
		}
	}
	return t
}

// CommittedVersions is a convenience view for inspectors: per-shard
// committed checkpoint versions (all machines, members or not).
func (c *Cluster) CommittedVersions() []uint64 {
	vs := make([]uint64, len(c.Shards))
	for i, s := range c.Shards {
		vs[i] = s.M.Ckpt.CommittedVersion()
	}
	return vs
}
