package crashfuzz

import (
	"fmt"
	"math/rand"

	"treesls/internal/apps/kvstore"
	"treesls/internal/checkpoint"
	"treesls/internal/faultplane"
	"treesls/internal/kernel"
	"treesls/internal/mem"
	"treesls/internal/repl"
	"treesls/internal/simclock"
)

// ReplConfig parameterizes a crash-during-replication campaign: a primary
// machine runs kvstore traffic with a replicator streaming each checkpoint
// delta to a hot standby, and power failures are armed at randomized NVM
// persistence events. Every injected crash is followed by a failover probe
// at the crash instant plus probes deliberately placed on the replication
// boundaries (mid-delta-send, delta-applied-but-unacknowledged, and a
// repeated mid-failover retry), and the oracle is the replication contract
// itself: an acknowledged checkpoint is never lost, and an unacknowledged
// one is never promoted.
type ReplConfig struct {
	// Mode is the persistence model of the primary.
	Mode mem.PersistMode
	// Method and Hybrid select the checkpoint copy variant.
	Method checkpoint.CopyMethod
	Hybrid bool
	// Seeds are the machine/damage seeds; each seed gets its own machine.
	Seeds []uint64
	// CrashesPerSeed is how many crash injections to attempt per seed
	// (default 8, far below the shared default: every fired crash probes
	// 3-5 failovers, each a full standby promotion — the campaign's cost
	// is per-probe, not per-crash).
	CrashesPerSeed int
	// EventWindow bounds the armed countdown.
	EventWindow int
	// StepsPerCrash bounds the write+checkpoint rounds run while waiting
	// for an armed crash to fire (default 40: a repl round is a whole
	// write burst plus a replicated checkpoint, orders of magnitude
	// coarser than the other domains' micro-steps, so far fewer are
	// needed to cover the countdown window).
	StepsPerCrash int
	// Replicas keeps redundant backup-page copies on the primary;
	// DisableChecksums runs it as the media ablation baseline. Both exist
	// for composed campaigns that stack media damage on replication crashes.
	Replicas         int
	DisableChecksums bool
}

// The repl domain's fixed traffic and replication shape.
const (
	// replWritesPerRound is how many kvstore SETs precede each checkpoint.
	replWritesPerRound = 6
	// replFullSyncEvery is the replicator's full-tree sync period, short
	// so campaigns cross full-sync generations.
	replFullSyncEvery = 4
)

func (c *ReplConfig) fill() {
	if c.CrashesPerSeed == 0 {
		c.CrashesPerSeed = 8
	}
	if c.EventWindow == 0 {
		c.EventWindow = faultplane.Defaults.EventWindow
	}
	if c.StepsPerCrash == 0 {
		c.StepsPerCrash = 40
	}
}

// ReplResult aggregates a replication crash campaign. A returned result
// always reflects zero contract violations — the first violation aborts the
// campaign with an error.
type ReplResult struct {
	// CrashesFired / Restores count injected power failures on the primary
	// and the successful restores that followed.
	CrashesFired int
	Restores     int
	// Failovers counts standby promotions probed (each is built twice to
	// model a crash-and-retry mid-failover).
	Failovers int
	// Boundary coverage: probes that landed with the newest delta still on
	// the wire (mid-send), applied on the standby but with its ack still in
	// flight (unacked), and probes at instants with no acknowledged
	// checkpoint at all.
	MidSendProbes  int
	UnackedProbes  int
	NoAckedAtProbe int
	// Deltas / FullSyncs / BytesSent aggregate replicator traffic.
	Deltas    uint64
	FullSyncs uint64
	BytesSent uint64
	// Checkpoints across all seeds.
	Checkpoints uint64
}

type replFuzzer struct {
	faultplane.Hooks
	cfg   ReplConfig
	rng   *rand.Rand
	res   *ReplResult
	m     *kernel.Machine
	srv   *kvstore.Server
	rep   *repl.Replicator
	round int

	// ackedAtCrash is the acknowledged version at the last crash instant,
	// stashed by Round for the acked-covered oracle.
	ackedAtCrash uint64
	// lastFired gates PostRound: the legacy silo only ran progress rounds
	// after a fired crash, and progress rounds draw from the stream.
	lastFired bool
}

// replDomain is the replication campaign as a fault-plane domain.
func replDomain(cfg ReplConfig, res *ReplResult) faultplane.Domain {
	return faultplane.NewDomain("repl", "", func(seed uint64, rng *rand.Rand) (faultplane.World, error) {
		return newReplFuzzer(cfg, seed, rng, res)
	})
}

// RunRepl executes the campaign. The oracle after every crash: every
// checkpoint whose acknowledgement had arrived by the probe instant is
// promotable on the standby with the exact audit digest the primary
// recorded for it, the promotion is deterministic under retry, and the
// restored primary is never behind the acknowledged replica.
func RunRepl(cfg ReplConfig) (ReplResult, error) {
	cfg.fill()
	var res ReplResult
	st, err := faultplane.RunCampaign(
		faultplane.Spec{Seeds: cfg.Seeds, RoundsPerSeed: cfg.CrashesPerSeed},
		replDomain(cfg, &res))
	res.CrashesFired = st.Injections
	res.Restores = st.Recoveries
	return res, err
}

// Finish folds the seed's replicator traffic counters.
func (f *replFuzzer) Finish() error {
	res := f.res
	res.Deltas += f.rep.Stats.Deltas
	res.FullSyncs += f.rep.Stats.FullSyncs
	res.BytesSent += f.rep.Stats.BytesSent
	res.Checkpoints += f.m.Ckpt.Stats.Checkpoints
	return f.m.Alloc.CheckInvariants()
}

func newReplFuzzer(cfg ReplConfig, seed uint64, rng *rand.Rand, res *ReplResult) (*replFuzzer, error) {
	mcfg := kernel.DefaultConfig()
	mcfg.Cores = 2
	mcfg.CheckpointEvery = 0 // rounds checkpoint explicitly
	mcfg.Seed = seed
	mcfg.Mem.Persist = cfg.Mode
	mcfg.Mem.CrashSeed = seed
	mcfg.Audit = true
	mcfg.Checkpoint.Method = cfg.Method
	mcfg.Checkpoint.HybridCopy = cfg.Hybrid
	mcfg.Checkpoint.Replicas = cfg.Replicas
	mcfg.Checkpoint.DisableChecksums = cfg.DisableChecksums
	m := kernel.New(mcfg)

	srv, err := kvstore.NewServer(m, kvstore.ServerConfig{
		Name:      "kv",
		Threads:   2,
		HeapPages: 64,
		Buckets:   32,
	})
	if err != nil {
		return nil, err
	}
	rep := repl.Attach(m, nil, repl.Config{FullSyncEvery: replFullSyncEvery})
	f := &replFuzzer{cfg: cfg, rng: rng, res: res, m: m, srv: srv, rep: rep}
	f.m.TakeCheckpoint() // base state: replicated as the first full sync
	f.registerOracles()
	return f, nil
}

// registerOracles wires the post-restore replication invariants in their
// legacy check order: audit, then acknowledged-coverage. The failover
// probes themselves run inside Round — they must observe the crash instant,
// before the primary restores.
func (f *replFuzzer) registerOracles() {
	r := f.Oracles()
	r.Register("audit", func() error { return checkAudit(f.m) })
	r.Register("acked-covered", f.checkAckedCovered)
}

// Now reports simulated time for engine trace instants.
func (f *replFuzzer) Now() simclock.Time { return f.m.Now() }

// Machine exposes the primary to composition overlays.
func (f *replFuzzer) Machine() *kernel.Machine { return f.m }

// Replicator exposes the primary's replicator to composition overlays.
func (f *replFuzzer) Replicator() *repl.Replicator { return f.rep }

// checkAckedCovered holds the restored primary to the replication contract:
// the primary commits locally before the standby can acknowledge, so a
// restored primary behind the acknowledged replica would mean the local
// persistence layer lost a checkpoint the world already saw.
func (f *replFuzzer) checkAckedCovered() error {
	if got := f.m.Ckpt.CommittedVersion(); got < f.ackedAtCrash {
		return fmt.Errorf("restored primary at v%d behind acknowledged replica v%d", got, f.ackedAtCrash)
	}
	return nil
}

// step runs one traffic round: a handful of SETs then a checkpoint (which
// replicates its delta). An armed countdown lands the failure inside a
// SET's stores, the checkpoint walk, or the commit sequence.
func (f *replFuzzer) step() error {
	f.round++
	for i := 0; i < replWritesPerRound; i++ {
		key := fmt.Sprintf("k%d", f.rng.Intn(24))
		val := fmt.Sprintf("r%d-%d", f.round, i)
		if _, _, err := f.srv.Set(f.rng.Intn(2), []byte(key), []byte(val)); err != nil {
			return err
		}
	}
	f.m.TakeCheckpoint()
	return nil
}

// Round injects one power failure at a random persistence-event
// countdown; the engine runs the post-restore oracle registry next.
func (f *replFuzzer) Round(rng *rand.Rand, round int) (bool, error) {
	var err error
	f.lastFired, err = f.inject(uint64(1+f.rng.Intn(f.cfg.EventWindow)), f.cfg.StepsPerCrash)
	return f.lastFired, err
}

// inject arms a power failure k persistence events ahead and runs up to n
// traffic rounds until it fires. A fired failure crashes the primary,
// probes failover on the replication boundaries at the crash instant, and
// restores.
func (f *replFuzzer) inject(k uint64, n int) (bool, error) {
	fired, err := armed(f.m, k, n, f.step)
	if err != nil || !fired {
		return false, err
	}
	if err := f.RunPreCrash(); err != nil {
		return false, err
	}
	f.m.Crash()
	// The ledger is the standby's view; it survives the primary's power
	// failure.
	if f.ackedAtCrash, err = f.probeFailovers(); err != nil {
		return true, err
	}
	if err := f.m.Restore(); err != nil {
		return true, fmt.Errorf("restore: %w", err)
	}
	return true, nil
}

// PostRound runs un-armed progress after a fired crash: new rounds
// re-establish replication (the restore forces the next delta to be a full
// sync) before the next injection.
func (f *replFuzzer) PostRound(rng *rand.Rand) error {
	if !f.lastFired {
		return nil
	}
	for step := 0; step < 3; step++ {
		if err := f.step(); err != nil {
			return err
		}
	}
	return nil
}

// probeFailovers applies the replication oracle at the crash instant and
// on each replication boundary of a randomly chosen ledger entry. Returns
// the acknowledged version at the crash instant.
func (f *replFuzzer) probeFailovers() (uint64, error) {
	res := f.res
	now := f.m.Now()
	probes := []simclock.Time{now}
	if lg := f.rep.Ledger(); len(lg) > 0 {
		e := lg[f.rng.Intn(len(lg))]
		// Mid-delta-send: the frame departed but has not fully arrived.
		if e.Arrive > e.Depart {
			probes = append(probes, e.Depart.Add(simclock.Duration(f.rng.Int63n(int64(e.Arrive-e.Depart)))))
			res.MidSendProbes++
		}
		// Delta applied on the standby, acknowledgement still in flight.
		if e.AckArrive > e.Arrive {
			probes = append(probes, e.Arrive.Add(simclock.Duration(f.rng.Int63n(int64(e.AckArrive-e.Arrive)))))
			res.UnackedProbes++
		}
		probes = append(probes, e.AckArrive)
	}
	ackedAtCrash := f.rep.AckedVersion(now)
	for _, t := range probes {
		promoted, err := probeFailover(f.rep, t, &res.NoAckedAtProbe)
		if err != nil {
			return ackedAtCrash, fmt.Errorf("probe t=%d: %w", t, err)
		}
		if promoted {
			res.Failovers++
		}
	}
	return ackedAtCrash, nil
}

// ReplOneShot runs a single parameterized replication crash injection — the
// entry point of FuzzReplCrashEvent. Boot a replicated machine with the
// given seed and copy variant, arm a power failure eventK persistence events
// ahead, run up to steps traffic rounds, and if the failure fired, probe the
// replication boundaries, restore, and run the oracle registry. A run where
// the countdown never fires is a valid (uninteresting) input, not an error.
func ReplOneShot(mode mem.PersistMode, variant uint8, seed, eventK uint64, steps uint16) error {
	cfg := ReplConfig{Mode: mode, StepsPerCrash: 24}
	switch variant % 3 {
	case 0:
		cfg.Method = checkpoint.MethodCOW
	case 1:
		cfg.Method = checkpoint.MethodStopAndCopy
	case 2:
		cfg.Method, cfg.Hybrid = checkpoint.MethodCOW, true
	}
	cfg.fill()
	f, err := newReplFuzzer(cfg, seed, faultplane.Stream(seed, ""), &ReplResult{})
	if err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	fired, err := f.inject(eventK%uint64(cfg.EventWindow)+1, int(steps)%cfg.StepsPerCrash+1)
	return checkOneShot(f, fired, err)
}
