package crashfuzz

// Cluster crash campaign: a multi-shard fleet runs through the consistent-
// hash router while failures — whole-cluster power loss, single-shard
// crashes, coordinator loss — are injected at randomized cluster-event
// indices. Because the cut protocol advances one micro-action per event,
// the injections land on every protocol boundary: mid-route (traffic in
// flight, no round), shard-prepared-but-uncut (a prepare reported, the cut
// not yet announced), and mid-cut-announce (announced but not fully
// published/released). The oracle after every recovery is the cluster-wide
// external-synchrony invariant: recovery lands on a previously announced
// cut whose digests verify, no gate has released beyond the cut, and no
// client holds an acknowledgement the recovered keyspace cannot justify.

import (
	"errors"
	"fmt"
	"math/rand"

	"treesls/internal/cluster"
	"treesls/internal/faultplane"
	"treesls/internal/mem"
)

// ClusterConfig parameterizes a cluster crash campaign.
type ClusterConfig struct {
	// Mode is the persistence model of every shard.
	Mode mem.PersistMode
	// Seeds are the cluster/damage seeds; each seed gets its own cluster.
	Seeds []uint64
	// CrashesPerSeed is how many injections to attempt per seed (default
	// 24, below the shared default: every cluster round boots
	// clusterShards whole machines through an up-to-800-micro-step
	// window, so the shared 40 would roughly double the campaign's CI
	// cost for coverage the target/boundary rotation already reaches by
	// 24).
	CrashesPerSeed int
	// Replicate attaches a per-shard replicator streaming each shard's
	// checkpoints to a hot standby (used by composed campaigns that probe
	// failover under cluster crashes).
	Replicate bool
	// Ungated drops the shards' extsync gates — the unsafe ablation
	// baseline the composed conviction tests use. The justification oracle
	// then convicts the first acknowledgement a recovery cannot cover.
	Ungated bool
}

// The cluster domain's fixed shape.
const (
	// clusterShards is the cluster size.
	clusterShards = 2
	// clusterEventWindow bounds the random event countdown: cluster events
	// (cut-protocol micro-actions) are far sparser than NVM persistence
	// events, and a 96-event window would routinely outlast the step
	// budget, converting boundary crashes into expired countdowns.
	clusterEventWindow = 40
	// clusterStepsPerCrash bounds micro-steps while waiting for a
	// countdown to elapse: a micro-step is one packet hop or one protocol
	// action across the whole cluster, so the window needs many more of
	// them than a single machine's workload does.
	clusterStepsPerCrash = 800
)

func (c *ClusterConfig) fill() {
	if c.CrashesPerSeed == 0 {
		c.CrashesPerSeed = 24
	}
}

// ClusterResult aggregates a cluster crash campaign. A returned result
// always reflects zero invariant violations — the first violation aborts
// the campaign with an error.
type ClusterResult struct {
	// CrashesFired / Recoveries count injections and completed recoveries.
	CrashesFired int
	Recoveries   int
	// PowerCrashes / ShardCrashes / CoordCrashes break injections down by
	// target.
	PowerCrashes int
	ShardCrashes int
	CoordCrashes int
	// MidRoute / PreparedUncut / MidAnnounce classify the protocol
	// boundary each crash landed on.
	MidRoute      int
	PreparedUncut int
	MidAnnounce   int
	// Acked / Retransmits / Released across all seeds.
	Acked       uint64
	Retransmits uint64
	Released    uint64
	// Rounds completed and RollForwards performed across all seeds.
	Rounds       uint64
	RollForwards uint64
	// AuditChecks across all shards and seeds.
	AuditChecks uint64
}

// clusterFuzzer is the per-seed world: one cluster plus its fleet.
type clusterFuzzer struct {
	clusterBase
	res *ClusterResult
}

// clusterDomain is the cluster campaign as a fault-plane domain.
func clusterDomain(cfg ClusterConfig, res *ClusterResult) faultplane.Domain {
	return faultplane.NewDomain("cluster", "", func(seed uint64, rng *rand.Rand) (faultplane.World, error) {
		return newClusterFuzzer(cfg, seed, rng, res)
	})
}

// RunCluster executes the campaign.
func RunCluster(cfg ClusterConfig) (ClusterResult, error) {
	cfg.fill()
	var res ClusterResult
	st, err := faultplane.RunCampaign(
		faultplane.Spec{Seeds: cfg.Seeds, RoundsPerSeed: cfg.CrashesPerSeed},
		clusterDomain(cfg, &res))
	res.CrashesFired = st.Injections
	res.Recoveries = st.Recoveries
	return res, err
}

// Finish folds the seed's traffic and protocol counters.
func (f *clusterFuzzer) Finish() error {
	res := f.res
	res.Acked += f.fleet.TotalAcked()
	res.Retransmits += f.fleet.Retransmits
	for _, s := range f.c.Shards {
		if s.Drv != nil {
			res.Released += s.Drv.Stats.Delivered
		}
		if s.M.Auditor != nil {
			res.AuditChecks += s.M.Auditor.Checks
		}
		if err := s.M.Alloc.CheckInvariants(); err != nil {
			return err
		}
	}
	res.Rounds += f.c.Stats.Rounds
	res.RollForwards += f.c.Stats.RollForwards
	return nil
}

// Crash targets: 0 = power, 1 = coordinator, 2+i = shard i.
func targetName(target int) string {
	switch target {
	case 0:
		return "power"
	case 1:
		return "coord"
	default:
		return fmt.Sprintf("shard%d", (target-2)%clusterShards)
	}
}

func newClusterFuzzer(cfg ClusterConfig, seed uint64, rng *rand.Rand, res *ClusterResult) (*clusterFuzzer, error) {
	b, err := newClusterBase(cluster.Config{
		Shards:    clusterShards,
		Gated:     !cfg.Ungated,
		Persist:   cfg.Mode,
		Seed:      seed,
		Audit:     true,
		Replicate: cfg.Replicate,
	}, rng)
	if err != nil {
		return nil, err
	}
	f := &clusterFuzzer{clusterBase: b, res: res}
	f.registerOracles()
	return f, nil
}

// registerOracles wires the cluster-wide external-synchrony invariant set
// in its legacy check order: cut digests, release coverage, acknowledgement
// justification, client FIFO, duplicate acks, per-shard audit.
func (f *clusterFuzzer) registerOracles() {
	f.registerCut()
	r := f.Oracles()
	r.Register("extsync-justified", func() error { return checkJustified(f.fleet.CheckJustified()) })
	r.Register("client-fifo", func() error { return checkFIFO(f.fleet.Violations) })
	r.Register("dup-acks", func() error { return checkDupAcks(f.fleet.DupAcks) })
	r.Register("shard-audit", func() error {
		for i, s := range f.c.Shards {
			if err := checkAudit(s.M); err != nil {
				return fmt.Errorf("shard %d %w", i, err)
			}
		}
		return nil
	})
}

// classify records which protocol boundary the crash landed on.
func (f *clusterFuzzer) classify() {
	res := f.res
	switch f.c.CurrentPhase() {
	case cluster.PhaseAnnounce, cluster.PhasePublish, cluster.PhaseRelease:
		res.MidAnnounce++
		return
	case cluster.PhasePrepare:
		for _, s := range f.c.Shards {
			if s.M.Ckpt.PreparedVersion() != 0 {
				res.PreparedUncut++
				return
			}
		}
	}
	res.MidRoute++
}

// Round rotates the crash target rng-driven (so the interleaving of targets
// and boundaries varies per seed), then waits out a random event countdown
// and injects; the engine runs the oracle registry next.
func (f *clusterFuzzer) Round(rng *rand.Rand, round int) (bool, error) {
	target := f.rng.Intn(2 + clusterShards)
	fired, err := f.crashOnce(target)
	if err != nil {
		return fired, fmt.Errorf("%s: %w", targetName(target), attributeCutDigest(err))
	}
	return fired, nil
}

// attributeCutDigest turns a typed cut-digest mismatch detected inside the
// recovery procedure itself (PowerFail verifies the cut before handing the
// cluster back) into a conviction of the registered "cut-verified" oracle:
// it is the same invariant the registry re-checks after every round, just
// caught one step earlier.
func attributeCutDigest(err error) error {
	var de *cluster.CutDigestError
	if errors.As(err, &de) {
		return &faultplane.Conviction{Oracle: "cut-verified", Err: err}
	}
	return err
}

// crashOnce waits a random event countdown, then injects the failure and
// runs the recovery procedure for the target. Oracle checks are the
// engine's job (or the caller's, for the one-shot entry point).
func (f *clusterFuzzer) crashOnce(target int) (bool, error) {
	fired, err := f.runTo(f.c.Events()+uint64(1+f.rng.Intn(clusterEventWindow)), clusterStepsPerCrash)
	if err != nil || !fired {
		return false, err
	}
	f.classify()
	switch target {
	case 0:
		return true, f.crash(victimPower, &f.res.PowerCrashes)
	case 1:
		return true, f.crash(victimCoord, &f.res.CoordCrashes)
	default:
		return true, f.crash((target-2)%clusterShards, &f.res.ShardCrashes)
	}
}

// ClusterOneShot runs a single parameterized cluster crash injection — the
// entry point of FuzzClusterCrashEvent. Boot a gated cluster+fleet with the
// given seed, wait eventK cluster events, inject the failure against the
// fuzzed target, recover, and apply the oracle. A run where the countdown
// never elapses within the step budget is a valid (uninteresting) input.
// (Historical quirk, preserved: the fuzzed countdown gates a second,
// rng-drawn countdown inside crashOnce.)
func ClusterOneShot(mode mem.PersistMode, seed, eventK uint64, target uint8, steps uint16) error {
	f, err := newClusterFuzzer(ClusterConfig{Mode: mode}, seed, faultplane.Stream(seed, ""), &ClusterResult{})
	if err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	fired, err := f.runTo(f.c.Events()+eventK%clusterEventWindow+1, int(steps)%clusterStepsPerCrash+1)
	if err != nil || !fired {
		return err
	}
	fired, err = f.crashOnce(int(target) % (2 + clusterShards))
	return checkOneShot(f, fired, err)
}
