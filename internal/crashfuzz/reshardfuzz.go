package crashfuzz

// Reshard crash campaign: a gated cluster runs elastic scale-out and
// scale-in epochs under fleet traffic while failures — power loss, a source
// shard, the joining/leaving destination, or the coordinator that owns the
// migration plan — are injected at the epoch's protocol boundaries. The
// boundaries are walked deterministically per injection (mid-stream,
// keys-installed-but-uncut, mid-ring-announce, post-commit) with rng jitter
// inside each window, so every crash class is provably exercised. The
// oracle after every recovery: the cluster sits on a whole ring (exactly
// the old one if the crash preceded the commit announcement, exactly the
// new one otherwise — never a mix), the newest cut verifies, no gate
// released beyond the cut, no client holds an unjustifiable
// acknowledgement, and no acknowledged request was served by a shard the
// ring did not point at.

import (
	"fmt"
	"math/rand"

	"treesls/internal/cluster"
	"treesls/internal/faultplane"
	"treesls/internal/mem"
)

// Crash classes a reshard injection lands on.
const (
	classMidStream      = iota // scanning/streaming: plan forming, keys in flight
	classInstalledUncut        // commit round open, keys at dest, cut not announced
	classMidAnnounce           // ring change announced, publish/release unfinished
	classPostCommit            // epoch complete: a plain crash on the new ring
	classCount
)

func className(class int) string {
	switch class {
	case classMidStream:
		return "mid-stream"
	case classInstalledUncut:
		return "installed-uncut"
	case classMidAnnounce:
		return "mid-announce"
	default:
		return "post-commit"
	}
}

// ReshardConfig parameterizes a reshard crash campaign.
type ReshardConfig struct {
	// Mode is the persistence model of every shard.
	Mode mem.PersistMode
	// Seeds are the cluster/traffic seeds; each seed gets its own cluster.
	Seeds []uint64
	// ReshardsPerSeed is how many crash-injected epochs to run per seed
	// (default 8: an epoch is the domain's whole unit of work — scan,
	// stream, commit, announce, plus recovery — so 8 epochs already cover
	// each of the 4 crash classes twice per seed; the shared 40 would
	// multiply the most expensive campaign's CI cost fivefold).
	ReshardsPerSeed int
	// Replicas keeps redundant backup copies on every shard;
	// DisableChecksums runs the media ablation baseline. Used by composed
	// campaigns that stack media faults on reshard epochs.
	Replicas         int
	DisableChecksums bool
}

// The reshard domain's fixed shape.
const (
	// reshardShards is the starting cluster size.
	reshardShards = 3
	// reshardStepsPerCrash bounds micro-steps while driving an epoch to the
	// desired crash class: reaching a late class like mid-announce means
	// marching an entire migration through scan and stream first,
	// micro-step by micro-step.
	reshardStepsPerCrash = 4000
)

func (c *ReshardConfig) fill() {
	if c.ReshardsPerSeed == 0 {
		c.ReshardsPerSeed = 8
	}
}

// ReshardResult aggregates a reshard crash campaign. A returned result
// always reflects zero invariant violations — the first violation aborts
// the campaign with an error.
type ReshardResult struct {
	// CrashesFired / Recoveries count injections and completed recoveries.
	CrashesFired int
	Recoveries   int
	// Adds / Removes break the injected epochs down by direction.
	Adds    int
	Removes int
	// MidStream / InstalledUncut / MidAnnounce / PostCommit classify the
	// boundary each crash landed on.
	MidStream      int
	InstalledUncut int
	MidAnnounce    int
	PostCommit     int
	// PowerCrashes / CoordCrashes / SourceCrashes / DestCrashes break
	// injections down by target.
	PowerCrashes  int
	CoordCrashes  int
	SourceCrashes int
	DestCrashes   int
	// RolledBack / RolledForward count epochs that converged to the old
	// ring and the new one.
	RolledBack    int
	RolledForward int
	// Migrations / MigrationsAborted / KeysMoved across all seeds, from
	// the clusters' own stats.
	Migrations        uint64
	MigrationsAborted uint64
	KeysMoved         uint64
	// Acked across all seeds.
	Acked uint64
}

// reshardFuzzer is the per-seed world: one elastic cluster plus its fleet.
type reshardFuzzer struct {
	clusterBase
	res *ReshardResult

	// Per-epoch oracle context: the rings before and after the epoch,
	// recorded when it opens, and which one the recovery must converge
	// to, fixed the instant the failure lands rather than when the oracle
	// runs.
	wantForward            bool
	oldV, newV             uint64
	oldMembers, newMembers []int
}

// reshardDomain is the reshard campaign as a fault-plane domain.
func reshardDomain(cfg ReshardConfig, res *ReshardResult) faultplane.Domain {
	return faultplane.NewDomain("reshard", "", func(seed uint64, rng *rand.Rand) (faultplane.World, error) {
		return newReshardFuzzer(cfg, seed, rng, res)
	})
}

// RunReshard executes the campaign.
func RunReshard(cfg ReshardConfig) (ReshardResult, error) {
	cfg.fill()
	var res ReshardResult
	st, err := faultplane.RunCampaign(
		faultplane.Spec{Seeds: cfg.Seeds, RoundsPerSeed: cfg.ReshardsPerSeed},
		reshardDomain(cfg, &res))
	res.CrashesFired = st.Injections
	res.Recoveries = st.Recoveries
	return res, err
}

// Finish folds the seed's traffic and migration counters.
func (f *reshardFuzzer) Finish() error {
	res := f.res
	res.Acked += f.fleet.TotalAcked()
	res.Migrations += f.c.Stats.Migrations
	res.MigrationsAborted += f.c.Stats.MigrationsAborted
	res.KeysMoved += f.c.Stats.KeysMoved
	for _, s := range f.c.Shards {
		if err := s.M.Alloc.CheckInvariants(); err != nil {
			return err
		}
	}
	return nil
}

// Crash targets: 0 = power, 1 = coordinator, 2 = a source shard, 3 = the
// epoch's destination (the joining or leaving shard).
const (
	reshardTargetPower = iota
	reshardTargetCoord
	reshardTargetSource
	reshardTargetDest
	reshardTargetCount
)

func reshardTargetName(target int) string {
	switch target {
	case reshardTargetPower:
		return "power"
	case reshardTargetCoord:
		return "coord"
	case reshardTargetSource:
		return "source"
	default:
		return "dest"
	}
}

func newReshardFuzzer(cfg ReshardConfig, seed uint64, rng *rand.Rand, res *ReshardResult) (*reshardFuzzer, error) {
	b, err := newClusterBase(cluster.Config{
		Shards:           reshardShards,
		Gated:            true,
		Persist:          cfg.Mode,
		Seed:             seed,
		Replicas:         cfg.Replicas,
		DisableChecksums: cfg.DisableChecksums,
	}, rng)
	if err != nil {
		return nil, err
	}
	f := &reshardFuzzer{clusterBase: b, res: res}
	f.registerOracles()
	return f, nil
}

// registerOracles wires the reshard invariant set in its legacy check
// order: whole-ring convergence, migration settlement, cut digests, release
// coverage, acknowledgement justification, sole ownership, client FIFO,
// duplicate acks.
func (f *reshardFuzzer) registerOracles() {
	r := f.Oracles()
	r.Register("ring-convergence", func() error {
		if f.wantForward {
			if err := checkRing(f.c, f.newV, f.newMembers); err != nil {
				return fmt.Errorf("post-announce crash did not roll forward: %w", err)
			}
			return nil
		}
		if err := checkRing(f.c, f.oldV, f.oldMembers); err != nil {
			return fmt.Errorf("pre-announce crash did not roll back whole: %w", err)
		}
		return nil
	})
	r.Register("migration-settled", func() error {
		if f.c.MigrationInFlight() {
			return fmt.Errorf("migration still in flight after recovery")
		}
		return nil
	})
	f.registerCut()
	r.Register("extsync-justified", func() error { return checkJustified(f.fleet.CheckJustified()) })
	r.Register("sole-owner", func() error {
		twoOwner, err := f.fleet.CheckSoleOwner()
		if err != nil {
			return err
		}
		if len(twoOwner) > 0 {
			return fmt.Errorf("two-owner serve: %s", twoOwner[0])
		}
		return nil
	})
	r.Register("client-fifo", func() error { return checkFIFO(f.fleet.Violations) })
	r.Register("dup-acks", func() error { return checkDupAcks(f.fleet.DupAcks) })
}

// classOf maps the live migration status to a crash class.
func classOf(st cluster.MigrationStatus) int {
	switch {
	case !st.Active:
		return classPostCommit
	case st.Announced:
		return classMidAnnounce
	case st.Phase == cluster.MigCommit:
		return classInstalledUncut
	default:
		return classMidStream
	}
}

// startEpoch opens a scale-out or scale-in epoch, keeping the membership
// between 2 and Shards+2 so both directions keep occurring. It returns the
// destination shard id.
func (f *reshardFuzzer) startEpoch() (int, error) {
	members := f.c.Ring.Members()
	add := f.rng.Intn(2) == 0
	if len(members) <= 2 {
		add = true
	} else if len(members) >= reshardShards+2 {
		add = false
	}
	if add {
		return f.c.StartAddShard()
	}
	victim := members[f.rng.Intn(len(members))]
	return victim, f.c.StartRemoveShard(victim)
}

// Round runs one crash-injected epoch. The crash class rotates with the
// round index so every boundary is exercised; the target rotates against it
// rng-driven so (class, target) pairs interleave across rounds and seeds.
// The engine runs the oracle registry — including whole-ring convergence —
// after the injection.
func (f *reshardFuzzer) Round(rng *rand.Rand, round int) (bool, error) {
	class := round % classCount
	target := f.rng.Intn(reshardTargetCount)
	if err := f.oneEpoch(class, target); err != nil {
		return false, fmt.Errorf("%s, %s: %w", className(class), reshardTargetName(target), attributeCutDigest(err))
	}
	return true, nil
}

// oneEpoch starts a reshard, drives it to the requested crash class (with
// rng jitter inside the class window), injects the failure, and stashes the
// convergence obligation for the oracles.
func (f *reshardFuzzer) oneEpoch(class, target int) error {
	res := f.res
	// Recovery can leave a re-driven round in flight; an epoch only opens
	// on an idle protocol.
	for step := 0; f.c.CurrentPhase() != cluster.PhaseIdle; step++ {
		if step >= reshardStepsPerCrash {
			return fmt.Errorf("round never drained to idle")
		}
		if _, err := f.fleet.Advance(); err != nil {
			return err
		}
	}
	dest, err := f.open(f.startEpoch)
	if err != nil {
		return err
	}
	if f.c.MigrationStatus().Add {
		res.Adds++
	} else {
		res.Removes++
	}

	// Drive to the crash class. Every class is reachable: an epoch starts
	// in MigScan and marches scan -> stream -> commit -> announce -> done.
	reached := false
	for step := 0; step < reshardStepsPerCrash; step++ {
		if classOf(f.c.MigrationStatus()) == class {
			reached = true
			break
		}
		if _, err := f.fleet.Advance(); err != nil {
			return err
		}
	}
	if !reached {
		return fmt.Errorf("crash class never reached within %d steps", reshardStepsPerCrash)
	}
	// Jitter inside the class window so the crash lands on varying
	// micro-actions, not always the window's first.
	for f.rng.Intn(3) != 0 && classOf(f.c.MigrationStatus()) == class {
		if _, err := f.fleet.Advance(); err != nil {
			return err
		}
	}

	switch classOf(f.c.MigrationStatus()) {
	case classMidStream:
		res.MidStream++
	case classInstalledUncut:
		res.InstalledUncut++
	case classMidAnnounce:
		res.MidAnnounce++
	default:
		res.PostCommit++
	}
	if err := f.inject(target, dest); err != nil {
		return err
	}
	if f.wantForward {
		res.RolledForward++
	} else {
		res.RolledBack++
	}
	return nil
}

// open runs start to open an epoch and records the ring before it and the
// ring it commits to. It returns the epoch's destination shard.
func (f *reshardFuzzer) open(start func() (int, error)) (int, error) {
	oldV, oldMembers := f.c.Ring.Version(), f.c.Ring.Members()
	dest, err := start()
	if err != nil {
		return 0, err
	}
	st := f.c.MigrationStatus()
	f.oldV, f.oldMembers = oldV, oldMembers
	f.newV, f.newMembers = st.NewRing, ringAfter(oldMembers, dest, st.Add)
	return dest, nil
}

// inject fixes the convergence obligation at the crash instant (announced
// or complete rolls forward, anything earlier rolls back whole), then
// fails target in the epoch whose destination is dest.
func (f *reshardFuzzer) inject(target, dest int) error {
	st := f.c.MigrationStatus()
	f.wantForward = !st.Active || st.Announced
	switch target {
	case reshardTargetPower:
		return f.crash(victimPower, &f.res.PowerCrashes)
	case reshardTargetCoord:
		return f.crash(victimCoord, &f.res.CoordCrashes)
	case reshardTargetSource:
		// A shard that held keys before the epoch: the first old member
		// that is not the destination.
		src := f.oldMembers[0]
		if src == dest && len(f.oldMembers) > 1 {
			src = f.oldMembers[1]
		}
		return f.crash(src, &f.res.SourceCrashes)
	default:
		return f.crash(dest, &f.res.DestCrashes)
	}
}

// PostRound lets the world breathe between epochs so the next one starts
// from settled traffic rather than the recovery's doorstep.
func (f *reshardFuzzer) PostRound(rng *rand.Rand) error {
	for i, n := 0, 20+f.rng.Intn(40); i < n; i++ {
		if _, err := f.fleet.Advance(); err != nil {
			return err
		}
	}
	return nil
}

// ringAfter computes the committed epoch's membership from the old one.
func ringAfter(oldMembers []int, dest int, add bool) []int {
	var out []int
	for _, m := range oldMembers {
		if !add && m == dest {
			continue
		}
		out = append(out, m)
	}
	if add {
		out = append(out, dest)
	}
	return out
}

// checkRing asserts the live ring is exactly (version, members).
func checkRing(c *cluster.Cluster, v uint64, members []int) error {
	if c.Ring.Version() != v {
		return fmt.Errorf("ring v%d, want v%d", c.Ring.Version(), v)
	}
	got := c.Ring.Members()
	if len(got) != len(members) {
		return fmt.Errorf("ring members %v, want %v", got, members)
	}
	want := map[int]bool{}
	for _, m := range members {
		want[m] = true
	}
	for _, m := range got {
		if !want[m] {
			return fmt.Errorf("ring members %v, want %v", got, members)
		}
	}
	return nil
}

// ReshardOneShot runs a single parameterized reshard crash injection — the
// entry point of FuzzReshardEvent. Boot a gated cluster+fleet, run a burst
// of warm-up traffic, open a scale-out (even seed) or scale-in (odd seed)
// epoch, crash the fuzzed target after an event countdown measured from the
// epoch's start, recover, and apply the full oracle including whole-ring
// convergence. A countdown that outlives the step budget is a valid
// (uninteresting) input.
func ReshardOneShot(mode mem.PersistMode, seed, eventK uint64, target uint8, steps uint16) error {
	f, err := newReshardFuzzer(ReshardConfig{Mode: mode}, seed, faultplane.Stream(seed, ""), &ReshardResult{})
	if err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	// Warm-up: populate the stores so the epoch has keys to move.
	for i := 0; i < 60; i++ {
		if _, err := f.fleet.Advance(); err != nil {
			return err
		}
	}
	dest, err := f.open(func() (int, error) {
		if seed%2 == 0 {
			return f.c.StartAddShard()
		}
		members := f.c.Ring.Members()
		dest := members[int(seed/2)%len(members)]
		return dest, f.c.StartRemoveShard(dest)
	})
	if err != nil {
		return err
	}
	fired, err := f.runTo(f.c.Events()+eventK%96+1, int(steps)%reshardStepsPerCrash+1)
	if err != nil || !fired {
		return err
	}
	return checkOneShot(f, true, f.inject(int(target)%reshardTargetCount, dest))
}
