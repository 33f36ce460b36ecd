package crashfuzz

// The plumbing every crash domain shares. A domain keeps only its own
// choreography (what it builds, where it injects, which oracles it
// registers) and takes the rest from here: arming a power failure over a
// stretch of work, crashing a restore, the auditor's verdict, the
// client-side external-synchrony oracles, the standby failover probe, and
// the cluster world the cluster and reshard domains both drive.

import (
	"fmt"
	"math/rand"

	"treesls/internal/cluster"
	"treesls/internal/faultplane"
	"treesls/internal/kernel"
	"treesls/internal/repl"
	"treesls/internal/simclock"
)

// armed arms a power failure k persistence events ahead on m, runs step up
// to n times until the failure fires, then disarms. A run that ends before
// the countdown elapses did not fire; that is not an error.
func armed(m *kernel.Machine, k uint64, n int, step func() error) (fired bool, err error) {
	m.Memory.ArmCrashAfter(k)
	defer m.Memory.DisarmCrash()
	for i := 0; i < n && !fired; i++ {
		if fired, err = faultplane.CatchCrash(step); err != nil {
			return false, err
		}
	}
	return fired, nil
}

// restoreUnderCrash restores m with a power failure armed k persistence
// events ahead and reports whether it fired mid-restore, leaving m crashed
// again. A restore that completes first leaves m running.
func restoreUnderCrash(m *kernel.Machine, k uint64) (bool, error) {
	fired, err := armed(m, k, 1, m.Restore)
	if err != nil {
		return false, fmt.Errorf("restore (armed): %w", err)
	}
	if fired {
		m.Crash()
	}
	return fired, nil
}

// checkOneShot runs w's oracle registry after a one-shot injection that
// fired. A countdown that never fired is a valid, uninteresting input.
func checkOneShot(w faultplane.World, fired bool, err error) error {
	if err != nil || !fired {
		return err
	}
	_, err = w.Oracles().Check()
	return err
}

// checkAudit surfaces the state-digest auditor's last verdict on m; a
// machine without an auditor passes.
func checkAudit(m *kernel.Machine) error {
	if la := m.LastAudit; m.Auditor != nil && !la.Ok() {
		return fmt.Errorf("audit at %s: %d violation(s), first: %s",
			la.Where, len(la.Violations), la.Violations[0])
	}
	return nil
}

// checkJustified is the extsync-justified oracle over a fleet's
// CheckJustified result: no client holds an acknowledgement the recovered
// state cannot justify.
func checkJustified(bad []string, err error) error {
	if err != nil {
		return err
	}
	if len(bad) > 0 {
		return fmt.Errorf("released-but-unjustified response: %s", bad[0])
	}
	return nil
}

// checkFIFO is the client-fifo oracle: client-observed order never broke.
func checkFIFO(violations []string) error {
	if len(violations) > 0 {
		return fmt.Errorf("client FIFO violation: %s", violations[0])
	}
	return nil
}

// checkDupAcks is the dup-acks oracle: recovery never released a response
// a second time.
func checkDupAcks(dups uint64) error {
	if dups > 0 {
		return fmt.Errorf("%d duplicate acknowledgements after recovery", dups)
	}
	return nil
}

// probeFailover holds rep's standby to the replication contract at instant
// t. With no acknowledged checkpoint, promotion must refuse (counted in
// noAcked). An acknowledged one must promote to exactly the digest the
// primary recorded, and a retried promotion must land bit-identically:
// the mid-failover crash boundary, where the first standby build is
// abandoned and rebuilt from the same durable ledger. It reports whether
// the standby promoted.
func probeFailover(rep *repl.Replicator, t simclock.Time, noAcked *int) (bool, error) {
	acked := rep.AckedVersion(t)
	if acked == 0 {
		*noAcked++
		if _, err := rep.FailoverAt(t); err == nil {
			return false, fmt.Errorf("promoted a standby with no acknowledged checkpoint")
		}
		return false, nil
	}
	fo, err := rep.FailoverAt(t)
	if err != nil {
		return false, fmt.Errorf("acknowledged checkpoint v%d lost: %w", acked, err)
	}
	if fo.Version != acked {
		return false, fmt.Errorf("promoted v%d, acknowledged v%d", fo.Version, acked)
	}
	if fo.Digest != fo.ExpectedDigest {
		return false, fmt.Errorf("standby digest %016x != primary digest %016x at v%d",
			fo.Digest, fo.ExpectedDigest, fo.Version)
	}
	retry, err := rep.FailoverAt(t)
	if err != nil {
		return false, fmt.Errorf("failover retry: %w", err)
	}
	if retry.Version != fo.Version || retry.Digest != fo.Digest {
		return false, fmt.Errorf("failover retry diverged: v%d/%016x then v%d/%016x",
			fo.Version, fo.Digest, retry.Version, retry.Digest)
	}
	return true, nil
}

// The fleet every cluster world drives: 2 clients, each with 2 keys and a
// pipeline window of 2.
const (
	clusterClients       = 2
	clusterKeysPerClient = 2
	clusterWindow        = 2
)

// Crash victims other than a shard index (see clusterBase.crash).
const (
	victimPower = -1 // every shard at once
	victimCoord = -2 // the coordinator process
)

// clusterBase is the world the cluster and reshard domains share: one
// cluster, its unbounded fleet, and the composition plumbing. Overlays
// reach it through the clusterWorld interface.
type clusterBase struct {
	faultplane.Hooks
	rng   *rand.Rand
	c     *cluster.Cluster
	fleet *cluster.Fleet
	// victims records which shards the last injection crash-restored (all
	// of them for a power failure); overlays target faults there.
	victims []int
}

func newClusterBase(ccfg cluster.Config, rng *rand.Rand) (clusterBase, error) {
	c, err := cluster.New(ccfg)
	if err != nil {
		return clusterBase{}, err
	}
	fleet, err := cluster.NewFleet(c, cluster.FleetConfig{
		Clients:       clusterClients,
		KeysPerClient: clusterKeysPerClient,
		Requests:      0, // unbounded: the campaign decides when to stop
		Window:        clusterWindow,
		ValueBytes:    32,
		Seed:          int64(ccfg.Seed),
	})
	if err != nil {
		return clusterBase{}, err
	}
	return clusterBase{rng: rng, c: c, fleet: fleet}, nil
}

// registerCut registers the two cut oracles: the newest cut's digests
// verify, and no gate released beyond it.
func (b *clusterBase) registerCut() {
	b.Oracles().Register("cut-verified", func() error {
		return b.c.VerifyCut(b.c.Coord.Newest())
	})
	b.Oracles().Register("released-covered", b.c.ReleasedCovered)
}

// Now reports simulated time for engine trace instants.
func (b *clusterBase) Now() simclock.Time { return b.c.Shards[0].M.Now() }

// Cluster exposes the live cluster to composition overlays.
func (b *clusterBase) Cluster() *cluster.Cluster { return b.c }

// Victims reports the shard indices the last injection crash-restored.
func (b *clusterBase) Victims() []int { return b.victims }

// runTo advances the world one micro-action at a time until the cluster's
// event counter reaches deadline, taking at most n micro-actions. It
// reports whether the deadline was reached.
func (b *clusterBase) runTo(deadline uint64, n int) (bool, error) {
	for i := 0; i < n; i++ {
		if b.c.Events() >= deadline {
			return true, nil
		}
		if _, err := b.fleet.Advance(); err != nil {
			return false, err
		}
	}
	return false, nil
}

// crash fails victim (a shard index, victimPower or victimCoord) and runs
// its recovery. It records the victim shards, runs the pre-crash hooks,
// counts the crash in tally, fails the target, and resyncs the fleet with
// whatever the recovery rewound.
func (b *clusterBase) crash(victim int, tally *int) error {
	b.victims = b.victims[:0]
	switch victim {
	case victimPower:
		for i := range b.c.Shards {
			b.victims = append(b.victims, i)
		}
	case victimCoord:
	default:
		b.victims = append(b.victims, victim)
	}
	if err := b.RunPreCrash(); err != nil {
		return err
	}
	*tally++
	switch victim {
	case victimPower:
		if _, err := b.c.PowerFail(); err != nil {
			return err
		}
		b.fleet.ResyncAll()
	case victimCoord:
		return b.c.FailCoordinator()
	default:
		if err := b.c.FailShard(victim); err != nil {
			return err
		}
		b.fleet.ResyncShard(victim)
	}
	return nil
}
