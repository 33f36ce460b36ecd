// Command treesls-crashdemo narrates a whole-system crash/restore cycle:
// it boots a machine, runs a key-value store with 1 ms checkpointing and
// external synchrony, pulls the (virtual) power plug at a configurable
// moment, reboots, and shows what survived — and, crucially, what a client
// was never told about. With -shards N it narrates the cluster version
// instead: a consistent-hash sharded cluster loses power mid-traffic and
// recovers every shard onto one announced consistent cut.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"treesls/internal/apps/kvstore"
	"treesls/internal/cluster"
	"treesls/internal/crashfuzz"
	"treesls/internal/extsync"
	"treesls/internal/kernel"
	"treesls/internal/mem"
	"treesls/internal/obs"
	"treesls/internal/repl"
	"treesls/internal/simclock"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// run is the whole program against an explicit flag list and output stream,
// so the golden-file regression test can drive it byte for byte.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("treesls-crashdemo", flag.ContinueOnError)
	ops := fs.Int("ops", 500, "SET operations before the crash")
	extsyncOn := fs.Bool("extsync", true, "route responses through the external-synchrony driver")
	persist := fs.String("persist-mode", "eadr", "persistence model: eadr (stores durable on landing) or adr (explicit flush+fence required)")
	crashSeed := fs.Uint64("crash-seed", 1, "RNG seed for ADR crash damage (which unflushed lines drop or tear)")
	mediaFaults := fs.Int("media-faults", 0, "random NVM lines poisoned at each power failure (seeded by -crash-seed)")
	scrubInterval := fs.Duration("scrub-interval", 0, "background media-scrub period in simulated time (0 disables), e.g. 2ms")
	parallelWalk := fs.Bool("parallel-walk", true, "partition the checkpoint capability-tree walk across all lanes (false: serial reference walk)")
	replicate := fs.Bool("replicate", false, "stream checkpoint deltas to a hot standby and promote it at the crash")
	replMode := fs.String("repl-mode", "local", "replication durability contract: local (async standby) or remote (responses wait for the standby ack)")
	shards := fs.Int("shards", 0, "if > 0, narrate the sharded-cluster crash instead: N shards lose power mid-traffic and recover onto one consistent cut")
	reshard := fs.Bool("reshard", false, "with -shards: narrate an elastic scale-out — power fails mid-migration (whole rollback), then a clean retry commits the new ring")
	campaign := fs.String("campaign", "", "narrate a composed fault-plane campaign instead: media-reshard, repl-cluster, or media-repl (seeded by -crash-seed)")
	obsOpts := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	mode, err := mem.ParsePersistMode(*persist)
	if err != nil {
		return err
	}
	if *campaign != "" {
		return composedDemo(w, *campaign, mode, *crashSeed)
	}
	if *shards > 0 && *reshard {
		return reshardDemo(w, *shards, mode, *crashSeed)
	}
	if *shards > 0 {
		return clusterDemo(w, *shards, mode, *crashSeed, *replicate)
	}
	rmode, err := repl.ParseMode(*replMode)
	if err != nil {
		return err
	}
	cfg := kernel.DefaultConfig()
	cfg.Mem.Persist = mode
	cfg.Mem.CrashSeed = *crashSeed
	cfg.Mem.Media = mem.MediaFaultConfig{CrashFaults: *mediaFaults, Seed: *crashSeed}
	cfg.ScrubEvery = simclock.Duration(scrubInterval.Nanoseconds())
	cfg.Checkpoint.ParallelWalk = *parallelWalk
	ob := obsOpts.Observer()
	cfg.Obs = ob
	cfg.Audit = obsOpts.Audit
	m := kernel.New(cfg)
	fmt.Fprintf(w, "▸ booted TreeSLS machine: 8 cores, 1 ms whole-system checkpoints, %s persistency\n", mode)

	var drv *extsync.Driver
	acked := 0
	if *extsyncOn {
		var err error
		drv, err = extsync.NewDriver(m, 8192)
		if err != nil {
			return err
		}
		drv.SetDeliver(func(seq uint64, payload []byte, at simclock.Time) {
			acked++
		})
		fmt.Fprintln(w, "▸ external synchrony on: clients see an ack only after a checkpoint")
	}

	var rep *repl.Replicator
	if *replicate {
		rep = repl.Attach(m, drv, repl.Config{Mode: rmode})
		fmt.Fprintf(w, "▸ replication on (%s mode): every checkpoint streams a delta to the hot standby\n", rmode)
	}

	srv, err := kvstore.NewServer(m, kvstore.ServerConfig{
		Name: "kv", Threads: 4, HeapPages: 4096, Buckets: 2048, Ext: drv,
	})
	if err != nil {
		return err
	}

	// Run at least the requested ops AND long enough for several periodic
	// checkpoints, then keep a small uncommitted tail before the crash.
	i := 0
	for ; i < *ops || m.Now() < simclock.Time(5*simclock.Millisecond); i++ {
		key := fmt.Sprintf("key-%04d", i)
		_, _, err := srv.Set(i, []byte(key), []byte(fmt.Sprintf("value-%d", i)))
		if err != nil {
			return err
		}
	}
	m.SettleTo(m.NextCheckpointAt()) // release pending acks
	for tail := 0; tail < 7; tail++ {
		_, _, err := srv.Set(i, []byte(fmt.Sprintf("key-%04d", i)), []byte("doomed"))
		if err != nil {
			return err
		}
		i++
	}
	n, err := srv.Count()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "▸ stored %d keys; machine time %v; %d checkpoints taken so far\n",
		n, m.Now().Sub(0), m.Stats.Checkpoints)

	fmt.Fprintln(w, "▸ PULLING THE PLUG (DRAM and all runtime state are gone)")
	crashAt := m.Now()
	m.Crash()
	if mode == mem.ModeADR {
		fmt.Fprintf(w, "▸ ADR damage: %d unflushed lines at risk — %d dropped, %d torn\n",
			m.Memory.Stats.CrashLinesAtRisk, m.Memory.Stats.CrashLinesDropped, m.Memory.Stats.CrashLinesTorn)
	}
	if *mediaFaults > 0 {
		fmt.Fprintf(w, "▸ media damage: %d NVM lines poisoned by the power failure\n",
			m.Memory.Stats.PoisonedLines)
	}

	if rep != nil {
		st := rep.Stats
		fmt.Fprintf(w, "▸ replication at the crash: %d deltas shipped (%d full syncs), %d bytes, %d acks\n",
			st.Deltas, st.FullSyncs, st.BytesSent, st.Acks)
		if fo, err := rep.FailoverAt(crashAt); err != nil {
			fmt.Fprintf(w, "▸ standby promotion would refuse: %v\n", err)
		} else {
			fmt.Fprintf(w, "▸ had the whole primary been lost, the standby promotes at checkpoint v%d (acked v%d at the crash instant): %d folded deltas, digest match=%v\n",
				fo.Version, rep.AckedVersion(crashAt), fo.FoldedDeltas, fo.Digest == fo.ExpectedDigest)
		}
		fmt.Fprintln(w, "▸ the primary's NVM survived, so we restore locally instead")
	}

	if err := m.Restore(); err != nil {
		return err
	}
	n2, err := srv.Count()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "▸ rebooted from checkpoint version %d: %d keys survived\n",
		m.Ckpt.CommittedVersion(), n2)
	if man := m.Ckpt.Manifest(); man != nil && !man.Clean() {
		fmt.Fprintf(w, "▸ restore manifest: %d pages degraded to an older version, %d lost (rebuilt as zeros) — named, never silent\n",
			len(man.Degraded), len(man.Lost))
	}

	lost := int(n) - int(n2)
	if lost < 0 {
		lost = 0
	}
	fmt.Fprintf(w, "▸ %d keys from the last <1ms were rolled back", lost)
	if drv != nil {
		fmt.Fprintf(w, " — and NO client was ever acked for them (%d acks released, %d discarded)",
			acked, drv.Stats.Discarded)
	}
	fmt.Fprintln(w)

	// The machine keeps running.
	_, _, err = srv.Set(0, []byte("post-restore"), []byte("alive"))
	if err != nil {
		return err
	}
	_, v, ok, err := srv.Get(0, []byte("post-restore"))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "▸ server is live after reboot: post-restore=%q (found=%v)\n", v, ok)

	cs := m.Ckpt.Stats
	if *mediaFaults > 0 || *scrubInterval > 0 || cs.ReplicaRepair+cs.MetaRepairs+cs.DegradedRestores+cs.LostPages > 0 {
		fmt.Fprintf(w, "▸ robustness: %d poisoned reads detected, %d replica repairs, %d meta repairs, %d degraded, %d lost\n",
			m.Memory.Stats.PoisonedReads, cs.ReplicaRepair, cs.MetaRepairs, cs.DegradedRestores, cs.LostPages)
		if *scrubInterval > 0 {
			fmt.Fprintf(w, "▸ scrubber: %d passes, %d pages checked, %d repaired, %d quarantined, %d unrepairable\n",
				cs.ScrubScans, cs.ScrubPagesChecked, cs.ScrubRepairs, cs.ScrubQuarantined, cs.ScrubUnrepairable)
		}
	}
	if m.Auditor != nil {
		fmt.Fprintf(w, "▸ auditor: %d checks, %d violations (runtime digest %#x)\n",
			m.Auditor.Checks, m.Auditor.TotalViolations, m.LastAudit.RuntimeDigest)
	}
	return obsOpts.Finish(ob, w, m.Now())
}

// clusterDemo narrates the sharded-cluster version of the crash story: a
// fleet routes keys through the consistent-hash ring, the whole cluster
// loses power mid-run, and recovery converges every shard onto the newest
// announced consistent cut — with no client holding an unjustifiable ack.
func clusterDemo(w io.Writer, shards int, mode mem.PersistMode, seed uint64, replicate bool) error {
	c, err := cluster.New(cluster.Config{
		Shards:    shards,
		Gated:     true,
		Replicate: replicate,
		Persist:   mode,
		Seed:      seed,
		Audit:     true,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "▸ booted a %d-shard TreeSLS cluster (%s persistency): consistent-hash keyspace, cut-gated responses\n",
		shards, mode)
	if replicate {
		fmt.Fprintln(w, "▸ replication on: every shard streams checkpoint deltas to its own hot standby")
	}

	fleet, err := cluster.NewFleet(c, cluster.FleetConfig{
		Clients: 4, KeysPerClient: 4, Requests: 8, Window: 2, Seed: int64(seed),
	})
	if err != nil {
		return err
	}

	// Run roughly half the traffic, then pull the plug mid-flight.
	half := uint64(fleet.Keys()) * 4
	for fleet.TotalAcked() < half {
		_, err := fleet.Advance()
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "▸ %d requests acked across the cluster; %d cuts announced (newest epoch %d)\n",
		fleet.TotalAcked(), len(c.Coord.Cuts()), c.Coord.Newest().Epoch)

	fmt.Fprintln(w, "▸ PULLING THE PLUG ON EVERY SHARD AT ONCE")
	cut, err := c.PowerFail()
	if err != nil {
		return err
	}
	fleet.ResyncAll()
	fmt.Fprintf(w, "▸ every shard recovered onto cut epoch %d: versions %v, cluster digest %#016x\n",
		cut.Epoch, cut.Versions, cut.Cluster)
	if err := c.VerifyCut(cut); err != nil {
		return err
	}
	fmt.Fprintln(w, "▸ per-shard digests reproduce the announcement — the cut is consistent")
	bad, err := fleet.CheckJustified()
	if err != nil {
		return err
	}
	if len(bad) > 0 {
		fmt.Fprintf(w, "▸ VIOLATION: %d acks the recovered cluster cannot justify: %v\n", len(bad), bad[0])
		return errViolation
	}
	fmt.Fprintln(w, "▸ no client holds an ack the recovered cluster cannot justify")

	// The cluster keeps serving: the fleet retransmits and finishes.
	if err := fleet.Run(); err != nil {
		return err
	}
	fmt.Fprintf(w, "▸ cluster is live after reboot: %d/%d requests acked, %d retransmits, %d rounds total\n",
		fleet.TotalAcked(), fleet.Keys()*8, fleet.Retransmits, c.Stats.Rounds)
	return nil
}

// reshardDemo narrates elastic online resharding: an add-shard migration
// epoch streams keys under live traffic, power fails mid-stream — and the
// recovery rolls the whole epoch back to the old ring, because the commit
// cut was never announced. A retry then runs to its commit cut, the ring
// flips atomically at the announcement, and the fleet reroutes.
func reshardDemo(w io.Writer, shards int, mode mem.PersistMode, seed uint64) error {
	c, err := cluster.New(cluster.Config{
		Shards: shards, Gated: true, Persist: mode, Seed: seed, Audit: true,
	})
	if err != nil {
		return err
	}
	fleet, err := cluster.NewFleet(c, cluster.FleetConfig{
		Clients: 4, KeysPerClient: 4, Requests: 0, Window: 2, Seed: int64(seed),
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "▸ booted a %d-shard TreeSLS cluster (%s persistency), ring v%d %v\n",
		shards, mode, c.Ring.Version(), c.Ring.Members())

	step := func() error {
		_, err := fleet.Advance()
		return err
	}
	for fleet.TotalAcked() < uint64(fleet.Keys())*3 {
		if err := step(); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "▸ %d requests acked under steady load; starting an online scale-out to %d shards\n",
		fleet.TotalAcked(), shards+1)

	joiner, err := c.StartAddShard()
	if err != nil {
		return err
	}
	st := c.MigrationStatus()
	for !c.MigrationInFlight() || st.Phase == cluster.MigScan {
		if err := step(); err != nil {
			return err
		}
		st = c.MigrationStatus()
	}
	fmt.Fprintf(w, "▸ migration epoch open: %d keys planned for shard %d, %d streamed so far — traffic keeps flowing\n",
		st.PlanKeys, joiner, st.Streamed)

	fmt.Fprintln(w, "▸ PULLING THE PLUG MID-MIGRATION (keys in flight, commit cut not announced)")
	cut, err := c.PowerFail()
	if err != nil {
		return err
	}
	fleet.ResyncAll()
	fmt.Fprintf(w, "▸ recovered onto cut epoch %d naming ring v%d %v: the epoch rolled back WHOLE — no split-brain mix\n",
		cut.Epoch, c.Ring.Version(), c.Ring.Members())
	if c.MigrationInFlight() {
		fmt.Fprintln(w, "▸ VIOLATION: migration survived the crash")
		return errViolation
	}
	fmt.Fprintf(w, "▸ aborted epochs so far: %d; the joiner re-imaged to its boot state\n", c.Stats.MigrationsAborted)

	// Retry: this time the epoch runs through its commit cut.
	for c.CurrentPhase() != cluster.PhaseIdle {
		if err := step(); err != nil {
			return err
		}
	}
	_, err = c.StartAddShard()
	if err != nil {
		return err
	}
	for c.MigrationInFlight() {
		if err := step(); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "▸ retry committed: ring flipped atomically at the commit cut to v%d %v (%d keys moved, %d dual-writes, %d forwarded requests)\n",
		c.Ring.Version(), c.Ring.Members(), c.Stats.KeysMoved, c.Stats.DualWrites, c.Stats.ForwardedRequests)

	before := fleet.TotalAcked()
	for fleet.TotalAcked() < before+uint64(fleet.Keys()) {
		if err := step(); err != nil {
			return err
		}
	}
	bad, err := fleet.CheckJustified()
	if err != nil {
		return err
	}
	twoOwner, err := fleet.CheckSoleOwner()
	if err != nil {
		return err
	}
	if len(bad) > 0 || len(twoOwner) > 0 {
		fmt.Fprintf(w, "▸ VIOLATION: justify=%v soleOwner=%v\n", bad, twoOwner)
		return errViolation
	}
	fmt.Fprintf(w, "▸ cluster is live on the new ring: %d requests acked, every ack justified, every key served by its sole ring owner\n",
		fleet.TotalAcked())
	return nil
}

// composedDemo narrates one composed fault-plane campaign: two fault
// domains stacked on the shared engine, every crash judged by the union of
// both domains' oracle registries.
func composedDemo(w io.Writer, name string, mode mem.PersistMode, seed uint64) error {
	seeds := []uint64{seed}
	switch name {
	case "media-reshard":
		fmt.Fprintf(w, "▸ composed campaign: silent media rot planted during an elastic reshard (seed %d)\n", seed)
		res, mres, err := crashfuzz.RunMediaDuringReshard(crashfuzz.ReshardConfig{
			Mode: mode, Seeds: seeds, Replicas: 2,
		}, 14)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "▸ %d crashes fired, %d rot faults planted in restore-source slots\n", res.CrashesFired, mres.RotInjected)
		fmt.Fprintf(w, "▸ %d replica repairs + %d scrub repairs; %d epochs rolled back whole, %d rolled forward\n",
			mres.ReplicaRepairs, mres.ScrubRepairs, res.RolledBack, res.RolledForward)
	case "repl-cluster":
		fmt.Fprintf(w, "▸ composed campaign: hot-standby failover probed under cluster crashes (seed %d)\n", seed)
		res, pres, err := crashfuzz.RunReplUnderCluster(crashfuzz.ClusterConfig{
			Mode: mode, Seeds: seeds, CrashesPerSeed: 24,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "▸ %d crashes fired, %d standby promotions probed at the crash instant\n", res.CrashesFired, pres.CrashProbes)
		fmt.Fprintf(w, "▸ %d oracle promotions held digest-exact; %d refusals with nothing acknowledged\n",
			pres.OracleFailovers, pres.NoAckedAtProbe)
	case "media-repl":
		fmt.Fprintf(w, "▸ composed campaign: silent media rot under hot-standby replication (seed %d)\n", seed)
		res, mres, err := crashfuzz.RunMediaUnderRepl(crashfuzz.ReplConfig{
			Mode: mode, Seeds: seeds, Replicas: 2,
		}, 12)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "▸ %d crashes fired, %d rot faults planted; %d failovers probed while the primary was down\n",
			res.CrashesFired, mres.RotInjected, res.Failovers)
		fmt.Fprintf(w, "▸ %d replica repairs + %d scrub repairs; restored digests matched every recorded commit\n",
			mres.ReplicaRepairs, mres.ScrubRepairs)
	default:
		return fmt.Errorf("unknown campaign %q (want media-reshard, repl-cluster, or media-repl)", name)
	}
	fmt.Fprintln(w, "▸ zero oracle convictions: the gated system survived the composed schedule")
	return nil
}

// errViolation ends a demo whose oracle convicted the recovered state; the
// narration has already named the violation.
var errViolation = errors.New("recovery violated the demo's oracle")
