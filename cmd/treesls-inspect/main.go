// Command treesls-inspect boots a machine (optionally with a sample
// workload), takes a checkpoint, and dumps the capability tree plus the
// checkpoint manager's statistics — a window into the structures of
// Figure 4 and Table 2. With -replicate it also attaches the hot-standby
// replicator, reports the delta stream, and probes a failover.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"treesls/internal/apps/kvstore"
	"treesls/internal/caps"
	"treesls/internal/cluster"
	"treesls/internal/crashfuzz"
	"treesls/internal/kernel"
	"treesls/internal/mem"
	"treesls/internal/obs"
	"treesls/internal/obs/audit"
	"treesls/internal/repl"
	"treesls/internal/simclock"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the whole program against an explicit flag list and output stream,
// so the golden-file regression test can drive it byte-for-byte.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("treesls-inspect", flag.ContinueOnError)
	withKV := fs.Bool("kv", true, "run a sample KV workload before dumping")
	persist := fs.String("persist-mode", "eadr", "persistence model: eadr (stores durable on landing) or adr (explicit flush+fence required)")
	mediaFaults := fs.Int("media-faults", 0, "inject silent bit-rot into this many committed backup pages after the checkpoint, then scrub")
	scrubInterval := fs.Duration("scrub-interval", 0, "if non-zero, run one media-scrub pass after the checkpoint and report it (the value also becomes the machine's background scrub period)")
	parallelWalk := fs.Bool("parallel-walk", true, "partition the checkpoint capability-tree walk across all lanes (false: serial reference walk)")
	replicate := fs.Bool("replicate", false, "stream checkpoint deltas to a hot standby and probe a failover")
	replMode := fs.String("repl-mode", "local", "replication durability contract: local (async standby) or remote (responses wait for the standby ack)")
	shards := fs.Int("shards", 0, "if > 0, inspect an N-shard cluster instead: run a fleet through the consistent-hash router and dump the ring, cut log, and per-shard recovery state")
	oracles := fs.Bool("oracles", false, "dump the fault-plane oracle catalog (which named invariants judge each crash campaign) and exit")
	obsOpts := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	mode, err := mem.ParsePersistMode(*persist)
	if err != nil {
		return err
	}
	if *oracles {
		return dumpOracleCatalog(stdout)
	}
	if *shards > 0 {
		return runCluster(*shards, mode, stdout)
	}
	rmode, err := repl.ParseMode(*replMode)
	if err != nil {
		return err
	}
	cfg := kernel.DefaultConfig()
	cfg.CheckpointEvery = 0
	cfg.Mem.Persist = mode
	cfg.ScrubEvery = simclock.Duration(scrubInterval.Nanoseconds())
	cfg.Checkpoint.ParallelWalk = *parallelWalk
	ob := obsOpts.Observer()
	cfg.Obs = ob
	cfg.Audit = obsOpts.Audit
	m := kernel.New(cfg)

	var rep *repl.Replicator
	if *replicate {
		rep = repl.Attach(m, nil, repl.Config{Mode: rmode})
	}
	if *withKV {
		srv, err := kvstore.NewServer(m, kvstore.ServerConfig{Name: "kv", Threads: 2})
		if err != nil {
			return err
		}
		for i := 0; i < 200; i++ {
			srv.Set(i, []byte(fmt.Sprintf("k%d", i)), []byte("value"))
		}
	}
	rp := m.TakeCheckpoint()

	fmt.Fprintln(stdout, "Capability tree (Figure 4):")
	dumpGroup(stdout, m.Tree.Root, 0)

	counts := m.Tree.Counts()
	fmt.Fprintln(stdout, "\nObject composition (Table 2 style):")
	for k := caps.ObjectKind(0); int(k) < caps.NumKinds; k++ {
		fmt.Fprintf(stdout, "  %-16s %d\n", k.String(), counts[k])
	}
	fmt.Fprintf(stdout, "  resident pages   %d (%.1f MiB)\n", m.Tree.TotalPMOPages(),
		float64(m.Tree.TotalPMOPages())*mem.PageSize/(1<<20))

	fmt.Fprintln(stdout, "\nLast checkpoint:")
	fmt.Fprintf(stdout, "  version     %d\n", rp.Version)
	fmt.Fprintf(stdout, "  STW total   %v (IPI %v, cap tree %v, others %v, hybrid %v)\n",
		rp.STWTotal, rp.IPIWait, rp.CapTree, rp.Others, rp.HybridCopy)
	fmt.Fprintf(stdout, "  pages RO'd  %d\n", rp.PagesMarkedRO)
	fmt.Fprintf(stdout, "  backup use  %d pages + %d bytes of structures\n",
		m.Ckpt.Stats.BackupPages, m.Ckpt.Stats.BackupBytes)
	fmt.Fprintf(stdout, "  DRAM cache  %d hot pages, active list %d\n",
		m.Ckpt.CachedPages(), m.Ckpt.ActiveListLen())
	if sw := m.Ckpt.SwapStats(); sw.Evicted > 0 {
		fmt.Fprintf(stdout, "  swap        %d evicted, %d swapped in, %d slots live\n",
			sw.Evicted, sw.SwappedIn, sw.SlotsInUse)
	}

	if rep != nil {
		st := rep.Stats
		fmt.Fprintf(stdout, "\nReplication (mode=%s):\n", rep.Config().Mode)
		fmt.Fprintf(stdout, "  deltas      %d shipped (%d full syncs), %d bytes on the wire\n",
			st.Deltas, st.FullSyncs, st.BytesSent)
		fmt.Fprintf(stdout, "  acks        %d received, last at +%.1fµs; ledger retains %d rounds (%d GCed)\n",
			st.Acks, rep.LastAckAt().Sub(0).Micros(), len(rep.Ledger()), st.GCedDeltas)
		fo, err := rep.FailoverAt(rep.LastAckAt())
		if err != nil {
			return fmt.Errorf("failover probe: %w", err)
		}
		fmt.Fprintf(stdout, "  failover    standby promotes at v%d from %d folded deltas, digest match=%v\n",
			fo.Version, fo.FoldedDeltas, fo.Digest == fo.ExpectedDigest)
	}

	if *mediaFaults > 0 {
		injected := injectBackupRot(m, *mediaFaults)
		fmt.Fprintf(stdout, "\nInjected silent bit-rot into %d committed backup pages\n", injected)
	}
	if *mediaFaults > 0 || *scrubInterval > 0 {
		sr := m.Scrub()
		fmt.Fprintf(stdout, "\nMedia scrub pass:\n")
		fmt.Fprintf(stdout, "  checked     %d pages, %d object records\n", sr.PagesChecked, sr.RecordsChecked)
		fmt.Fprintf(stdout, "  repaired    %d in place, %d meta copies resynced\n", sr.Repaired, sr.MetaRepairs)
		fmt.Fprintf(stdout, "  quarantined %d corrupt fallback slots\n", sr.Quarantined)
		fmt.Fprintf(stdout, "  unrepairable %d (left for restore to degrade explicitly)\n", sr.Unrepairable)
	}

	cs := m.Ckpt.Stats
	fmt.Fprintf(stdout, "\nRobustness (persist-mode=%s):\n", mode)
	fmt.Fprintf(stdout, "  flushes/fences     %d clwb, %d sfence\n",
		m.Memory.Stats.Flushes, m.Memory.Stats.Fences)
	fmt.Fprintf(stdout, "  crash damage       %d lines dropped, %d torn (last crash)\n",
		cs.DroppedLines, cs.TornLines)
	fmt.Fprintf(stdout, "  journal            %d torn records truncated, %d mirror repairs\n",
		m.Journal.TornRecords, m.Journal.MirrorRepairs)
	fmt.Fprintf(stdout, "  commit record      durable version %d (dual-copy, 16-byte checked record)\n",
		m.Ckpt.DurableVersion())
	fmt.Fprintf(stdout, "  media faults       %d lines poisoned, %d rotted; %d poisoned reads detected\n",
		m.Memory.Stats.PoisonedLines, m.Memory.Stats.RottedLines, m.Memory.Stats.PoisonedReads)
	fmt.Fprintf(stdout, "  backup integrity   %d replica repairs, %d meta repairs, %d degraded page restores, %d lost pages\n",
		cs.ReplicaRepair, cs.MetaRepairs, cs.DegradedRestores, cs.LostPages)
	fmt.Fprintf(stdout, "  scrubber           %d passes, %d pages checked, %d repaired, %d quarantined, %d unrepairable\n",
		cs.ScrubScans, cs.ScrubPagesChecked, cs.ScrubRepairs, cs.ScrubQuarantined, cs.ScrubUnrepairable)

	if m.Auditor != nil {
		fmt.Fprintf(stdout, "\nAudit:\n  %d checks, %d violations\n  runtime digest %#x\n  backup digest  %#x\n",
			m.Auditor.Checks, m.Auditor.TotalViolations,
			m.LastAudit.RuntimeDigest, m.LastAudit.BackupDigest)
	}
	return obsOpts.Finish(ob, stdout, m.Now())
}

// runCluster boots an N-shard cluster, drives a small gated fleet through
// the consistent-hash router, and dumps the ring, the announced cut log,
// and each shard's recovery state — then power-fails the whole cluster and
// reports what recovery converged on.
// dumpOracleCatalog renders the fault-plane oracle catalog: every campaign
// domain (legacy and composed) with its oracle registry in run order, built
// from real worlds so the listing cannot go stale.
func dumpOracleCatalog(stdout io.Writer) error {
	sets, err := crashfuzz.OracleCatalog()
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "Fault-plane oracle catalog (run order; composed campaigns check the union):")
	for _, s := range sets {
		fmt.Fprintf(stdout, "  %-16s domain=%-9s %s\n", s.Campaign, s.Domain, strings.Join(s.Oracles, ", "))
	}
	return nil
}

func runCluster(shards int, mode mem.PersistMode, stdout io.Writer) error {
	c, err := cluster.New(cluster.Config{
		Shards:  shards,
		Gated:   true,
		Persist: mode,
		Seed:    1,
		Audit:   true,
	})
	if err != nil {
		return err
	}
	fleet, err := cluster.NewFleet(c, cluster.FleetConfig{
		Clients:       4,
		KeysPerClient: 4,
		Requests:      6,
		Window:        2,
		Seed:          1,
	})
	if err != nil {
		return err
	}
	if err := fleet.Run(); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "Cluster (%d shards, %d vnodes/shard, persist-mode=%s):\n",
		shards, c.Ring.Vnodes(), mode)
	owned := make([]int, shards)
	for j := 0; j < fleet.Keys(); j++ {
		owned[fleet.ShardOf(j)]++
	}
	for i, n := range owned {
		fmt.Fprintf(stdout, "  shard%d owns %2d of %d fleet keys\n", i, n, fleet.Keys())
	}

	fmt.Fprintf(stdout, "\nFleet: %d requests acked, %d retransmits, %d rounds driven\n",
		fleet.TotalAcked(), fleet.Retransmits, c.Stats.Rounds)

	// An online scale-out, so the cut log below shows the ring epoch
	// flipping at a commit cut.
	joiner, err := c.StartAddShard()
	if err != nil {
		return err
	}
	for c.MigrationInFlight() {
		if c.CurrentPhase() != cluster.PhaseIdle {
			if err := c.Step(); err != nil {
				return err
			}
			continue
		}
		if err := c.MigStep(); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "\nOnline reshard: shard%d joined, ring now v%d %v (%d keys moved, %d migration bytes)\n",
		joiner, c.Ring.Version(), c.Ring.Members(), c.Stats.KeysMoved, c.Stats.MigrationBytes)
	rerouted := make([]int, len(c.Shards))
	for j := 0; j < fleet.Keys(); j++ {
		rerouted[fleet.ShardOf(j)]++
	}
	fmt.Fprintf(stdout, "  shard%d now owns %d of %d fleet keys\n", joiner, rerouted[joiner], fleet.Keys())

	cuts := c.Coord.Cuts()
	fmt.Fprintf(stdout, "\nCut log (%d announced):\n", len(cuts))
	first, last := 0, len(cuts)
	if last > 3 {
		first = last - 3
		fmt.Fprintf(stdout, "  ... %d earlier cuts elided\n", first)
	}
	for _, cut := range cuts[first:last] {
		fmt.Fprintf(stdout, "  epoch %2d: ring v%d %v versions %v cluster digest %#016x\n",
			cut.Epoch, cut.RingVersion, cut.RingMembers, cut.Versions, cut.Cluster)
	}

	newest := c.Coord.Newest()
	if _, err := c.PowerFail(); err != nil {
		return fmt.Errorf("power-fail probe: %w", err)
	}
	fmt.Fprintf(stdout, "\nPower-fail probe: recovery converged on epoch %d\n", newest.Epoch)
	for i, s := range c.Shards {
		fmt.Fprintf(stdout, "  shard%d: committed v%d digest %#016x released v%d\n",
			i, c.CommittedVersions()[i],
			audit.RestorableDigest(s.M.Ckpt, s.M.Memory),
			s.Drv.ReleasedVersion())
	}
	verified := "match"
	if err := c.VerifyCut(newest); err != nil {
		verified = fmt.Sprintf("MISMATCH: %v", err)
	}
	fmt.Fprintf(stdout, "  cluster digest vs announcement: %s\n", verified)
	bad, err := fleet.CheckJustified()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "  unjustified client acks: %d\n", len(bad))
	return nil
}

// injectBackupRot plants deterministic silent bit-rot in up to n distinct
// committed backup pages — the damage the next scrub pass must detect.
func injectBackupRot(m *kernel.Machine, n int) int {
	injected := 0
	seen := map[mem.PageID]bool{}
	m.Ckpt.ForEachRoot(func(r *caps.ORoot) {
		snap, ok := r.Backup[0].(*caps.PMOSnap)
		if !ok || snap.Type == caps.PMOEternal {
			return
		}
		snap.Pages.Walk(func(_ uint64, cp *caps.CkptPage) bool {
			for i := 0; i < 2 && injected < n; i++ {
				p := cp.Page[i]
				if p.IsNil() || p.Kind != mem.KindNVM || seen[p] {
					continue
				}
				seen[p] = true
				m.Memory.InjectRot(p, 128, 64, uint64(injected)+1)
				injected++
			}
			return injected < n
		})
	})
	return injected
}

func dumpGroup(w io.Writer, g *caps.CapGroup, depth int) {
	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(w, "%s▸ CapGroup %q (id %d)\n", indent, g.Name, g.ID())
	g.ForEach(func(slot int, c caps.Capability) {
		switch o := c.Obj.(type) {
		case *caps.CapGroup:
			dumpGroup(w, o, depth+1)
		case *caps.PMO:
			fmt.Fprintf(w, "%s  - PMO id %d (%s, %d/%d pages)\n", indent, o.ID(), o.Type, o.NumPages(), o.SizePages)
		case *caps.VMSpace:
			fmt.Fprintf(w, "%s  - VMSpace id %d (%d regions)\n", indent, o.ID(), o.NumRegions())
		case *caps.Thread:
			fmt.Fprintf(w, "%s  - Thread id %d (%s, pc=%#x)\n", indent, o.ID(), o.State, o.Ctx.PC)
		case *caps.IPCConn:
			fmt.Fprintf(w, "%s  - IPCConn id %d (seq %d)\n", indent, o.ID(), o.Seq)
		case *caps.Notification:
			fmt.Fprintf(w, "%s  - Notification id %d (count %d, waiters %d)\n", indent, o.ID(), o.Count, o.NumWaiters())
		case *caps.IRQNotification:
			fmt.Fprintf(w, "%s  - IRQNotification id %d (line %d)\n", indent, o.ID(), o.Line)
		}
	})
}
