package main

import (
	"fmt"
	"math"
	"time"

	"treesls/internal/cluster"
	"treesls/internal/cluster/scenario"
	"treesls/internal/simclock"
	"treesls/internal/workload"
)

// reshardSweep crash-injects the add-shard scenario (3 → 4 shards, gated)
// at every other event of its clean run, once per target: whole-cluster
// power, the coordinator, source shard 0 and the joining shard 3. Each
// injection is one scenario.Run with every oracle on.
func reshardSweep(c config) (*unit, error) {
	u := newUnit()
	base := scenario.Script{
		Name: "add-shard", Seed: uint64(sameShapeSeed(c.seed)), Shards: 3, Clients: 2, KeysPerClient: 2,
		Requests: 3, Gated: true, Reshards: []scenario.Reshard{{At: 60, Add: true}},
	}
	setup := startPhase()
	clean, err := scenario.Run(base)
	if err != nil {
		return nil, fmt.Errorf("clean run: %w", err)
	}
	total := clean.Events
	u.setup, _ = setup.stop()
	// Odd events at full size; a smaller scale keeps every stride-th odd one.
	stride := uint64(2 * math.Ceil(1/c.scale))

	want := uint64(base.Clients * base.KeysPerClient * base.Requests)
	p := c.probe
	var finals []float64
	var dups uint64
	var events, fired, retrans, rollfwd, aborted, migrations, linOps float64
	acked := 0
	timed := startPhase()
	var id int64
	for _, target := range []int{scenario.TargetPower, scenario.TargetCoord, 0, base.Shards} {
		for k := uint64(1); k <= total; k += stride {
			id++
			sc := base
			sc.Name = fmt.Sprintf("%s-%s-k%d", base.Name, scenario.TargetName(target), k)
			sc.Crashes = []scenario.Crash{{At: k, Target: target}}
			mk := p.start(zeroClock)
			t0 := time.Now()
			r, err := scenario.Run(sc)
			u.opHost = append(u.opHost, time.Since(t0))
			p.stop(mk, "scenario.run", id, func() simclock.Time { return r.FinalTime })
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sc.Name, err)
			}
			if probs := sweepProblems(r, want); len(probs) > 0 {
				u.failed++
				for _, pr := range probs {
					u.problem("%s: %s", sc.Name, pr)
				}
			}
			acked += int(r.Acked)
			dups += r.DupAcks
			finals = append(finals, r.FinalTime.Sub(0).Micros())
			events += float64(r.Events)
			fired += float64(r.Crashes)
			retrans += float64(r.Retransmits)
			rollfwd += float64(r.RollForwards)
			aborted += float64(r.MigrationsAborted)
			migrations += float64(r.Migrations + r.MigrationsAborted)
			linOps += float64(r.LinearizeOps)
		}
	}
	u.host, u.alloc = timed.stop()
	runs := float64(len(finals))
	u.ops = len(finals)
	u.attempted = len(finals)

	u.sim["sim_p50_us"] = quantile(finals, 0.5)
	u.sim["sim_p99_us"] = quantile(finals, 0.99)
	u.sim["sim_kops"] = float64(acked) / (mean(finals) * runs / 1e3)
	u.note("sweep: %d injections over %d clean-run events; completion p50 %.3f µs, p95 %.3f µs, p99 %.3f µs (simulated)",
		len(finals), total, quantile(finals, 0.5), quantile(finals, 0.95), quantile(finals, 0.99))
	u.note("duplicate acknowledgements discarded by clients: %d", dups)
	u.layer["scenario.events_per_run"] = events / runs
	u.layer["scenario.crashes_fired_frac"] = fired / runs
	u.layer["scenario.retransmits_per_run"] = retrans / runs
	u.layer["scenario.rollforwards_per_run"] = rollfwd / runs
	u.layer["scenario.migrations_aborted_frac"] = ratio(aborted, migrations)
	u.layer["scenario.linearize_ops_per_run"] = linOps / runs
	u.layer["scenario.eventcount_host_ms"] = float64(u.setup) / 1e6
	return u, nil
}

// sweepProblems lists every oracle the run failed: external synchrony, the
// cut digests, per-key FIFO, the state audit, linearizability, the full
// acknowledgement count, and ending on exactly the old or the new ring. A
// duplicate acknowledgement (a response for a request the client already
// holds) is counted but is no violation: the client discards it.
func sweepProblems(r scenario.Result, want uint64) []string {
	var out []string
	for _, v := range r.Unjustified {
		out = append(out, "unjustified: "+v)
	}
	for _, v := range r.CutViolations {
		out = append(out, "cut: "+v)
	}
	for _, v := range r.OrderViolations {
		out = append(out, "FIFO: "+v)
	}
	for _, v := range r.LinearizeViolations {
		out = append(out, "linearizability: "+v)
	}
	if r.AuditViolations != 0 {
		out = append(out, fmt.Sprintf("%d audit violations", r.AuditViolations))
	}
	if r.Acked != want {
		out = append(out, fmt.Sprintf("acked %d of %d requests", r.Acked, want))
	}
	if r.Crashes+r.CrashesSkipped != 1 {
		out = append(out, fmt.Sprintf("%d crashes fired, %d skipped, 1 scripted", r.Crashes, r.CrashesSkipped))
	}
	ring := fmt.Sprintf("v%d:%v", r.RingVersion, r.RingMembers)
	if ring != "v1:[0 1 2]" && ring != "v2:[0 1 2 3]" {
		out = append(out, "ended on ring "+ring+", neither the old nor the new one")
	}
	if r.Migrations+r.MigrationsAborted != 1 {
		out = append(out, fmt.Sprintf("%d migrations committed, %d aborted, 1 scripted", r.Migrations, r.MigrationsAborted))
	}
	return out
}

// zeroClock is the simulated clock of a scenario run before it starts.
func zeroClock() simclock.Time { return 0 }

// shapeRef is the script seed of the repository's own reshard sweep test,
// whose key placement every benchmark script copies.
const shapeRef = 21

// keyShape is the placement of the add-shard script's four keys: each key's
// owner on the 3-shard ring and on the 4-shard ring after the add.
func keyShape(seed int64) [4][2]int {
	before, after := cluster.NewRing(3, 0), cluster.NewRing(4, 0)
	var shape [4][2]int
	for i, k := range workload.ClusterKeys(seed, 4) {
		shape[i] = [2]int{before.Owner(k), after.Owner(k)}
	}
	return shape
}

// sameShapeSeed returns the first script seed, counting from seed·2^20,
// whose keys sit where the reference script's do. With four keys, which
// shards own them and how many move decide most of a run's simulated
// time; fixing that shape leaves the seed to vary the keys themselves,
// machine jitter and crash damage.
func sameShapeSeed(seed int64) int64 {
	want := keyShape(shapeRef)
	for s := seed << 20; ; s++ {
		if keyShape(s) == want {
			return s
		}
	}
}
