package main

import (
	"fmt"

	"treesls/internal/checkpoint"
	"treesls/internal/cluster"
	"treesls/internal/kernel"
	"treesls/internal/simclock"
	"treesls/internal/workload"
)

// clusterCut runs a 4-shard gated cluster with a hot standby per shard: every
// response waits for the four-phase consistent-cut round (prepare, announce,
// publish, release), which the benchmark runs whenever the fleet blocks.
func clusterCut(c config) (*unit, error) {
	u := newUnit()
	const shards, cores, clients, keysPer = 4, 2, 32, 1
	keySeed := balancedKeySeed(c.seed, cluster.NewRing(shards, 0), shards, cores, clients*keysPer)
	setup := startPhase()
	cl, err := cluster.New(cluster.Config{Shards: shards, Cores: cores, Gated: true, Replicate: true, Seed: uint64(c.seed)})
	if err != nil {
		return nil, err
	}
	perKey := c.n(300)
	fleet, err := cluster.NewFleet(cl, cluster.FleetConfig{
		Clients: clients, KeysPerClient: keysPer, Requests: perKey, Window: 1,
		Seed: keySeed,
	})
	if err != nil {
		return nil, err
	}
	u.setup, _ = setup.stop()

	var machines []*kernel.Machine
	var rs []*rounds
	for _, s := range cl.Shards {
		machines = append(machines, s.M)
		rs = append(rs, newRounds(s.M))
	}
	c0 := snapshot(machines...)
	type replCount struct{ bytes, deltas, full, stalls uint64 }
	repl := func() (r replCount) {
		for _, s := range cl.Shards {
			r.bytes += s.Rep.Stats.BytesSent
			r.deltas += s.Rep.Stats.Deltas
			r.full += s.Rep.Stats.FullSyncs
			r.stalls += s.Rep.Link().Stats.Stalls
		}
		return r
	}
	r0 := repl()
	rounds0 := cl.Stats.Rounds
	p := c.probe
	var roundSim []float64
	timed := startPhase()
	sim0 := cl.Now()
	for step := int64(0); ; step++ {
		mk := p.start(cl.Now)
		st, err := fleet.Step()
		p.stop(mk, "fleet.step", step, cl.Now)
		if err != nil {
			return nil, fmt.Errorf("fleet step: %w", err)
		}
		if st == cluster.StepDone {
			break
		}
		if st != cluster.StepBlocked {
			continue
		}
		before := cl.Now()
		mk = p.start(cl.Now)
		err = cl.Round()
		p.stop(mk, "cluster.round", int64(cl.Stats.Rounds+1), cl.Now)
		if err != nil {
			return nil, fmt.Errorf("round: %w", err)
		}
		roundSim = append(roundSim, cl.Now().Sub(before).Micros())
		// Every member shard prepared exactly one checkpoint in the round.
		for i, r := range rs {
			if !r.poll() {
				u.problem("round %d: shard %d took no checkpoint", cl.Stats.Rounds, i)
			}
		}
	}
	simDur := cl.Now().Sub(sim0)
	u.host, u.alloc = timed.stop()
	acked := fleet.TotalAcked()
	u.ops = int(acked)
	var sent uint64
	for _, s := range cl.Shards {
		sent += s.Net.Stats.Requests
	}
	u.attempted = int(sent)

	// Correctness: the final state justifies every acknowledgement, no gate
	// released past the newest cut, and the live shards reproduce it.
	want := uint64(clients * keysPer * perKey)
	if acked != want {
		u.problem("acked %d of %d requests", acked, want)
	}
	bad, err := fleet.CheckJustified()
	if err != nil {
		return nil, err
	}
	for _, b := range bad {
		u.problem("%s", b)
	}
	if err := cl.ReleasedCovered(); err != nil {
		u.problem("%v", err)
	}
	if err := cl.VerifyCut(cl.Coord.Newest()); err != nil {
		u.problem("%v", err)
	}
	for _, v := range fleet.Violations {
		u.problem("FIFO: %s", v)
	}
	if fleet.DupAcks != 0 {
		u.problem("%d duplicate acknowledgements", fleet.DupAcks)
	}
	var full uint64
	var lags []simclock.Duration
	var reps []checkpoint.Report
	for i, s := range cl.Shards {
		full += s.Drv.Stats.Full
		lags = append(lags, s.Net.ReleaseLags...)
		reps = append(reps, rs[i].reps...)
		if rs[i].missed != 0 {
			u.problem("shard %d: %d checkpoint rounds were not observed", i, rs[i].missed)
		}
	}
	u.failed = len(u.problems)

	lat := micros(fleet.Latencies)
	u.sim["sim_p50_us"] = quantile(lat, 0.5)
	u.sim["sim_p99_us"] = quantile(lat, 0.99)
	u.sim["sim_kops"] = float64(acked) / simDur.Millis()
	u.note("requests: %d acked in %.3f ms simulated; latency p50 %.3f µs, p99 %.3f µs, p99.9 %.3f µs",
		acked, simDur.Millis(), quantile(lat, 0.5), quantile(lat, 0.99), quantile(lat, 0.999))

	kreq := float64(acked) / 1000
	nrounds := float64(cl.Stats.Rounds - rounds0)
	roundLayer(u, reps, kreq)
	deviceLayer(u, c0, snapshot(machines...), kreq, float64(len(reps)), 0,
		simDur*simclock.Duration(len(machines)*len(machines[0].Cores)))
	var cached, backup float64
	for _, m := range machines {
		cached += float64(m.Ckpt.CachedPages())
		backup += float64(m.Ckpt.Stats.BackupPages)
	}
	r1 := repl()
	lg := micros(lags)
	u.layer["kvstore.req_p999_us"] = quantile(lat, 0.999)
	u.layer["checkpoint.cached_pages"] = cached
	u.layer["checkpoint.backup_pages"] = backup
	u.layer["extsync.release_lag_p50_us"] = quantile(lg, 0.5)
	u.layer["extsync.release_lag_p99_us"] = quantile(lg, 0.99)
	u.layer["extsync.ring_full"] = float64(full)
	u.layer["repl.bytes_per_round"] = ratio(float64(r1.bytes-r0.bytes), nrounds)
	u.layer["repl.deltas_per_round"] = ratio(float64(r1.deltas-r0.deltas), nrounds)
	u.layer["repl.full_syncs"] = float64(r1.full - r0.full)
	u.layer["repl.link_stalls"] = float64(r1.stalls - r0.stalls)
	u.layer["cluster.round_sim_p50_us"] = quantile(roundSim, 0.5)
	u.layer["cluster.round_sim_p99_us"] = quantile(roundSim, 0.99)
	u.layer["cluster.round_host_us"] = p.medianHost("cluster.round") / 1e3
	u.layer["cluster.fleet_step_host_ns"] = p.medianHost("fleet.step")
	u.layer["cluster.rounds_per_kreq"] = ratio(nrounds, kreq)
	u.note("cluster rounds: %d, simulated p50 %.3f µs, p99 %.3f µs",
		len(roundSim), quantile(roundSim, 0.5), quantile(roundSim, 0.99))
	return u, nil
}

// balancedKeySeed returns the first keyspace seed, counting from seed·2^20,
// whose n fleet keys split evenly over the ring's shards. A random draw of
// 32 keys over 4 shards is often lopsided, and the busiest shard sets the
// pace of every cut, so an unbalanced draw would make the workload's
// latency a property of the seed rather than of the system.
func balancedKeySeed(seed int64, ring *cluster.Ring, shards, cores, n int) int64 {
	for s := seed << 20; ; s++ {
		count := make([]int, shards*cores)
		for i, k := range workload.ClusterKeys(s, n) {
			count[ring.Owner(k)*cores+i%cores]++
		}
		even := true
		for _, c := range count {
			even = even && c == n/shards/cores
		}
		if even {
			return s
		}
	}
}
