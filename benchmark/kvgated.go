package main

import (
	"fmt"
	"math/rand"

	"treesls/internal/apps/kvstore"
	"treesls/internal/kernel"
	"treesls/internal/mem"
	"treesls/internal/net"
	"treesls/internal/simclock"
)

// kvGated is the paper's §5 external-synchrony path plus recovery: one
// 4-core ADR machine checkpointing every millisecond, a kvstore behind the
// extsync gate, a closed-loop net.Fleet, and a power failure every 20 ms of
// simulated time (Crash → Restore → ResyncAfterRestore).
func kvGated(c config) (*unit, error) {
	const crashEvery = 20 * simclock.Millisecond
	u := newUnit()
	rng := rand.New(rand.NewSource(c.seed))
	// Preloaded keys make the store and its checkpointed heap realistic;
	// the fleet then overwrites its own per-connection counter keys, so the
	// dirty set per round stays tiny.
	preload := make([][2][]byte, c.n(10_000))
	live := 0.0
	for i := range preload {
		key := []byte(fmt.Sprintf("pre-%06d-%08x", i, rng.Uint32()))
		val := make([]byte, 128)
		rng.Read(val)
		preload[i] = [2][]byte{key, val}
		live += float64(len(key) + len(val))
	}
	crashPhase := simclock.Duration(rng.Int63n(int64(crashEvery)))
	setup := startPhase()

	kcfg := kernel.DefaultConfig()
	kcfg.Cores = 4
	kcfg.CheckpointEvery = simclock.Millisecond
	kcfg.Seed = uint64(c.seed)
	kcfg.Mem.Persist = mem.ModeADR
	kcfg.Mem.CrashSeed = uint64(c.seed)
	kcfg.Obs = metricsObserver(c.probe != nil)
	m := kernel.New(kcfg)
	nw, err := net.New(m, net.Config{Gated: true, RingSlots: 4096})
	if err != nil {
		return nil, err
	}
	srv, err := kvstore.NewServer(m, kvstore.ServerConfig{
		Name: "redis", Threads: 4, HeapPages: 2048, Buckets: 16384,
		EchoValue: true, Ext: nw.Driver,
	})
	if err != nil {
		return nil, err
	}
	for i, kv := range preload {
		if _, _, err := srv.Set(i%4, kv[0], kv[1]); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	m.TakeCheckpoint()
	// Clients connect right after a periodic checkpoint. Started at an
	// arbitrary instant, a first request whose operation straddles the
	// next deadline has its response released by that checkpoint before
	// net.Fleet tracks it, and the client sees a FIFO gap.
	m.SettleTo(m.NextCheckpointAt())
	const conns = 8
	perConn := c.n(5000)
	fleet, err := net.NewFleet(nw, srv, net.FleetConfig{Clients: conns, Requests: perConn, Window: 2, ValueBytes: 64})
	if err != nil {
		return nil, err
	}
	// Responses the preload produced were released without a tracked
	// request; later ones must all be attributed.
	unknown0 := nw.Stats.UnknownSeq
	u.setup, _ = setup.stop()

	nextCrash := m.Now().Add(crashPhase)
	rs := newRounds(m)
	h0 := stwHist(m)
	c0 := snapshot(m)
	drv0, net0 := nw.Driver.Stats, nw.Stats
	var recovery []simclock.Duration
	var roundCalls, plainCalls []float64
	p := c.probe
	timed := startPhase()
	sim0 := m.Now()
	var crashes int64
	for step := int64(0); ; step++ {
		if m.Now() >= nextCrash {
			crashes++
			before := m.Now()
			mk := p.start(m.Now)
			m.Crash()
			p.stop(mk, "kernel.crash", crashes, m.Now)
			mk = p.start(m.Now)
			err := m.Restore()
			p.stop(mk, "kernel.restore", crashes, m.Now)
			if err != nil {
				return nil, fmt.Errorf("restore %d: %w", crashes, err)
			}
			recovery = append(recovery, m.Now().Sub(before))
			fleet.ResyncAfterRestore()
			bad, err := fleet.CheckJustified()
			if err != nil {
				return nil, err
			}
			for _, b := range bad {
				u.problem("after crash %d: %s", crashes, b)
			}
			nextCrash = nextCrash.Add(crashEvery)
			continue
		}
		dispatched, sent := nw.Stats.Dispatched, nw.Stats.Requests
		mk := p.start(m.Now)
		done, err := fleet.Step()
		name := "fleet.settle"
		switch {
		case nw.Stats.Dispatched != dispatched:
			name = "net.dispatch"
		case nw.Stats.Requests != sent:
			name = "fleet.send"
		}
		d := p.stop(mk, name, step, m.Now)
		if err != nil {
			return nil, fmt.Errorf("fleet step: %w", err)
		}
		if rs.poll() {
			roundCalls = append(roundCalls, float64(d))
		} else {
			plainCalls = append(plainCalls, float64(d))
		}
		if done {
			break
		}
	}
	simDur := m.Now().Sub(sim0)
	u.host, u.alloc = timed.stop()
	acked := fleet.TotalAcked()
	u.ops = int(acked)

	// Correctness: every request acknowledged exactly once, in order, and
	// only once durable; the final state justifies every acknowledgement.
	u.attempted = int(nw.Stats.Requests - net0.Requests)
	want := uint64(conns * perConn)
	if acked != want {
		u.problem("acked %d of %d requests", acked, want)
	}
	if bad, err := fleet.CheckJustified(); err != nil {
		return nil, err
	} else {
		for _, b := range bad {
			u.problem("at the end: %s", b)
		}
	}
	for _, v := range fleet.Violations {
		u.problem("FIFO: %s", v)
	}
	if fleet.DupAcks != 0 {
		u.problem("%d duplicate acknowledgements", fleet.DupAcks)
	}
	if nw.Stats.UnknownSeq != unknown0 {
		u.problem("%d released responses had no tracked request", nw.Stats.UnknownSeq-unknown0)
	}
	if rs.missed != 0 {
		u.problem("%d checkpoint rounds were not observed", rs.missed)
	}
	u.failed = len(u.problems)

	lat := micros(fleet.Latencies)
	u.sim["sim_p50_us"] = quantile(lat, 0.5)
	u.sim["sim_p99_us"] = quantile(lat, 0.99)
	u.sim["sim_kops"] = float64(acked) / simDur.Millis()
	u.note("requests: %d acked in %.3f ms simulated; latency p50 %.3f µs, p99 %.3f µs, p99.9 %.3f µs",
		acked, simDur.Millis(), quantile(lat, 0.5), quantile(lat, 0.99), quantile(lat, 0.999))

	kreq := float64(acked) / 1000
	roundLayer(u, rs.reps, kreq)
	deviceLayer(u, c0, snapshot(m), kreq, float64(len(rs.reps)), float64(crashes),
		simDur*simclock.Duration(len(m.Cores)))
	rec := micros(recovery)
	u.layer["kvstore.req_p999_us"] = quantile(lat, 0.999)
	u.layer["kernel.recovery_p50_us"] = quantile(rec, 0.5)
	u.layer["kernel.recovery_p90_us"] = quantile(rec, 0.9)
	u.layer["kernel.restore_host_ms"] = p.medianHost("kernel.restore") / 1e6
	u.layer["checkpoint.cached_pages"] = float64(m.Ckpt.CachedPages())
	u.layer["checkpoint.backup_pages"] = float64(m.Ckpt.Stats.BackupPages)
	u.layer["checkpoint.host_us_per_round"] = roundHostUs(roundCalls, plainCalls)
	u.layer["alloc.space_amp"] = spaceAmp(m, live+float64(conns*(len("conn0000")+64)))
	lags := micros(nw.ReleaseLags)
	u.layer["extsync.release_lag_p50_us"] = quantile(lags, 0.5)
	u.layer["extsync.release_lag_p99_us"] = quantile(lags, 0.99)
	u.layer["extsync.ring_full"] = float64(nw.Driver.Stats.Full - drv0.Full)
	u.layer["extsync.discarded_per_crash"] = ratio(float64(nw.Driver.Stats.Discarded-drv0.Discarded), float64(crashes))
	u.layer["net.dispatch_host_ns"] = p.medianHost("net.dispatch")
	u.layer["net.retransmits_per_crash"] = ratio(float64(fleet.Retransmits), float64(crashes))
	u.layer["net.dropped_requests_per_crash"] = ratio(float64(nw.Stats.DroppedRequests-net0.DroppedRequests), float64(crashes))
	u.layer["net.dropped_responses_per_crash"] = ratio(float64(nw.Stats.DroppedResponses-net0.DroppedResponses), float64(crashes))
	u.note("recovery: %d crashes, restore p50 %.3f µs, p90 %.3f µs", crashes, quantile(rec, 0.5), quantile(rec, 0.9))
	crossCheck(u, m, rs.reps, h0, stwHist(m))
	return u, nil
}
