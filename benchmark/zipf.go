package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"

	"treesls/internal/apps/kvstore"
	"treesls/internal/kernel"
	"treesls/internal/simclock"
	"treesls/internal/workload"
)

// Open-loop YCSB-A schedule: a warm-up and a measured window at the base
// rate, then a ladder of rising rates that stops at the first rung missing
// the latency limit.
const (
	baseKops    = 400
	warmup      = 100 * simclock.Millisecond
	window      = 500 * simclock.Millisecond
	rungLen     = 50 * simclock.Millisecond
	ladderFirst = 450
	ladderLast  = 800
	ladderStep  = 50
	// sloP99 is the latency limit a rung's p99 must meet.
	sloP99 = 100 * simclock.Microsecond
)

// zop is one scheduled request.
type zop struct {
	at    simclock.Duration // arrival, relative to the schedule's start
	key   uint32
	write bool
}

// schedule draws Poisson arrivals at kops thousand requests per simulated
// second over [from, from+span), YCSB-A 50/50 reads and updates with keys
// from a zipf(0.99) distribution.
func schedule(rng *rand.Rand, zipf *workload.Zipfian, kops int, from, span simclock.Duration) []zop {
	gap := float64(simclock.Millisecond) / float64(kops) // mean ns between arrivals
	var ops []zop
	t := float64(from)
	for {
		t += rng.ExpFloat64() * gap
		if t >= float64(from+span) {
			return ops
		}
		ops = append(ops, zop{at: simclock.Duration(t), key: uint32(zipf.Next()), write: rng.Intn(2) == 0})
	}
}

// zipfValue encodes a record's value: its per-key write sequence number,
// its key index, and a pattern filling it to 128 bytes.
func zipfValue(buf []byte, key, seq uint32) []byte {
	binary.BigEndian.PutUint32(buf[0:], seq)
	binary.BigEndian.PutUint32(buf[4:], key)
	for i := 8; i < len(buf); i++ {
		buf[i] = byte(key) + byte(i)
	}
	return buf
}

// zipfStats accumulates one stretch of the schedule.
type zipfStats struct {
	lat, wait, service []float64 // µs
	simEnd             simclock.Time
}

// kvOpenZipf drives a 4-core eADR machine open-loop: kvstore is called
// directly with SetAt/GetAt at precomputed Poisson arrival times, so a
// checkpoint pause delays every request that arrives during it.
func kvOpenZipf(c config) (*unit, error) {
	u := newUnit()
	rng := rand.New(rand.NewSource(c.seed))
	const threads = 4
	records := c.n(200_000)
	keys := make([][]byte, records)
	tids := make([]int, records)
	for i := range keys {
		keys[i] = workload.Key(uint64(i))
		h := fnv.New32a()
		h.Write(keys[i])
		tids[i] = int(h.Sum32() % threads)
	}
	zipf := workload.NewZipfian(rng, uint64(records), 0.99)
	span := func(d simclock.Duration) simclock.Duration { return simclock.Duration(float64(d) * c.scale) }
	warm := schedule(rng, zipf, baseKops, 0, span(warmup))
	win := schedule(rng, zipf, baseKops, span(warmup), span(window))
	var ladder [][]zop
	from := span(warmup + window)
	for kops := ladderFirst; kops <= ladderLast; kops += ladderStep {
		ladder = append(ladder, schedule(rng, zipf, kops, from, span(rungLen)))
		from += span(rungLen)
	}

	setup := startPhase()
	kcfg := kernel.DefaultConfig()
	kcfg.Cores = 4
	kcfg.CheckpointEvery = simclock.Millisecond
	kcfg.Seed = uint64(c.seed)
	kcfg.Obs = metricsObserver(c.probe != nil)
	m := kernel.New(kcfg)
	buckets := uint64(65536)
	srv, err := kvstore.NewServer(m, kvstore.ServerConfig{
		Name: "redis", Threads: threads, Buckets: buckets,
		HeapPages: uint64(records)*256/4096*5/4 + buckets*8/4096 + 64,
	})
	if err != nil {
		return nil, err
	}
	// One thread per core; a key always goes to the same thread, so its
	// requests run in program order.
	for i, th := range m.Process("redis").Threads {
		th.Sched.Affinity = i
	}
	val := make([]byte, 128)
	shadow := make([]uint32, records) // newest write sequence number per key
	for i := range keys {
		if _, _, err := srv.Set(tids[i], keys[i], zipfValue(val, uint32(i), 0)); err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
	}
	live := float64(records) * float64(len(keys[0])+len(val))

	t0 := m.Now()
	p := c.probe
	rs := newRounds(m)
	var roundCalls, plainCalls []float64
	var mismatches int
	var opID int64
	run := func(ops []zop) (zipfStats, error) {
		var st zipfStats
		for _, op := range ops {
			opID++
			arr := t0.Add(op.at)
			tid := tids[op.key]
			before := m.Cores[tid].Lane.Now()
			mk := p.start(m.Now)
			var res kernel.OpResult
			var d float64
			var err error
			if op.write {
				shadow[op.key]++
				res, _, err = srv.SetAt(arr, tid, keys[op.key], zipfValue(val, op.key, shadow[op.key]))
				d = float64(p.stop(mk, "kvstore.set", opID, m.Now))
			} else {
				var got []byte
				var ok bool
				res, got, ok, err = srv.GetAt(arr, tid, keys[op.key])
				d = float64(p.stop(mk, "kvstore.get", opID, m.Now))
				if err == nil && (!ok || len(got) != len(val) ||
					binary.BigEndian.Uint32(got[0:]) != shadow[op.key] || binary.BigEndian.Uint32(got[4:]) != op.key) {
					mismatches++
				}
			}
			if err != nil {
				return st, fmt.Errorf("request %d: %w", opID, err)
			}
			if rs.poll() {
				roundCalls = append(roundCalls, d)
			} else {
				plainCalls = append(plainCalls, d)
			}
			start := arr
			if before > start {
				start = before
			}
			st.lat = append(st.lat, res.End.Sub(arr).Micros())
			st.wait = append(st.wait, start.Sub(arr).Micros())
			st.service = append(st.service, res.End.Sub(start).Micros())
			st.simEnd = res.End
		}
		return st, nil
	}
	if _, err := run(warm); err != nil {
		return nil, err
	}
	u.setup, _ = setup.stop()

	timed := startPhase()
	rs.reps, rs.missed = nil, 0
	h0 := stwHist(m)
	c0 := snapshot(m)
	winStart := m.Now()
	ws, err := run(win)
	if err != nil {
		return nil, err
	}
	winReps := rs.reps
	h1 := stwHist(m)
	c1 := snapshot(m)
	winSim := ws.simEnd.Sub(winStart)
	amp := spaceAmp(m, live)
	ops := len(win)
	maxKops := 0
	if quantile(ws.lat, 0.99) <= sloP99.Micros() {
		maxKops = baseKops
	}
	for i, rung := range ladder {
		if maxKops == 0 {
			break
		}
		rst, err := run(rung)
		if err != nil {
			return nil, err
		}
		ops += len(rung)
		kops := ladderFirst + i*ladderStep
		p99 := quantile(rst.lat, 0.99)
		tenth := len(rst.wait) / 10
		first, last := mean(rst.wait[:tenth]), mean(rst.wait[len(rst.wait)-tenth:])
		met := p99 <= sloP99.Micros() && last <= 2*first+1
		u.note("ladder %d kop/s: %d requests, p99 %.3f µs, queue wait first/last tenth %.3f/%.3f µs, limit met %v",
			kops, len(rung), p99, first, last, met)
		if !met {
			break
		}
		maxKops = kops
	}
	u.host, u.alloc = timed.stop()
	u.ops = ops
	u.attempted = ops
	if mismatches != 0 {
		u.problem("%d GETs did not return the latest SET", mismatches)
	}
	if rs.missed != 0 {
		u.problem("%d checkpoint rounds were not observed", rs.missed)
	}
	u.failed = mismatches + len(u.problems)

	u.sim["sim_p50_us"] = quantile(ws.lat, 0.5)
	u.sim["sim_p99_us"] = quantile(ws.lat, 0.99)
	u.sim["sim_kops"] = float64(len(win)) / winSim.Millis()
	u.note("window at %d kop/s: %d requests in %.3f ms simulated; latency p50 %.3f µs, p99 %.3f µs, p99.9 %.3f µs",
		baseKops, len(win), winSim.Millis(), quantile(ws.lat, 0.5), quantile(ws.lat, 0.99), quantile(ws.lat, 0.999))
	u.note("highest ladder rate meeting p99 ≤ %.0f µs without a growing queue: %d kop/s", sloP99.Micros(), maxKops)

	kreq := float64(len(win)) / 1000
	roundLayer(u, winReps, kreq)
	deviceLayer(u, c0, c1, kreq, float64(len(winReps)), 0, winSim*simclock.Duration(len(m.Cores)))
	u.layer["kvstore.req_p999_us"] = quantile(ws.lat, 0.999)
	u.layer["kvstore.max_kops_at_slo"] = float64(maxKops)
	u.layer["kvstore.service_p50_us"] = quantile(ws.service, 0.5)
	u.layer["kvstore.call_host_ns"] = p.medianHost("kvstore.set", "kvstore.get")
	u.layer["kernel.queue_wait_p99_us"] = quantile(ws.wait, 0.99)
	u.layer["checkpoint.cached_pages"] = float64(m.Ckpt.CachedPages())
	u.layer["checkpoint.backup_pages"] = float64(m.Ckpt.Stats.BackupPages)
	u.layer["checkpoint.host_us_per_round"] = roundHostUs(roundCalls, plainCalls)
	u.layer["alloc.space_amp"] = amp
	crossCheck(u, m, winReps, h0, h1)
	return u, nil
}
