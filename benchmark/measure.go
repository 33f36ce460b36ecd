package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"treesls/internal/alloc"
	"treesls/internal/checkpoint"
	"treesls/internal/kernel"
	"treesls/internal/obs"
	"treesls/internal/simclock"
)

// unit is one measured repetition of a workload: its set-up, its timed
// phase, the metrics it produced and the correctness failures it found.
type unit struct {
	setup time.Duration // host time to boot, load and warm up
	host  time.Duration // host time of the timed phase
	alloc uint64        // Go heap bytes allocated in the timed phase
	// ops is the denominator of the per-op host metrics: acknowledged
	// requests, or injections in the sweep.
	ops int
	// opHost, when set, holds one host time per op and replaces host/ops
	// as the unit's host-cost sample (the sweep, whose ops are whole
	// scenario runs, times each one).
	opHost []time.Duration

	attempted, failed int

	sim   map[string]float64 // simulated-clock end-to-end metrics
	layer map[string]float64 // per-layer metrics
	// notes are human-readable lines (sample counts, workload-specific
	// results) printed above the result.
	notes    []string
	problems []string
}

func newUnit() *unit {
	return &unit{sim: map[string]float64{}, layer: map[string]float64{}}
}

func (u *unit) problem(format string, args ...any) {
	u.problems = append(u.problems, fmt.Sprintf(format, args...))
}

func (u *unit) note(format string, args ...any) {
	u.notes = append(u.notes, fmt.Sprintf(format, args...))
}

// hostUsPerOp is the unit's host cost per op: the median per-op time when
// ops are timed one by one, else the timed phase's mean.
func (u *unit) hostUsPerOp() float64 {
	if len(u.opHost) > 0 {
		xs := make([]float64, len(u.opHost))
		for i, d := range u.opHost {
			xs[i] = float64(d) / 1e3
		}
		return quantile(xs, 0.5)
	}
	return float64(u.host) / 1e3 / float64(u.ops)
}

func (u *unit) allocKBPerOp() float64 { return float64(u.alloc) / 1024 / float64(u.ops) }

// phase brackets a timed section: it collects garbage first so the
// section starts from a clean heap, then reads wall time and the heap's
// cumulative allocation.
type phase struct {
	t0 time.Time
	a0 uint64
}

func startPhase() phase {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return phase{t0: time.Now(), a0: ms.TotalAlloc}
}

func (p phase) stop() (time.Duration, uint64) {
	d := time.Since(p.t0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return d, ms.TotalAlloc - p.a0
}

// ---- Percentiles -------------------------------------------------------------

// quantile returns the nearest-rank q-quantile of xs (0 when empty). A
// multiset repeated n times has the same nearest-rank quantiles, so
// identical repeated units agree exactly.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// micros converts simulated durations to microseconds.
func micros(ds []simclock.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Micros()
	}
	return xs
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ---- Checkpoint rounds, read from outside -----------------------------------

// rounds collects the reports of the checkpoint rounds one machine takes.
// The benchmark cannot hook the checkpoint manager without changing the
// simulated cost of a round (every registered callback is charged), so it
// polls Ckpt.LastReport after each call it makes; a call that spans more
// than one round leaves the earlier ones unobserved, which the correctness
// checks reject.
type rounds struct {
	m      *kernel.Machine
	seen   uint64
	reps   []checkpoint.Report
	missed uint64
}

func newRounds(m *kernel.Machine) *rounds { return &rounds{m: m, seen: m.Stats.Checkpoints} }

// poll records the newest round if one happened since the last poll and
// reports whether one did.
func (r *rounds) poll() bool {
	n := r.m.Stats.Checkpoints
	if n == r.seen {
		return false
	}
	r.missed += n - r.seen - 1
	r.seen = n
	r.reps = append(r.reps, r.m.Ckpt.LastReport)
	return true
}

// roundLayer writes the checkpoint.* per-layer metrics over reps; kreq is
// the number of acknowledged requests in thousands.
func roundLayer(u *unit, reps []checkpoint.Report, kreq float64) {
	n := float64(len(reps))
	var stw, ipi, tree, hybrid, commit, release, units, steals []float64
	var stop, dirty, migr, demo, objs, faults float64
	for _, r := range reps {
		stw = append(stw, r.STWTotal.Micros())
		ipi = append(ipi, r.IPIWait.Micros())
		tree = append(tree, r.CapTree.Micros())
		hybrid = append(hybrid, r.HybridCopy.Micros())
		commit = append(commit, (r.Others - r.Release).Micros())
		release = append(release, r.Release.Micros())
		units = append(units, float64(r.WalkUnits))
		steals = append(steals, float64(r.WalkSteals))
		stop += float64(r.PagesStopCopied)
		dirty += float64(r.DirtyDRAMCopied)
		migr += float64(r.Migrated)
		demo += float64(r.Demoted)
		faults += float64(r.FaultsLastEpoch)
		for _, c := range r.PerKindCount {
			objs += float64(c)
		}
	}
	u.layer["checkpoint.rounds"] = n
	u.layer["checkpoint.stw_p50_us"] = quantile(stw, 0.5)
	u.layer["checkpoint.stw_p99_us"] = quantile(stw, 0.99)
	u.layer["checkpoint.ipi_mean_us"] = mean(ipi)
	u.layer["checkpoint.captree_mean_us"] = mean(tree)
	u.layer["checkpoint.hybrid_copy_mean_us"] = mean(hybrid)
	u.layer["checkpoint.commit_mean_us"] = mean(commit)
	u.layer["checkpoint.release_mean_us"] = mean(release)
	u.layer["checkpoint.walk_units_per_round"] = mean(units)
	u.layer["checkpoint.walk_steals_per_round"] = mean(steals)
	u.layer["checkpoint.cow_faults_per_kreq"] = ratio(faults, kreq)
	u.layer["checkpoint.stop_copied_per_round"] = ratio(stop, n)
	u.layer["checkpoint.dirty_dram_copied_per_round"] = ratio(dirty, n)
	u.layer["checkpoint.migrated_per_round"] = ratio(migr, n)
	u.layer["checkpoint.demoted_per_round"] = ratio(demo, n)
	u.layer["caps.objects_per_round"] = ratio(objs, n)
	if len(stw) > 0 {
		u.note("checkpoint pauses: %d rounds, STW p50 %.3f µs, p99 %.3f µs", len(stw),
			quantile(stw, 0.5), quantile(stw, 0.99))
	}
}

// ---- Device, journal and allocator counters ----------------------------------

// counters is a snapshot of the cumulative counters of a set of machines.
type counters struct {
	nvmW, nvmR, dramW, flushes, fences    float64
	records                               float64
	pageAllocs, slotAllocs, ckptPages, rb float64
	idle                                  float64 // lane idle time, ns
}

func snapshot(ms ...*kernel.Machine) counters {
	var c counters
	for _, m := range ms {
		st := m.Memory.Stats
		c.nvmW += float64(st.NVMPageWrites)
		c.nvmR += float64(st.NVMPageReads)
		c.dramW += float64(st.DRAMPageWrites)
		c.flushes += float64(st.Flushes)
		c.fences += float64(st.Fences)
		c.records += float64(m.Journal.Records)
		a := m.Alloc.Stats
		c.pageAllocs += float64(a.PageAllocs)
		c.slotAllocs += float64(a.SlotAllocs)
		c.ckptPages += float64(a.CkptPageAllocs)
		c.rb += float64(a.Rollbacks)
		for _, core := range m.Cores {
			c.idle += float64(core.Lane.IdleTime())
		}
	}
	return c
}

// deviceLayer writes the mem/journal/alloc per-layer metrics for the
// counter growth between a and b. cores×elapsed is the lane time available
// for lane_idle_frac.
func deviceLayer(u *unit, a, b counters, kreq, nrounds, restores float64, laneTime simclock.Duration) {
	u.layer["mem.nvm_page_writes_per_kreq"] = ratio(b.nvmW-a.nvmW, kreq)
	u.layer["mem.nvm_page_reads_per_kreq"] = ratio(b.nvmR-a.nvmR, kreq)
	u.layer["mem.dram_page_writes_per_kreq"] = ratio(b.dramW-a.dramW, kreq)
	u.layer["mem.flushes_per_kreq"] = ratio(b.flushes-a.flushes, kreq)
	u.layer["mem.fences_per_kreq"] = ratio(b.fences-a.fences, kreq)
	u.layer["journal.records_per_round"] = ratio(b.records-a.records, nrounds)
	u.layer["alloc.page_allocs_per_round"] = ratio(b.pageAllocs-a.pageAllocs, nrounds)
	u.layer["alloc.slot_allocs_per_round"] = ratio(b.slotAllocs-a.slotAllocs, nrounds)
	u.layer["alloc.ckpt_page_allocs_per_round"] = ratio(b.ckptPages-a.ckptPages, nrounds)
	u.layer["alloc.rollbacks_per_restore"] = ratio(b.rb-a.rb, restores)
	u.layer["kernel.lane_idle_frac"] = ratio(b.idle-a.idle, float64(laneTime))
}

// spaceAmp is the NVM a machine uses beyond its reserved metadata area per
// byte of live key and value data.
func spaceAmp(m *kernel.Machine, liveBytes float64) float64 {
	used := float64(m.Memory.NVMFrames()-m.Alloc.FreeFrames()) - alloc.ReservedMetaFrames
	return ratio(used*4096, liveBytes)
}

// metricsObserver is the observability layer a traced unit attaches:
// metrics only, so the checkpoint histograms can be cross-checked against
// the rounds the benchmark observed from outside.
func metricsObserver(traced bool) *obs.Observer {
	if !traced {
		return nil
	}
	return &obs.Observer{Metrics: obs.NewRegistry()}
}

// roundHostUs is the host cost of a checkpoint round as seen from the
// calls that contained one: their mean host time minus the median of the
// round-free calls, in µs (0 untraced, when calls are not timed).
func roundHostUs(roundCalls, plainCalls []float64) float64 {
	if len(roundCalls) == 0 || len(plainCalls) == 0 {
		return 0
	}
	return (mean(roundCalls) - quantile(plainCalls, 0.5)) / 1e3
}

// hist is the count and sum of a machine's STW histogram (zero when no
// observer is attached).
type hist struct {
	n   uint64
	sum int64
}

func stwHist(m *kernel.Machine) hist {
	if !m.Obs.MetricsOn() {
		return hist{}
	}
	h := m.Obs.Metrics.Histogram("checkpoint.stw_ns", nil)
	return hist{h.Count(), h.Sum()}
}

// crossCheck compares the rounds observed from outside with the checkpoint
// manager's own STW histogram between snapshots h0 and h1, when a traced
// unit attached one: the two must count the same rounds and the same total
// pause.
func crossCheck(u *unit, m *kernel.Machine, reps []checkpoint.Report, h0, h1 hist) {
	if !m.Obs.MetricsOn() {
		return
	}
	var sum int64
	for _, r := range reps {
		sum += int64(r.STWTotal)
	}
	if h1.n-h0.n != uint64(len(reps)) || h1.sum-h0.sum != sum {
		u.problem("checkpoint histogram saw %d rounds / %d ns of pause, the benchmark %d / %d",
			h1.n-h0.n, h1.sum-h0.sum, len(reps), sum)
	}
}
