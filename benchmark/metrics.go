package main

// metric describes one reported metric. BENCHMARK.json at the repository
// root lists the same names, units, directions and bounds; the package test
// keeps the two in step.
type metric struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// moves names, for a per-layer metric, the end-to-end metric and the
	// workload it is expected to move.
	moves string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them. The sim_* metrics use the simulated clock and
// repeat exactly for a seed; the others are host measurements.
var endToEnd = []metric{
	{name: "sim_p50_us", unit: "us", better: "lower", bound: 0.05},
	{name: "sim_p99_us", unit: "us", better: "lower", bound: 0.05},
	{name: "sim_kops", unit: "kop/s", better: "higher", bound: 0.05},
	{name: "host_us_per_op", unit: "us", better: "lower", bound: 0.25},
	{name: "host_alloc_kb_per_op", unit: "KiB", better: "lower", bound: 0.05},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

const (
	gated   = "kv-gated"
	zipfW   = "kv-open-zipf"
	cutW    = "cluster-cut"
	sweepW  = "reshard-crash-sweep"
	allKV   = gated + ", " + zipfW
	ckptAll = gated + ", " + zipfW + ", " + cutW
)

// perLayer are the per-layer metrics, named <module>.<metric>, reported by
// the traced run. A layer that does no such work on a workload reports 0.
var perLayer = []metric{
	{name: "kernel.queue_wait_p99_us", unit: "us", better: "lower", moves: "sim_p99_us on " + zipfW},
	{name: "kernel.lane_idle_frac", unit: "frac", better: "higher", moves: "sim_kops on " + ckptAll},
	{name: "kernel.restore_host_ms", unit: "ms", better: "lower", moves: "host_us_per_op on " + gated},
	{name: "kernel.recovery_p50_us", unit: "us", better: "lower", moves: "sim_p99_us on " + gated},
	{name: "kernel.recovery_p90_us", unit: "us", better: "lower", moves: "sim_p99_us on " + gated},
	{name: "kvstore.req_p999_us", unit: "us", better: "lower", moves: "sim_p99_us on " + ckptAll},
	{name: "kvstore.max_kops_at_slo", unit: "kop/s", better: "higher", moves: "sim_p99_us on " + zipfW},
	{name: "kvstore.service_p50_us", unit: "us", better: "lower", moves: "sim_p50_us on " + zipfW},
	{name: "kvstore.call_host_ns", unit: "ns", better: "lower", moves: "host_us_per_op on " + zipfW},
	{name: "checkpoint.rounds", unit: "count", better: "lower", moves: "sim_kops on " + cutW},
	{name: "checkpoint.stw_p50_us", unit: "us", better: "lower", moves: "sim_p50_us on " + zipfW},
	{name: "checkpoint.stw_p99_us", unit: "us", better: "lower", moves: "sim_p99_us on " + zipfW + ", " + cutW},
	{name: "checkpoint.ipi_mean_us", unit: "us", better: "lower", moves: "sim_p99_us on " + zipfW},
	{name: "checkpoint.captree_mean_us", unit: "us", better: "lower", moves: "sim_p99_us on " + zipfW + ", " + cutW},
	{name: "checkpoint.hybrid_copy_mean_us", unit: "us", better: "lower", moves: "sim_p99_us on " + zipfW},
	{name: "checkpoint.commit_mean_us", unit: "us", better: "lower", moves: "sim_p99_us on " + zipfW + ", " + cutW},
	{name: "checkpoint.release_mean_us", unit: "us", better: "lower", moves: "sim_p50_us on " + gated},
	{name: "checkpoint.walk_units_per_round", unit: "count", better: "lower", moves: "sim_p99_us on " + zipfW},
	{name: "checkpoint.walk_steals_per_round", unit: "count", better: "lower", moves: "sim_p99_us on " + zipfW},
	{name: "checkpoint.cow_faults_per_kreq", unit: "count", better: "lower", moves: "sim_p50_us on " + zipfW},
	{name: "checkpoint.stop_copied_per_round", unit: "count", better: "lower", moves: "sim_p99_us on " + zipfW},
	{name: "checkpoint.dirty_dram_copied_per_round", unit: "count", better: "lower", moves: "sim_p99_us on " + zipfW},
	{name: "checkpoint.migrated_per_round", unit: "count", better: "lower", moves: "sim_p99_us on " + zipfW},
	{name: "checkpoint.demoted_per_round", unit: "count", better: "lower", moves: "sim_p99_us on " + zipfW},
	{name: "checkpoint.cached_pages", unit: "count", better: "lower", moves: "sim_p99_us on " + zipfW},
	{name: "checkpoint.backup_pages", unit: "count", better: "lower", moves: "alloc.space_amp on " + allKV},
	{name: "checkpoint.host_us_per_round", unit: "us", better: "lower", moves: "host_us_per_op on " + zipfW},
	{name: "mem.nvm_page_writes_per_kreq", unit: "count", better: "lower", moves: "sim_p50_us on " + zipfW},
	{name: "mem.nvm_page_reads_per_kreq", unit: "count", better: "lower", moves: "sim_p50_us on " + zipfW},
	{name: "mem.dram_page_writes_per_kreq", unit: "count", better: "lower", moves: "sim_p99_us on " + zipfW},
	{name: "mem.flushes_per_kreq", unit: "count", better: "lower", moves: "sim_p50_us, host_us_per_op on " + gated},
	{name: "mem.fences_per_kreq", unit: "count", better: "lower", moves: "sim_p50_us, host_us_per_op on " + gated},
	{name: "journal.records_per_round", unit: "count", better: "lower", moves: "checkpoint.commit_mean_us on " + ckptAll},
	{name: "alloc.page_allocs_per_round", unit: "count", better: "lower", moves: "sim_p99_us on " + zipfW},
	{name: "alloc.slot_allocs_per_round", unit: "count", better: "lower", moves: "sim_p99_us on " + zipfW},
	{name: "alloc.ckpt_page_allocs_per_round", unit: "count", better: "lower", moves: "sim_p99_us on " + zipfW},
	{name: "alloc.rollbacks_per_restore", unit: "count", better: "lower", moves: "kernel.recovery_p50_us on " + gated},
	{name: "alloc.space_amp", unit: "B/B", better: "lower", moves: "setup_s on " + allKV},
	{name: "caps.objects_per_round", unit: "count", better: "lower", moves: "checkpoint.captree_mean_us on " + ckptAll},
	{name: "extsync.release_lag_p50_us", unit: "us", better: "lower", moves: "sim_p50_us on " + gated + ", " + cutW},
	{name: "extsync.release_lag_p99_us", unit: "us", better: "lower", moves: "sim_p99_us on " + gated + ", " + cutW},
	{name: "extsync.ring_full", unit: "count", better: "lower", moves: "failed on " + gated + ", " + cutW},
	{name: "extsync.discarded_per_crash", unit: "count", better: "lower", moves: "net.retransmits_per_crash on " + gated},
	{name: "net.dispatch_host_ns", unit: "ns", better: "lower", moves: "host_us_per_op on " + gated},
	{name: "net.retransmits_per_crash", unit: "count", better: "lower", moves: "sim_p99_us on " + gated},
	{name: "net.dropped_requests_per_crash", unit: "count", better: "lower", moves: "sim_p99_us on " + gated},
	{name: "net.dropped_responses_per_crash", unit: "count", better: "lower", moves: "sim_p99_us on " + gated},
	{name: "repl.bytes_per_round", unit: "B", better: "lower", moves: "cluster.round_host_us on " + cutW},
	{name: "repl.deltas_per_round", unit: "count", better: "lower", moves: "cluster.round_host_us on " + cutW},
	{name: "repl.full_syncs", unit: "count", better: "lower", moves: "cluster.round_host_us on " + cutW},
	{name: "repl.link_stalls", unit: "count", better: "lower", moves: "cluster.round_host_us on " + cutW},
	{name: "cluster.round_sim_p50_us", unit: "us", better: "lower", moves: "sim_p50_us, sim_kops on " + cutW},
	{name: "cluster.round_sim_p99_us", unit: "us", better: "lower", moves: "sim_p99_us on " + cutW},
	{name: "cluster.round_host_us", unit: "us", better: "lower", moves: "host_us_per_op on " + cutW},
	{name: "cluster.fleet_step_host_ns", unit: "ns", better: "lower", moves: "host_us_per_op on " + cutW},
	{name: "cluster.rounds_per_kreq", unit: "count", better: "lower", moves: "sim_kops on " + cutW},
	{name: "scenario.events_per_run", unit: "count", better: "lower", moves: "host_us_per_op on " + sweepW},
	{name: "scenario.crashes_fired_frac", unit: "frac", better: "higher", moves: "host_us_per_op on " + sweepW},
	{name: "scenario.retransmits_per_run", unit: "count", better: "lower", moves: "host_us_per_op on " + sweepW},
	{name: "scenario.rollforwards_per_run", unit: "count", better: "lower", moves: "host_us_per_op on " + sweepW},
	{name: "scenario.migrations_aborted_frac", unit: "frac", better: "lower", moves: "host_us_per_op on " + sweepW},
	{name: "scenario.linearize_ops_per_run", unit: "count", better: "lower", moves: "host_us_per_op on " + sweepW},
	{name: "scenario.eventcount_host_ms", unit: "ms", better: "lower", moves: "setup_s on " + sweepW},
	{name: "host.alloc_frac", unit: "frac", better: "lower", moves: "host_us_per_op on " + allKV},
	{name: "host.apps_frac", unit: "frac", better: "lower", moves: "host_us_per_op on " + zipfW},
	{name: "host.caps_frac", unit: "frac", better: "lower", moves: "host_us_per_op on " + ckptAll},
	{name: "host.checkpoint_frac", unit: "frac", better: "lower", moves: "host_us_per_op on " + gated + ", " + zipfW},
	{name: "host.cluster_frac", unit: "frac", better: "lower", moves: "host_us_per_op on " + sweepW},
	{name: "host.extsync_frac", unit: "frac", better: "lower", moves: "host_us_per_op on " + gated},
	{name: "host.faultplane_frac", unit: "frac", better: "lower", moves: "host_us_per_op on " + sweepW},
	{name: "host.journal_frac", unit: "frac", better: "lower", moves: "host_us_per_op on " + gated},
	{name: "host.kernel_frac", unit: "frac", better: "lower", moves: "host_us_per_op on " + allKV},
	{name: "host.linearize_frac", unit: "frac", better: "lower", moves: "host_us_per_op on " + sweepW},
	{name: "host.mem_frac", unit: "frac", better: "lower", moves: "host_us_per_op on " + allKV},
	{name: "host.net_frac", unit: "frac", better: "lower", moves: "host_us_per_op on " + gated},
	{name: "host.obs_frac", unit: "frac", better: "lower", moves: "host_us_per_op on " + cutW + ", " + sweepW},
	{name: "host.repl_frac", unit: "frac", better: "lower", moves: "host_us_per_op on " + cutW},
	{name: "host.simclock_frac", unit: "frac", better: "lower", moves: "host_us_per_op on " + ckptAll},
	{name: "host.vm_frac", unit: "frac", better: "lower", moves: "host_us_per_op on " + zipfW},
	{name: "host.gc_frac", unit: "frac", better: "lower", moves: "host_alloc_kb_per_op, host_us_per_op on all"},
	{name: "trace.overhead_us_per_op", unit: "us", better: "lower", moves: "nothing: traced minus untraced host_us_per_op"},
}
