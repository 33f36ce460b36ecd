package experiments

import (
	"fmt"

	"treesls/internal/cluster"
	"treesls/internal/simclock"
)

// ReshardRow is one window of the elastic-reshard pause figure: client-
// observed latency and throughput before, during, and after an online
// 4-to-5 scale-out. The migration epoch streams keys and commits its ring
// change inside the ordinary consistent-cut machinery, so the claim under
// test is that resharding is a bounded perturbation — no stop-the-world
// pause — and that the committed fifth shard adds service capacity.
type ReshardRow struct {
	Window string `json:"window"` // before | during | after
	Shards int    `json:"shards"` // ring size the window runs on
	// OpsPerSec is acknowledged requests per simulated second.
	OpsPerSec float64 `json:"ops_per_sec"`
	// Client-observed latency percentiles, in microseconds.
	P50Us float64 `json:"p50_us"`
	P99Us float64 `json:"p99_us"`
	// Requests completed and simulated time inside the window.
	Requests int     `json:"requests"`
	SimMs    float64 `json:"sim_ms"`
}

// reshardDriver drives one gated cluster + unbounded fleet through
// cluster.(*Fleet).Advance, the step policy the scenario harness uses.
type reshardDriver struct {
	c     *cluster.Cluster
	fleet *cluster.Fleet
}

// runUntilAcked drives until the fleet has acknowledged `target` requests
// in total.
func (d *reshardDriver) runUntilAcked(target uint64) error {
	for steps := 0; d.fleet.TotalAcked() < target; steps++ {
		if steps > 1_000_000 {
			return fmt.Errorf("experiments: reshard window stalled at %d/%d acks",
				d.fleet.TotalAcked(), target)
		}
		if _, err := d.fleet.Advance(); err != nil {
			return err
		}
	}
	return nil
}

// window closes a measurement window that began at latency index `from`
// and simulated time `since`.
func (d *reshardDriver) window(name string, shards, from int, since simclock.Time) ReshardRow {
	lats := d.fleet.Latencies[from:]
	elapsed := d.c.Now().Sub(since)
	row := ReshardRow{
		Window:   name,
		Shards:   shards,
		Requests: len(lats),
		SimMs:    elapsed.Millis(),
		P50Us:    percentile(lats, 0.50).Micros(),
		P99Us:    percentile(lats, 0.99).Micros(),
	}
	if secs := elapsed.Millis() / 1000; secs > 0 {
		row.OpsPerSec = float64(len(lats)) / secs
	}
	return row
}

// ReshardPause measures an online 4-to-5 scale-out under steady gated
// load. Three windows: `before` on the 4-shard ring, `during` spanning
// exactly the migration epoch (scan, stream, dual-writes, and the commit
// cut), and `after` on the committed 5-shard ring. Returns the rows, a
// rendered table, and the number of keys the epoch moved.
func ReshardPause(s Scale) ([]ReshardRow, string, uint64, error) {
	clients := s.Clients
	if clients < 8 {
		clients = 8
	}
	perWindow := s.KVOps / 8
	if perWindow < 120 {
		perWindow = 120
	}
	c, err := cluster.New(cluster.Config{
		Shards:       4,
		Cores:        2,
		Gated:        true,
		Seed:         1,
		PerOpCompute: 50 * simclock.Microsecond,
	})
	if err != nil {
		return nil, "", 0, err
	}
	fleet, err := cluster.NewFleet(c, cluster.FleetConfig{
		Clients:       clients,
		KeysPerClient: 4,
		Requests:      0, // unbounded: the windows decide when to stop
		Window:        4,
		ValueBytes:    64,
		Seed:          1,
	})
	if err != nil {
		return nil, "", 0, err
	}
	d := &reshardDriver{c: c, fleet: fleet}

	var rows []ReshardRow

	// Before: steady state on the 4-shard ring.
	from, since := len(fleet.Latencies), c.Now()
	if err := d.runUntilAcked(uint64(perWindow)); err != nil {
		return nil, "", 0, err
	}
	rows = append(rows, d.window("before", 4, from, since))

	// During: exactly the migration epoch. Traffic keeps flowing — keys
	// stream between its requests, dual-writes keep the joiner complete,
	// and the ring flips when the commit cut is announced. An epoch only
	// opens on an idle protocol, so drain any round the window left.
	for c.CurrentPhase() != cluster.PhaseIdle {
		if _, err := d.fleet.Advance(); err != nil {
			return nil, "", 0, err
		}
	}
	from, since = len(fleet.Latencies), c.Now()
	if _, err := c.StartAddShard(); err != nil {
		return nil, "", 0, err
	}
	for steps := 0; c.MigrationInFlight(); steps++ {
		if steps > 1_000_000 {
			return nil, "", 0, fmt.Errorf("experiments: migration epoch never completed")
		}
		if _, err := d.fleet.Advance(); err != nil {
			return nil, "", 0, err
		}
	}
	// Gated responses perturbed by the epoch release at its commit cut and
	// reach their clients just after it, so the window extends through the
	// requests that were in flight while the ring moved.
	if err := d.runUntilAcked(fleet.TotalAcked() + uint64(perWindow/2)); err != nil {
		return nil, "", 0, err
	}
	rows = append(rows, d.window("during", 4, from, since))

	// After: steady state on the committed 5-shard ring.
	target := fleet.TotalAcked() + uint64(perWindow)
	from, since = len(fleet.Latencies), c.Now()
	if err := d.runUntilAcked(target); err != nil {
		return nil, "", 0, err
	}
	rows = append(rows, d.window("after", 5, from, since))

	if c.Stats.Migrations != 1 {
		return nil, "", 0, fmt.Errorf("experiments: %d migrations committed, want 1 (aborted %d)",
			c.Stats.Migrations, c.Stats.MigrationsAborted)
	}

	header := []string{"Window", "Shards", "Ops/s", "p50(µs)", "p99(µs)", "Requests", "Sim(ms)"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Window, fmt.Sprintf("%d", r.Shards),
			f1(r.OpsPerSec), f1(r.P50Us), f1(r.P99Us),
			fmt.Sprintf("%d", r.Requests), f1(r.SimMs),
		})
	}
	txt := fmt.Sprintf("Elastic reshard: online 4->5 scale-out under load (%d keys moved)\n",
		c.Stats.KeysMoved) + table(header, cells)
	return rows, txt, c.Stats.KeysMoved, nil
}
