package experiments

import (
	"testing"
)

// TestReplLagGate is the bench-regression gate for checkpoint replication to
// the hot standby, and emits BENCH_repl.json (to $BENCH_REPL_OUT when set,
// as in the CI job). Expected shape: every checkpoint is shipped and
// acknowledged with positive lag; the mean delta grows with the checkpoint
// interval (more dirty pages accumulate per round); and the remote
// durability contract — gated responses wait for the standby ack — costs
// the clients at least as much as local external synchrony at every
// interval.
func TestReplLagGate(t *testing.T) {
	s := QuickScale()
	rows, txt, err := ReplLag(s)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", txt)

	writeBenchJSON(t, "BENCH_REPL_OUT", benchDoc[ReplRow]{Figure: "repl-lag", Scale: s.Name, Rows: rows})

	intervals := []int{500, 1000, 2000, 5000}
	var firstLocalDeltaKB, lastLocalDeltaKB float64
	for i, iv := range intervals {
		l, ok1 := findReplRow(rows, "local", iv)
		r, ok2 := findReplRow(rows, "remote", iv)
		if !ok1 || !ok2 {
			t.Fatalf("missing rows for interval %dµs", iv)
		}
		for _, row := range []ReplRow{l, r} {
			if row.Requests == 0 {
				t.Fatalf("interval %dµs %s: empty latency sample", iv, row.Mode)
			}
			// Every checkpoint round was shipped and acknowledged.
			if row.Deltas == 0 || row.FullSyncs == 0 || row.BytesSent == 0 {
				t.Errorf("interval %dµs %s: replicator idle (%d deltas, %d full, %d bytes)",
					iv, row.Mode, row.Deltas, row.FullSyncs, row.BytesSent)
			}
			// Lag percentiles are ordered and positive: an ack can never
			// arrive before the delta departed.
			if row.LagP50Us <= 0 || row.LagP99Us < row.LagP50Us {
				t.Errorf("interval %dµs %s: bad lag percentiles p50=%.1f p99=%.1f",
					iv, row.Mode, row.LagP50Us, row.LagP99Us)
			}
			if row.ClientP50Us <= 0 || row.ClientP99Us < row.ClientP50Us {
				t.Errorf("interval %dµs %s: bad client percentiles p50=%.1f p99=%.1f",
					iv, row.Mode, row.ClientP50Us, row.ClientP99Us)
			}
		}
		// Remote durability is never cheaper than local external synchrony:
		// the release additionally waits for the standby ack.
		if r.ClientP50Us < l.ClientP50Us {
			t.Errorf("interval %dµs: remote client p50 %.1fµs below local %.1fµs",
				iv, r.ClientP50Us, l.ClientP50Us)
		}
		if i == 0 {
			firstLocalDeltaKB = l.DeltaKBMean
		}
		if i == len(intervals)-1 {
			lastLocalDeltaKB = l.DeltaKBMean
		}
	}
	// Longer intervals accumulate more dirty state per round, so the mean
	// shipped delta grows from the shortest to the longest interval.
	if lastLocalDeltaKB <= firstLocalDeltaKB {
		t.Errorf("mean delta did not grow with the interval: %.1fKB at %dµs vs %.1fKB at %dµs",
			firstLocalDeltaKB, intervals[0], lastLocalDeltaKB, intervals[len(intervals)-1])
	}
}

// findReplRow returns the row for (mode, intervalUs), or false.
func findReplRow(rows []ReplRow, mode string, intervalUs int) (ReplRow, bool) {
	for _, r := range rows {
		if r.Mode == mode && r.IntervalUs == intervalUs {
			return r, true
		}
	}
	return ReplRow{}, false
}
