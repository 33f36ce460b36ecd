package experiments

import (
	"testing"
)

// TestClusterScalingGate is the bench-regression gate for sharded-cluster
// scaling, and emits BENCH_cluster.json (to $BENCH_CLUSTER_OUT when set, as
// in the CI job). Each shard saturates on per-op compute, so aggregate
// gated throughput must strictly increase from 1 to 2 to 4 shards even
// though every response waits for a cluster-wide consistent cut.
func TestClusterScalingGate(t *testing.T) {
	s := QuickScale()
	rows, txt, err := ClusterScaling(s)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", txt)

	writeBenchJSON(t, "BENCH_CLUSTER_OUT", benchDoc[ClusterRow]{Figure: "cluster-scaling", Scale: s.Name, Rows: rows})

	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3 (shards 1, 2, 4)", len(rows))
	}
	var prev ClusterRow
	for i, r := range rows {
		if r.Requests == 0 {
			t.Fatalf("shards=%d: empty latency sample", r.Shards)
		}
		if r.OpsPerSec <= 0 {
			t.Fatalf("shards=%d: non-positive throughput %.1f", r.Shards, r.OpsPerSec)
		}
		if r.P50Us <= 0 || r.P95Us < r.P50Us {
			t.Errorf("shards=%d: bad percentiles p50=%.1f p95=%.1f", r.Shards, r.P50Us, r.P95Us)
		}
		if r.Rounds == 0 {
			t.Errorf("shards=%d: no cluster round completed", r.Shards)
		}
		// The gate: aggregate gated throughput strictly increases with the
		// shard count — partitioning the keyspace adds service capacity.
		if i > 0 && r.OpsPerSec <= prev.OpsPerSec {
			t.Errorf("shards=%d: ops/s %.1f not above shards=%d ops/s %.1f",
				r.Shards, r.OpsPerSec, prev.Shards, prev.OpsPerSec)
		}
		prev = r
	}
}
