package crashfuzz

import (
	"testing"

	"treesls/internal/mem"
)

// TestClusterCrashCampaign is the cluster-wide crash campaign of the
// consistent-cut protocol: power failures, single-shard crashes and
// coordinator losses land on mid-route, shard-prepared-but-uncut and
// mid-cut-announce boundaries across seeds and both persistence models.
// After every recovery the cluster must sit on a previously announced cut
// whose digests verify, with zero released-but-uncovered responses.
func TestClusterCrashCampaign(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	perSeed := 24
	if testing.Short() {
		seeds = seeds[:2]
		perSeed = 10
	}
	total := 0
	for _, mode := range []mem.PersistMode{mem.ModeEADR, mem.ModeADR} {
		res, err := RunCluster(ClusterConfig{Mode: mode, Seeds: seeds, CrashesPerSeed: perSeed})
		if err != nil {
			t.Fatalf("%v campaign: %v", mode, err)
		}
		total += res.CrashesFired
		if res.CrashesFired == 0 {
			t.Fatalf("%v campaign: no crash ever fired", mode)
		}
		if res.Recoveries != res.CrashesFired {
			t.Errorf("%v campaign: %d crashes but %d recoveries", mode, res.CrashesFired, res.Recoveries)
		}
		// Target coverage: every failure mode must have been exercised.
		if res.PowerCrashes == 0 || res.ShardCrashes == 0 || res.CoordCrashes == 0 {
			t.Errorf("%v campaign: target coverage power=%d shard=%d coord=%d",
				mode, res.PowerCrashes, res.ShardCrashes, res.CoordCrashes)
		}
		// Boundary coverage: crashes must land on every protocol boundary,
		// not just quiescent traffic.
		if res.MidRoute == 0 {
			t.Errorf("%v campaign: no crash landed mid-route", mode)
		}
		if res.PreparedUncut == 0 {
			t.Errorf("%v campaign: no crash landed with a shard prepared but uncut", mode)
		}
		if res.MidAnnounce == 0 {
			t.Errorf("%v campaign: no crash landed mid-cut-announce", mode)
		}
		if res.Acked == 0 {
			t.Errorf("%v campaign: fleet never completed a request", mode)
		}
		if res.Released == 0 {
			t.Errorf("%v campaign: the gates never released a response", mode)
		}
		if res.Rounds == 0 {
			t.Errorf("%v campaign: no cluster round ever completed", mode)
		}
		if res.AuditChecks == 0 {
			t.Errorf("%v campaign: auditor never ran", mode)
		}
		t.Logf("%v: %d crashes (power=%d shard=%d coord=%d; route=%d uncut=%d announce=%d), %d acked, %d released, %d rounds, %d rollfwd",
			mode, res.CrashesFired, res.PowerCrashes, res.ShardCrashes, res.CoordCrashes,
			res.MidRoute, res.PreparedUncut, res.MidAnnounce,
			res.Acked, res.Released, res.Rounds, res.RollForwards)
	}
	want := 100
	if testing.Short() {
		want = 30
	}
	if total < want {
		t.Errorf("campaign fired %d crashes, want >= %d", total, want)
	}
}

// FuzzClusterCrashEvent hands the cluster crash-injection parameter space
// to the fuzzer: persistence mode, cluster seed, event countdown, crash
// target (power / coordinator / a shard), and micro-step budget. The
// oracle (ClusterOneShot) recovers after the injected failure and checks
// the cluster consistent-cut invariant.
func FuzzClusterCrashEvent(f *testing.F) {
	// Mid-route power loss: a small countdown lands inside early traffic.
	f.Add(false, uint64(1), uint64(3), uint8(0), uint16(120))
	// Shard loss with a prepare outstanding: medium countdowns reach the
	// first round's prepare reports.
	f.Add(false, uint64(2), uint64(17), uint8(2), uint16(240))
	// Coordinator loss mid-announce.
	f.Add(false, uint64(3), uint64(23), uint8(1), uint16(320))
	// Second shard, deep into steady-state rounds.
	f.Add(false, uint64(5), uint64(35), uint8(3), uint16(500))
	// The same boundaries under ADR line-drop/tear damage.
	f.Add(true, uint64(4), uint64(9), uint8(0), uint16(160))
	f.Add(true, uint64(6), uint64(29), uint8(2), uint16(400))
	f.Fuzz(func(t *testing.T, adr bool, seed, eventK uint64, target uint8, steps uint16) {
		if err := ClusterOneShot(persistMode(adr), seed, eventK, target, steps); err != nil {
			t.Fatal(err)
		}
	})
}
