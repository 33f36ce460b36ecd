package crashfuzz

import (
	"testing"

	"treesls/internal/mem"
)

// TestReshardCrashCampaign is the elastic-reshard crash campaign: scale-out
// and scale-in epochs run under traffic while power, coordinator, source
// and destination failures land on every migration boundary — mid-stream,
// keys-installed-but-uncut, mid-ring-announce, and post-commit. Every
// recovery must land on a whole old or new ring with the full cluster
// oracle clean.
func TestReshardCrashCampaign(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	perSeed := 8
	if testing.Short() {
		seeds = seeds[:2]
		perSeed = 4
	}
	for _, mode := range []mem.PersistMode{mem.ModeEADR, mem.ModeADR} {
		res, err := RunReshard(ReshardConfig{Mode: mode, Seeds: seeds, ReshardsPerSeed: perSeed})
		if err != nil {
			t.Fatalf("%v campaign: %v", mode, err)
		}
		if res.CrashesFired == 0 {
			t.Fatalf("%v campaign: no crash ever fired", mode)
		}
		if res.Recoveries != res.CrashesFired {
			t.Errorf("%v campaign: %d crashes but %d recoveries", mode, res.CrashesFired, res.Recoveries)
		}
		// Direction coverage: both scale-out and scale-in must occur.
		if res.Adds == 0 || res.Removes == 0 {
			t.Errorf("%v campaign: direction coverage adds=%d removes=%d", mode, res.Adds, res.Removes)
		}
		// Boundary coverage: the class rotation must have landed a crash
		// on every migration boundary.
		if res.MidStream == 0 {
			t.Errorf("%v campaign: no crash landed mid-stream", mode)
		}
		if res.InstalledUncut == 0 {
			t.Errorf("%v campaign: no crash landed with keys installed but uncut", mode)
		}
		if res.MidAnnounce == 0 {
			t.Errorf("%v campaign: no crash landed mid-ring-announce", mode)
		}
		if res.PostCommit == 0 {
			t.Errorf("%v campaign: no post-commit crash", mode)
		}
		// Outcome coverage: epochs must have both rolled back whole and
		// rolled forward whole.
		if res.RolledBack == 0 || res.RolledForward == 0 {
			t.Errorf("%v campaign: outcome coverage back=%d forward=%d",
				mode, res.RolledBack, res.RolledForward)
		}
		if res.Migrations == 0 {
			t.Errorf("%v campaign: no epoch ever committed", mode)
		}
		if res.MigrationsAborted == 0 {
			t.Errorf("%v campaign: no epoch ever aborted", mode)
		}
		if res.KeysMoved == 0 {
			t.Errorf("%v campaign: no key ever moved", mode)
		}
		if res.Acked == 0 {
			t.Errorf("%v campaign: fleet never completed a request", mode)
		}
		t.Logf("%v: %d crashes (add=%d rm=%d; stream=%d uncut=%d announce=%d post=%d; pw=%d co=%d src=%d dst=%d), back=%d fwd=%d, moved=%d, acked=%d",
			mode, res.CrashesFired, res.Adds, res.Removes,
			res.MidStream, res.InstalledUncut, res.MidAnnounce, res.PostCommit,
			res.PowerCrashes, res.CoordCrashes, res.SourceCrashes, res.DestCrashes,
			res.RolledBack, res.RolledForward, res.KeysMoved, res.Acked)
	}
}

// FuzzReshardEvent hands the reshard crash-injection parameter space to the
// fuzzer: persistence mode, seed (its parity picks scale-out vs scale-in),
// event countdown from the epoch's start, crash target (power /
// coordinator / source / destination), and step budget. The oracle
// (ReshardOneShot) recovers and checks whole-ring convergence plus the full
// cluster invariant.
func FuzzReshardEvent(f *testing.F) {
	// Mid-stream power loss on a scale-out epoch: a small countdown lands
	// inside the scan/stream window.
	f.Add(false, uint64(2), uint64(4), uint8(0), uint16(400))
	// Keys installed but the commit cut not yet announced, destination
	// dies: the joiner holds streamed keys the abort must discard.
	f.Add(false, uint64(4), uint64(14), uint8(3), uint16(500))
	// Mid-ring-announce coordinator loss on a scale-in epoch: the ring
	// change is durable, the publish/release tail is not.
	f.Add(false, uint64(3), uint64(24), uint8(1), uint16(600))
	// Source shard dies mid-stream on a scale-in epoch under ADR damage.
	f.Add(true, uint64(5), uint64(3), uint8(2), uint16(400))
	// Post-commit power loss: the new ring must survive a plain crash.
	f.Add(false, uint64(6), uint64(90), uint8(0), uint16(900))
	f.Fuzz(func(t *testing.T, adr bool, seed, eventK uint64, target uint8, steps uint16) {
		if err := ReshardOneShot(persistMode(adr), seed, eventK, target, steps); err != nil {
			t.Fatal(err)
		}
	})
}
