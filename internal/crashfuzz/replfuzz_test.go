package crashfuzz

import (
	"testing"

	"treesls/internal/checkpoint"
	"treesls/internal/mem"
)

// TestReplCrashCampaign is the crash-during-replication campaign: power
// failures land on the primary while checkpoint deltas are mid-send,
// applied-but-unacknowledged, and mid-failover (probed as a promotion
// retry), across both persistence models, all three copy variants, and
// three seeds each. The contract under test: zero acknowledged-but-lost
// checkpoints — every checkpoint whose ack had arrived by the probe instant
// promotes on the standby with the primary's recorded digest, and no
// unacknowledged checkpoint is ever promoted.
func TestReplCrashCampaign(t *testing.T) {
	type cell struct {
		name   string
		method checkpoint.CopyMethod
		hybrid bool
	}
	variants := []cell{
		{"cow", checkpoint.MethodCOW, false},
		{"stopcopy", checkpoint.MethodStopAndCopy, false},
		{"hybrid", checkpoint.MethodCOW, true},
	}
	seeds := []uint64{1, 2, 3}
	perSeed := 8
	if testing.Short() {
		seeds = seeds[:2]
		perSeed = 4
	}
	total := 0
	for _, mode := range []mem.PersistMode{mem.ModeEADR, mem.ModeADR} {
		for _, v := range variants {
			res, err := RunRepl(ReplConfig{
				Mode:           mode,
				Method:         v.method,
				Hybrid:         v.hybrid,
				Seeds:          seeds,
				CrashesPerSeed: perSeed,
			})
			if err != nil {
				t.Fatalf("%v/%s campaign: %v", mode, v.name, err)
			}
			total += res.CrashesFired
			if res.CrashesFired == 0 {
				t.Fatalf("%v/%s campaign: no crash ever fired", mode, v.name)
			}
			if res.Failovers == 0 {
				t.Errorf("%v/%s campaign: no acknowledged failover was ever probed", mode, v.name)
			}
			if res.MidSendProbes == 0 || res.UnackedProbes == 0 {
				t.Errorf("%v/%s campaign: boundary coverage missing (mid-send %d, unacked %d)",
					mode, v.name, res.MidSendProbes, res.UnackedProbes)
			}
			if res.Deltas == 0 || res.FullSyncs == 0 {
				t.Errorf("%v/%s campaign: replicator idle (%d deltas, %d full syncs)",
					mode, v.name, res.Deltas, res.FullSyncs)
			}
			t.Logf("%v/%s: %d crashes, %d failovers, %d mid-send, %d unacked, %d no-ack, %d deltas (%d full), %d bytes",
				mode, v.name, res.CrashesFired, res.Failovers, res.MidSendProbes,
				res.UnackedProbes, res.NoAckedAtProbe, res.Deltas, res.FullSyncs, res.BytesSent)
		}
	}
	want := 60
	if testing.Short() {
		want = 20
	}
	if total < want {
		t.Errorf("campaign fired %d crashes, want >= %d", total, want)
	}
}

// FuzzReplCrashEvent hands the replication crash-injection parameter space
// to the fuzzer: persistence mode, copy variant, machine seed, armed
// persistence-event index, and round budget. The oracle (ReplOneShot)
// probes failover on every replication boundary after the injected failure
// and restores the primary.
func FuzzReplCrashEvent(f *testing.F) {
	// Early countdowns land inside the first rounds' SETs with the initial
	// full sync still unacknowledged.
	f.Add(false, uint8(0), uint64(1), uint64(5), uint16(6))
	// Medium countdowns land inside a checkpoint walk with incremental
	// deltas in flight.
	f.Add(false, uint8(1), uint64(2), uint64(33), uint16(12))
	// Large countdowns reach past a full-sync generation boundary so ledger
	// GC has run before the crash.
	f.Add(false, uint8(2), uint64(3), uint64(77), uint16(20))
	// The same boundaries under ADR line-drop/tear damage.
	f.Add(true, uint8(0), uint64(4), uint64(11), uint16(8))
	f.Add(true, uint8(1), uint64(5), uint64(49), uint16(14))
	f.Add(true, uint8(2), uint64(6), uint64(88), uint16(22))
	f.Fuzz(func(t *testing.T, adr bool, variant uint8, seed, eventK uint64, steps uint16) {
		if err := ReplOneShot(persistMode(adr), variant, seed, eventK, steps); err != nil {
			t.Fatal(err)
		}
	})
}
