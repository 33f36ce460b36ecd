package crashfuzz

import (
	"testing"

	"treesls/internal/mem"
)

// TestNetCrashCampaign is the network-in-flight crash campaign of the
// external-synchrony gate: power failures land on mid-request,
// response-buffered, and mid-release boundaries across many seeds and both
// persistence models, and after every restore no client may hold a
// released-but-unpersisted response. The full campaign fires well over a
// thousand crashes; -short runs a reduced one.
func TestNetCrashCampaign(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	perSeed := 70
	if testing.Short() {
		seeds = seeds[:3]
		perSeed = 15
	}
	total := 0
	for _, mode := range []mem.PersistMode{mem.ModeEADR, mem.ModeADR} {
		res, err := RunNet(NetConfig{Mode: mode, Seeds: seeds, CrashesPerSeed: perSeed})
		if err != nil {
			t.Fatalf("%v campaign: %v", mode, err)
		}
		total += res.CrashesFired
		if res.CrashesFired == 0 {
			t.Fatalf("%v campaign: no crash ever fired", mode)
		}
		if res.Acked == 0 {
			t.Errorf("%v campaign: fleet never completed a request", mode)
		}
		// Boundary coverage: the campaign must actually have hit the
		// response path, not just idle checkpoints.
		if res.DroppedRequests == 0 {
			t.Errorf("%v campaign: no crash landed with a request in flight", mode)
		}
		if res.DroppedResponses == 0 {
			t.Errorf("%v campaign: no crash landed with a response buffered", mode)
		}
		if res.Retransmits == 0 {
			t.Errorf("%v campaign: clients never needed to retransmit", mode)
		}
		if res.Released == 0 {
			t.Errorf("%v campaign: the gate never released a response", mode)
		}
		if res.AuditChecks == 0 {
			t.Errorf("%v campaign: auditor never ran", mode)
		}
		t.Logf("%v: %d crashes, %d acked, %d retransmits, %d dropped responses, %d released, %d checkpoints",
			mode, res.CrashesFired, res.Acked, res.Retransmits, res.DroppedResponses, res.Released, res.Checkpoints)
	}
	want := 1000
	if testing.Short() {
		want = 50
	}
	if total < want {
		t.Errorf("campaign fired %d crashes, want >= %d", total, want)
	}
}

// FuzzNetCrashEvent hands the network crash-injection parameter space to
// the fuzzer: persistence mode, machine seed, armed persistence-event
// index, and micro-step budget. The oracle (NetOneShot) restores after the
// injected failure and checks the external-synchrony invariant.
func FuzzNetCrashEvent(f *testing.F) {
	// Mid-request: small countdowns land inside the first SETs' stores.
	f.Add(false, uint64(1), uint64(3), uint16(40))
	// Response-buffered: medium countdowns land on the ring append.
	f.Add(false, uint64(2), uint64(17), uint16(80))
	// Mid-release: larger countdowns reach into a checkpoint's commit and
	// the ring pointer updates that follow it.
	f.Add(false, uint64(3), uint64(45), uint16(160))
	f.Add(false, uint64(7), uint64(61), uint16(199))
	// The same boundaries under ADR line-drop/tear damage.
	f.Add(true, uint64(4), uint64(9), uint16(60))
	f.Add(true, uint64(5), uint64(33), uint16(120))
	f.Add(true, uint64(6), uint64(57), uint16(180))
	f.Fuzz(func(t *testing.T, adr bool, seed, eventK uint64, steps uint16) {
		if err := NetOneShot(persistMode(adr), seed, eventK, steps); err != nil {
			t.Fatal(err)
		}
	})
}
