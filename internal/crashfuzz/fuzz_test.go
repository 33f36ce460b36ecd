package crashfuzz

import (
	"testing"

	"treesls/internal/mem"
)

// FuzzCrashEvent lets the fuzzer pick the crash point: persistence mode,
// machine seed, the event index at which power fails, how many workload
// steps run before the crash window, and which walk (serial reference or
// parallel work-queue) checkpoints the capability tree. Whatever it picks,
// recovery must succeed and the state-digest auditor must find zero
// violations.
func FuzzCrashEvent(f *testing.F) {
	// Representative corners: both persistence modes, both walks, early
	// and late crash events, short and long pre-crash workloads. Seeds
	// 1-6 are the smoke seeds the repo's crash-fuzz suite always runs.
	f.Add(false, uint64(1), uint64(0), uint16(0), false)
	f.Add(true, uint64(1), uint64(0), uint16(0), true)
	f.Add(true, uint64(2), uint64(17), uint16(5), false)
	f.Add(true, uint64(3), uint64(999), uint16(200), true)
	f.Add(false, uint64(4), uint64(63), uint16(31), false)
	f.Add(true, uint64(42), uint64(7), uint16(90), false)

	f.Fuzz(func(t *testing.T, adr bool, seed, eventK uint64, steps uint16, serial bool) {
		if err := OneShot(persistMode(adr), seed, eventK, steps, serial); err != nil {
			t.Fatalf("adr=%v seed=%d eventK=%d steps=%d serial=%v: %v", adr, seed, eventK, steps, serial, err)
		}
	})
}

// persistMode maps a fuzz target's adr argument to its persistence model.
func persistMode(adr bool) mem.PersistMode {
	if adr {
		return mem.ModeADR
	}
	return mem.ModeEADR
}

// TestCrashFuzzBothWalks runs matched short campaigns with the serial and
// the parallel walk: both must survive with zero audit violations, and the
// parallel campaign must actually have fired crashes (its claim/subtree
// boundaries add persistence events, so the event streams differ).
func TestCrashFuzzBothWalks(t *testing.T) {
	for _, serial := range []bool{false, true} {
		cfg := Config{
			Mode:           mem.ModeADR,
			Seeds:          []uint64{11, 12},
			CrashesPerSeed: 15,
			Audit:          true,
			SerialWalk:     serial,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("serial=%v: %v", serial, err)
		}
		if res.CrashesFired == 0 {
			t.Fatalf("serial=%v: no crashes fired", serial)
		}
		if res.AuditChecks == 0 {
			t.Fatalf("serial=%v: auditor never ran", serial)
		}
		t.Logf("serial=%v: fired=%d restores=%d rollbacks=%d inFlight=%d audits=%d",
			serial, res.CrashesFired, res.Restores, res.Rollbacks, res.InFlightCommitted, res.AuditChecks)
	}
}

// TestCrashFuzzAuditClean is the acceptance gate: the auditor reports zero
// violations across the crash-fuzz smoke seeds in both persistence modes.
func TestCrashFuzzAuditClean(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5, 6}
	crashes := 20
	if testing.Short() {
		seeds = seeds[:3]
		crashes = 8
	}
	for _, mode := range []mem.PersistMode{mem.ModeEADR, mem.ModeADR} {
		cfg := Config{
			Mode:           mode,
			Seeds:          seeds,
			CrashesPerSeed: crashes,
			Audit:          true,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if res.AuditChecks == 0 {
			t.Fatalf("mode %v: auditor never ran", mode)
		}
		t.Logf("mode %v: %d crashes fired, %d audit checks, zero violations",
			mode, res.CrashesFired, res.AuditChecks)
	}
}
