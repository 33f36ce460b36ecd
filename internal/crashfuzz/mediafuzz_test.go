package crashfuzz

import (
	"testing"
)

// FuzzMediaFault lets the fuzzer pick the media-fault campaign shape:
// persistence mode, machine seed, how many inject-crash-restore rounds run,
// how many random NVM lines are poisoned at each power failure, and whether
// restores are themselves crashed mid-flight. Whatever it picks, every
// restored page must be bit-identical to the committed oracle or explicitly
// named in the restore manifest — zero silent corruptions.
func FuzzMediaFault(f *testing.F) {
	// Representative corners: both persistence modes, all three copy
	// methods (selected by seed%3 inside OneShotMedia), quiet and noisy
	// background damage, with and without restore re-entrancy.
	f.Add(false, uint64(1), uint64(3), uint64(0), false)
	f.Add(true, uint64(1), uint64(3), uint64(0), true)
	f.Add(true, uint64(2), uint64(7), uint64(2), false)
	f.Add(true, uint64(3), uint64(11), uint64(3), true)
	f.Add(false, uint64(4), uint64(5), uint64(1), true)
	f.Add(true, uint64(5), uint64(9), uint64(2), true)

	f.Fuzz(func(t *testing.T, adr bool, seed, injections, crashFaults uint64, duringRestore bool) {
		if err := OneShotMedia(persistMode(adr), seed, injections, crashFaults, duringRestore); err != nil {
			t.Fatalf("adr=%v seed=%d injections=%d crashFaults=%d duringRestore=%v: %v",
				adr, seed, injections, crashFaults, duringRestore, err)
		}
	})
}
