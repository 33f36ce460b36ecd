package kernel

import (
	"runtime"
	"testing"
)

// bootAllocBudget bounds the heap bytes one default machine allocates at
// boot. Boot must cost what the machine holds, not what its devices could
// hold: per-frame tables sized to the 64 Ki NVM and 16 Ki DRAM frames alone
// would take about 1 MiB, while the lazy tables and the DRAM watermark keep
// boot near 160 KiB.
const bootAllocBudget = 256 << 10

// TestBootAllocBudget measures the TotalAlloc of New(DefaultConfig()) after
// one warm-up boot (which pays for package-level tables built on first
// use).
func TestBootAllocBudget(t *testing.T) {
	New(DefaultConfig())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := New(DefaultConfig())
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	if got := after.TotalAlloc - before.TotalAlloc; got > bootAllocBudget {
		t.Fatalf("kernel.New(DefaultConfig()) allocated %d KiB, budget %d KiB", got>>10, bootAllocBudget>>10)
	}
}
