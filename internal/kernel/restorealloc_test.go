package kernel_test

import (
	"fmt"
	"runtime"
	"testing"

	"treesls/internal/apps/kvstore"
	"treesls/internal/kernel"
	"treesls/internal/mem"
	"treesls/internal/net"
	"treesls/internal/simclock"
)

// crashRestoreAllocBudget bounds the heap bytes one warm crash-and-restore
// cycle of crashRestoreRig allocates. Reviving each object into its crashed
// runtime object, and handing each process its crashed address space back
// with the table storage kept, keeps a cycle near 2.4 KiB and 55
// allocations, most of them the kernel's rebuilt processes and scheduler;
// building every object, page slot and runtime radix anew took about
// 85 KiB, and new address spaces at every restore about 5 KiB.
const crashRestoreAllocBudget = 8 << 10

// crashRestoreRig is a machine shaped like the kv-gated benchmark's, at a
// smaller scale: 4 cores, ADR, a checkpoint every millisecond, and a kvstore
// of 2000 preloaded keys whose responses pass the external-synchrony gate.
type crashRestoreRig struct {
	m    *kernel.Machine
	srv  *kvstore.Server
	keys [][]byte
	val  []byte
	n    int
}

func newCrashRestoreRig(tb testing.TB) *crashRestoreRig {
	tb.Helper()
	cfg := kernel.DefaultConfig()
	cfg.Cores = 4
	cfg.CheckpointEvery = simclock.Millisecond
	cfg.Mem.Persist = mem.ModeADR
	cfg.Mem.CrashSeed = 1
	m := kernel.New(cfg)
	nw, err := net.New(m, net.Config{Gated: true, RingSlots: 4096})
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := kvstore.NewServer(m, kvstore.ServerConfig{
		Name: "redis", Threads: 4, HeapPages: 2048, Buckets: 16384,
		EchoValue: true, Ext: nw.Driver,
	})
	if err != nil {
		tb.Fatal(err)
	}
	r := &crashRestoreRig{m: m, srv: srv, val: make([]byte, 128)}
	for i := 0; i < 2000; i++ {
		r.keys = append(r.keys, []byte(fmt.Sprintf("pre-%06d", i)))
		if _, _, err := srv.Set(i%4, r.keys[i], r.val); err != nil {
			tb.Fatal(err)
		}
	}
	m.TakeCheckpoint()
	return r
}

// cycle overwrites one preloaded key, pulls the plug and restores.
func (r *crashRestoreRig) cycle(tb testing.TB) {
	r.n++
	if _, _, err := r.srv.Set(r.n%4, r.keys[r.n%len(r.keys)], r.val); err != nil {
		tb.Fatal(err)
	}
	r.m.Crash()
	if err := r.m.Restore(); err != nil {
		tb.Fatal(err)
	}
}

// TestCrashRestoreAllocBudget measures the TotalAlloc of warm
// crash-and-restore cycles after a few warm-up cycles, which grow the
// storage later restores reuse.
func TestCrashRestoreAllocBudget(t *testing.T) {
	r := newCrashRestoreRig(t)
	for i := 0; i < 4; i++ {
		r.cycle(t)
	}
	const cycles = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		r.cycle(t)
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / cycles
	t.Logf("%d B and %d allocations a cycle", got, (after.Mallocs-before.Mallocs)/cycles)
	if got > crashRestoreAllocBudget {
		t.Fatalf("a warm crash and restore allocated %d KiB, budget %d KiB", got>>10, crashRestoreAllocBudget>>10)
	}
	if n, err := r.srv.Count(); err != nil || n != uint64(len(r.keys)) {
		t.Fatalf("restored store holds %d keys (%v), want %d", n, err, len(r.keys))
	}
}

// BenchmarkCrashRestore times one warm crash-and-restore cycle of
// crashRestoreRig.
func BenchmarkCrashRestore(b *testing.B) {
	r := newCrashRestoreRig(b)
	for i := 0; i < 4; i++ {
		r.cycle(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.cycle(b)
	}
}
