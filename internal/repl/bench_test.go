package repl

import (
	"encoding/binary"
	"runtime"
	"testing"

	"treesls/internal/caps"
	"treesls/internal/checkpoint"
	"treesls/internal/kernel"
	"treesls/internal/mem"
)

const (
	// rigPages restorable pages back the rig's tree, and rigDirty of them
	// change between rounds, as in a steady workload.
	rigPages, rigDirty = 96, 4
)

// replRig is a primary machine with a replicator at the default periodic
// full sync (every 16th round), whose backup tree holds rigPages pages.
type replRig struct {
	m     *kernel.Machine
	rep   *Replicator
	round int
	// step dirties the next rigDirty pages and takes a checkpoint.
	step func()
}

func newReplRig(tb testing.TB) *replRig {
	tb.Helper()
	cfg := kernel.DefaultConfig()
	cfg.Cores = 2
	cfg.CheckpointEvery = 0
	m := kernel.New(cfg)
	p, err := m.NewProcess("bench", 1)
	if err != nil {
		tb.Fatal(err)
	}
	va, _, err := p.Mmap(rigPages, caps.PMODefault)
	if err != nil {
		tb.Fatal(err)
	}
	var stamp [8]byte
	write := func(page int, v uint64) {
		binary.LittleEndian.PutUint64(stamp[:], v)
		if _, err := m.Run(p, p.MainThread(), func(e *kernel.Env) error {
			return e.Write(va+uint64(page)*mem.PageSize, stamp[:])
		}); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < rigPages; i++ {
		write(i, 1)
	}
	rig := &replRig{m: m, rep: Attach(m, nil, Config{})}
	m.TakeCheckpoint()
	pages := 0
	for k := range capture(m).Entries {
		if k.Kind == checkpoint.ReplPage {
			pages++
		}
	}
	if pages < 64 {
		tb.Fatalf("backup tree holds %d pages, want at least 64", pages)
	}
	rig.step = func() {
		for j := 0; j < rigDirty; j++ {
			write((rig.round*rigDirty+j)%rigPages, uint64(rig.round+2))
		}
		rig.round++
		m.TakeCheckpoint()
	}
	return rig
}

// BenchmarkReplRound measures the host cost of one checkpoint round with a
// replicator attached: rigDirty of the tree's rigPages pages change between
// rounds, and every 16th round is the periodic full sync.
func BenchmarkReplRound(b *testing.B) {
	rig := newReplRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.step()
	}
}

// TestReplRoundAllocations holds a steady replicated round to at most 4 KiB
// of host allocation once the ledger has dropped two full-sync generations:
// the rigDirty changed pages then fill buffers the dropped generations
// released. Copying each changed page into a new slice costs 16 KiB alone.
func TestReplRoundAllocations(t *testing.T) {
	rig := newReplRig(t)
	for rig.m.Ckpt.CommittedVersion() < 2*16+1 {
		rig.step()
	}
	if rig.rep.Stats.GCedDeltas == 0 {
		t.Fatalf("no ledger entry was dropped after %d rounds", rig.round)
	}
	// Measure the incremental rounds up to the next full sync.
	var before, after runtime.MemStats
	rounds := 0
	runtime.ReadMemStats(&before)
	for (rig.m.Ckpt.CommittedVersion()+1)%16 != 0 {
		rig.step()
		rounds++
	}
	runtime.ReadMemStats(&after)
	perRound := (after.TotalAlloc - before.TotalAlloc) / uint64(rounds)
	t.Logf("%d steady rounds: %d B and %.1f allocations per round", rounds, perRound,
		float64(after.Mallocs-before.Mallocs)/float64(rounds))
	if perRound > 4<<10 {
		t.Fatalf("a steady replicated round allocates %d B, want at most %d", perRound, 4<<10)
	}
}
