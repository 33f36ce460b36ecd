package repl

import (
	"encoding/binary"
	"testing"

	"treesls/internal/caps"
	"treesls/internal/checkpoint"
	"treesls/internal/kernel"
	"treesls/internal/mem"
)

// BenchmarkReplRound measures the host cost of one checkpoint round with a
// replicator attached: the backup tree holds benchPages restorable pages,
// and benchDirty of them change between rounds, as in a steady workload.
// Every 16th round is the default periodic full sync.
func BenchmarkReplRound(b *testing.B) {
	const benchPages, benchDirty = 96, 4
	cfg := kernel.DefaultConfig()
	cfg.Cores = 2
	cfg.CheckpointEvery = 0
	m := kernel.New(cfg)
	p, err := m.NewProcess("bench", 1)
	if err != nil {
		b.Fatal(err)
	}
	va, _, err := p.Mmap(benchPages, caps.PMODefault)
	if err != nil {
		b.Fatal(err)
	}
	var stamp [8]byte
	write := func(page int, v uint64) {
		binary.LittleEndian.PutUint64(stamp[:], v)
		if _, err := m.Run(p, p.MainThread(), func(e *kernel.Env) error {
			return e.Write(va+uint64(page)*mem.PageSize, stamp[:])
		}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < benchPages; i++ {
		write(i, 1)
	}
	Attach(m, nil, Config{})
	m.TakeCheckpoint()
	pages := 0
	for k := range capture(m).Entries {
		if k.Kind == checkpoint.ReplPage {
			pages++
		}
	}
	if pages < 64 {
		b.Fatalf("backup tree holds %d pages, want at least 64", pages)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < benchDirty; j++ {
			write((i*benchDirty+j)%benchPages, uint64(i+2))
		}
		m.TakeCheckpoint()
	}
}
