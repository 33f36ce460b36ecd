package audit_test

import (
	"math/rand"
	"testing"

	"treesls/internal/caps"
	"treesls/internal/kernel"
	"treesls/internal/mem"
	"treesls/internal/obs/audit"
)

var digestSink uint64

// BenchmarkBackupDigest times one BackupDigest over a committed tree of 64
// random-content pages. Before each timed digest, untimed, 4 of the pages
// are rewritten and a checkpoint commits them, so the digest sees one
// round's write set against an otherwise unchanged tree. The machine runs
// without the auditor, which would otherwise digest the tree first.
func BenchmarkBackupDigest(b *testing.B) {
	const pages, dirty = 64, 4
	cfg := kernel.DefaultConfig()
	cfg.CheckpointEvery = 0
	cfg.SkipDefaultServices = true
	m := kernel.New(cfg)
	p, err := m.NewProcess("app", 1)
	if err != nil {
		b.Fatal(err)
	}
	va, _, err := p.Mmap(pages, caps.PMODefault)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, mem.PageSize)
	write := func(i int) {
		rng.Read(buf)
		if _, err := m.Run(p, p.MainThread(), func(e *kernel.Env) error {
			return e.Write(va+uint64(i)*mem.PageSize, buf)
		}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < pages; i++ {
		write(i)
	}
	m.TakeCheckpoint()
	digestSink = audit.BackupDigest(m.Ckpt, m.Memory)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		for i := 0; i < dirty; i++ {
			write(rng.Intn(pages))
		}
		m.TakeCheckpoint()
		b.StartTimer()
		digestSink = audit.BackupDigest(m.Ckpt, m.Memory)
	}
}
