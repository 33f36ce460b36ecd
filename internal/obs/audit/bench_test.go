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

// BenchmarkBackupDigest times the backup digests after one round's
// changes, each round taken untimed before the timed digests. The
// machines run without the auditor, which would otherwise digest first.
//
//   - pages: one BackupDigest over a committed tree of 64 random-content
//     pages, of which 4 are rewritten each round.
//   - services: BackupDigest and RestorableDigest, as a replicated shard's
//     round and its cut prepare take them, over the default-services tree
//     with one thread register changed each round.
func BenchmarkBackupDigest(b *testing.B) {
	b.Run("pages", benchDigestPages)
	b.Run("services", benchDigestServices)
}

func benchDigestPages(b *testing.B) {
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

func benchDigestServices(b *testing.B) {
	cfg := kernel.DefaultConfig()
	cfg.CheckpointEvery = 0
	m := kernel.New(cfg)
	p := m.Process("shell")
	if p == nil {
		b.Fatal("no shell process")
	}
	m.TakeCheckpoint()
	digestSink = audit.BackupDigest(m.Ckpt, m.Memory) ^ audit.RestorableDigest(m.Ckpt, m.Memory)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		if _, err := m.Run(p, p.MainThread(), func(e *kernel.Env) error {
			e.Touch(func(c *caps.Context) { c.R[0]++ })
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		m.TakeCheckpoint()
		b.StartTimer()
		digestSink = audit.BackupDigest(m.Ckpt, m.Memory) ^ audit.RestorableDigest(m.Ckpt, m.Memory)
	}
}
