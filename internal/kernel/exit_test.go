package kernel

import (
	"testing"

	"treesls/internal/caps"
	"treesls/internal/mem"
)

func TestExitProcessReclaimsAtCommit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CheckpointEvery = 0
	cfg.SkipDefaultServices = true
	m := New(cfg)
	baselineFree := m.Alloc.FreeFrames()

	p, _ := m.NewProcess("victim", 2)
	va, _, _ := p.Mmap(16, caps.PMODefault)
	for i := 0; i < 16; i++ {
		m.Run(p, p.MainThread(), func(e *Env) error {
			return e.Write(va+uint64(i)*4096, []byte("data"))
		})
	}
	m.TakeCheckpoint() // backups exist now
	afterCkptFree := m.Alloc.FreeFrames()
	if afterCkptFree >= baselineFree {
		t.Fatal("workload allocated nothing?")
	}

	if err := m.ExitProcess("victim"); err != nil {
		t.Fatal(err)
	}
	if m.Process("victim") != nil {
		t.Fatal("process still listed")
	}
	if err := m.ExitProcess("victim"); err == nil {
		t.Fatal("double exit succeeded")
	}
	// Counts drop out of the tree immediately.
	if c := m.Tree.Counts(); c[caps.KindThread] != 0 || c[caps.KindPMO] != 0 {
		t.Errorf("tree still holds %v", c)
	}

	// Reclamation lands at the next commit: runtime frames (deferred) AND
	// backup pages (unreachable-root sweep).
	m.TakeCheckpoint()
	if m.Ckpt.Stats.RootsSwept == 0 {
		t.Error("no roots swept")
	}
	got := m.Alloc.FreeFrames()
	// Everything except the reserved metadata should be free again.
	if got < baselineFree-2 {
		t.Errorf("frames leaked: free=%d baseline=%d", got, baselineFree)
	}
}

// TestExitAfterRestoreFreesBackups exits a process whose copy-on-write
// backups were taken after a restore. The crash rolls back eight
// post-commit page allocations, so the eight backups the overwrites make
// next reuse those frame numbers; the exit must still free every frame and
// every backup at the next commit.
func TestExitAfterRestoreFreesBackups(t *testing.T) {
	const pages = 8
	for _, mode := range []mem.PersistMode{mem.ModeEADR, mem.ModeADR} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.CheckpointEvery = 0
			cfg.SkipDefaultServices = true
			cfg.Mem.Persist = mode
			m := New(cfg)
			baselineFree := m.Alloc.FreeFrames()
			p, err := m.NewProcess("app", 1)
			if err != nil {
				t.Fatal(err)
			}
			va, _, err := p.Mmap(2*pages, caps.PMODefault)
			if err != nil {
				t.Fatal(err)
			}
			write := func(p *Process, from, to int, b byte) {
				t.Helper()
				for i := from; i < to; i++ {
					if _, err := m.Run(p, p.MainThread(), func(e *Env) error {
						return e.Write(va+uint64(i)*mem.PageSize, []byte{b})
					}); err != nil {
						t.Fatal(err)
					}
				}
			}
			write(p, 0, pages, 1)
			m.TakeCheckpoint()
			write(p, pages, 2*pages, 2) // post-commit allocations
			m.Crash()
			if err := m.Restore(); err != nil {
				t.Fatal(err)
			}
			write(m.Process("app"), 0, pages, 3) // COW backups
			m.TakeCheckpoint()
			if err := m.ExitProcess("app"); err != nil {
				t.Fatal(err)
			}
			m.TakeCheckpoint()
			if free := m.Alloc.FreeFrames(); free != baselineFree {
				t.Errorf("%d frames leaked", baselineFree-free)
			}
			if n := m.Ckpt.Stats.BackupPages; n != 0 {
				t.Errorf("BackupPages = %d after the exit, want 0", n)
			}
		})
	}
}

func TestExitRollsBackIfNotCommitted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CheckpointEvery = 0
	cfg.SkipDefaultServices = true
	m := New(cfg)
	p, _ := m.NewProcess("lazarus", 1)
	va, _, _ := p.Mmap(4, caps.PMODefault)
	m.Run(p, p.MainThread(), func(e *Env) error { return e.Write(va, []byte("alive")) })
	m.TakeCheckpoint()

	// Exit WITHOUT a subsequent checkpoint: the kill is not durable.
	if err := m.ExitProcess("lazarus"); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if err := m.Restore(); err != nil {
		t.Fatal(err)
	}
	p2 := m.Process("lazarus")
	if p2 == nil {
		t.Fatal("process not resurrected by restore (exit was never committed)")
	}
	buf := make([]byte, 5)
	if _, err := m.Run(p2, p2.MainThread(), func(e *Env) error { return e.Read(va, buf) }); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "alive" {
		t.Errorf("resurrected memory = %q", buf)
	}
}

func TestExitDurableAfterCommit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CheckpointEvery = 0
	cfg.SkipDefaultServices = true
	m := New(cfg)
	m.NewProcess("doomed", 1)
	m.TakeCheckpoint()
	if err := m.ExitProcess("doomed"); err != nil {
		t.Fatal(err)
	}
	m.TakeCheckpoint() // the kill commits
	m.Crash()
	if err := m.Restore(); err != nil {
		t.Fatal(err)
	}
	if m.Process("doomed") != nil {
		t.Error("committed kill did not stick")
	}
}

func TestSharedPMOAcrossProcesses(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CheckpointEvery = 0
	cfg.SkipDefaultServices = true
	m := New(cfg)
	prod, _ := m.NewProcess("producer", 1)
	cons, _ := m.NewProcess("consumer", 1)

	prodVA, pmo, err := prod.Mmap(4, caps.PMODefault)
	if err != nil {
		t.Fatal(err)
	}
	consVA, err := cons.MapShared(pmo, caps.RightRead|caps.RightWrite)
	if err != nil {
		t.Fatal(err)
	}

	// Writes by one process are visible to the other (same PMO pages).
	m.Run(prod, prod.MainThread(), func(e *Env) error {
		return e.Write(prodVA, []byte("shared-payload"))
	})
	buf := make([]byte, 14)
	m.Run(cons, cons.MainThread(), func(e *Env) error { return e.Read(consVA, buf) })
	if string(buf) != "shared-payload" {
		t.Fatalf("consumer read %q", buf)
	}

	// A checkpoint visits the shared PMO exactly once (ORoot dedup).
	rep := m.TakeCheckpoint()
	if rep.PerKindCount[caps.KindPMO] != m.Tree.Counts()[caps.KindPMO] {
		t.Errorf("PMO checkpoint count %d != tree count %d",
			rep.PerKindCount[caps.KindPMO], m.Tree.Counts()[caps.KindPMO])
	}

	// Restore keeps the sharing: both processes still see one object.
	m.Crash()
	if err := m.Restore(); err != nil {
		t.Fatal(err)
	}
	prod2, cons2 := m.Process("producer"), m.Process("consumer")
	m.Run(prod2, prod2.MainThread(), func(e *Env) error {
		return e.Write(prodVA, []byte("SHARED-AGAIN!!"))
	})
	m.Run(cons2, cons2.MainThread(), func(e *Env) error { return e.Read(consVA, buf) })
	if string(buf) != "SHARED-AGAIN!!" {
		t.Errorf("post-restore consumer read %q (sharing broken)", buf)
	}

	// Producer exits; the consumer still holds a capability, so the PMO
	// must survive the exit and the sweep.
	if err := m.ExitProcess("producer"); err != nil {
		t.Fatal(err)
	}
	m.TakeCheckpoint()
	m.Run(cons2, cons2.MainThread(), func(e *Env) error { return e.Read(consVA, buf) })
	if string(buf) != "SHARED-AGAIN!!" {
		t.Errorf("shared PMO purged with a live reference: %q", buf)
	}
}

func TestExitWithCachedPages(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CheckpointEvery = 0
	cfg.SkipDefaultServices = true
	cfg.Checkpoint.HotThreshold = 1
	m := New(cfg)
	p, _ := m.NewProcess("hot", 1)
	va, _, _ := p.Mmap(4, caps.PMODefault)
	write := func() {
		for i := 0; i < 4; i++ {
			m.Run(p, p.MainThread(), func(e *Env) error {
				return e.Write(va+uint64(i)*4096, []byte("x"))
			})
		}
	}
	write()
	m.TakeCheckpoint()
	write() // faults: pages become hot
	m.TakeCheckpoint()
	if m.Ckpt.CachedPages() == 0 {
		t.Fatal("no pages cached")
	}
	dramFree := m.Memory.DRAMFreeFrames()
	if err := m.ExitProcess("hot"); err != nil {
		t.Fatal(err)
	}
	if m.Memory.DRAMFreeFrames() <= dramFree {
		t.Error("cached DRAM frames not released on exit")
	}
	if m.Ckpt.CachedPages() != 0 {
		t.Errorf("cached count = %d after exit", m.Ckpt.CachedPages())
	}
	// The next checkpoint (with the purged hot list) must not crash.
	m.TakeCheckpoint()
}
