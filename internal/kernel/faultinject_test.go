package kernel

import (
	"bytes"
	"fmt"
	"testing"

	"treesls/internal/caps"
	"treesls/internal/mem"
	"treesls/internal/simclock"
)

// crashAtEvent arms a power failure at the k-th persistence event from now
// and runs fn. It reports whether the crash fired; if it did, the machine
// is crashed (what a real power failure at that micro-step would be).
func crashAtEvent(t *testing.T, m *Machine, k uint64, fn func()) (fired bool) {
	t.Helper()
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(mem.CrashError); !ok {
					panic(r)
				}
				fired = true
			}
		}()
		m.Memory.ArmCrashAfter(k)
		fn()
	}()
	m.Memory.DisarmCrash()
	if fired {
		m.Crash()
	}
	return fired
}

// checkpointedSum reads the durable counter state of the test workload.
func checkpointedSum(t *testing.T, m *Machine, va uint64, pages int) []byte {
	t.Helper()
	p := m.Process("app")
	out := make([]byte, pages)
	if _, err := m.Run(p, p.MainThread(), func(e *Env) error {
		for i := 0; i < pages; i++ {
			b := make([]byte, 1)
			if err := e.Read(va+uint64(i)*4096, b); err != nil {
				return err
			}
			out[i] = b[0]
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCrashDuringCOWBackupAlloc crashes one copy-on-write fault at every
// persistence event it fires, the backup-page allocation included, under
// eADR and ADR: the half-done fault must not corrupt the committed
// checkpoint. Under ADR the fault's backup copy is durable only once
// flushed and fenced before the page becomes writable; without the flush
// or the fence a crash right after the store drops the backup's lines.
func TestCrashDuringCOWBackupAlloc(t *testing.T) {
	for _, mode := range []mem.PersistMode{mem.ModeEADR, mem.ModeADR} {
		t.Run(mode.String(), func(t *testing.T) {
			setup := func() (*Machine, *Process, uint64) {
				cfg := DefaultConfig()
				cfg.CheckpointEvery = 0
				cfg.SkipDefaultServices = true
				cfg.Mem.Persist = mode
				m := New(cfg)
				p, _ := m.NewProcess("app", 1)
				va, _, _ := p.Mmap(16, caps.PMODefault)
				for i := 0; i < 16; i++ {
					m.Run(p, p.MainThread(), func(e *Env) error {
						return e.Write(va+uint64(i)*4096, []byte{byte(i + 1)})
					})
				}
				m.TakeCheckpoint()
				return m, p, va
			}
			m, _, va := setup()
			want := checkpointedSum(t, m, va, 16)

			k := uint64(1)
			for ; ; k++ {
				m, p, va := setup()
				fired := crashAtEvent(t, m, k, func() {
					if _, err := m.Run(p, p.MainThread(), func(e *Env) error {
						return e.Write(va+5*4096, []byte{0xFF})
					}); err != nil {
						t.Fatal(err)
					}
				})
				if !fired {
					break
				}
				if err := m.Restore(); err != nil {
					t.Fatalf("event %d: %v", k, err)
				}
				got := checkpointedSum(t, m, va, 16)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("event %d: page %d = %#x, want %#x (checkpoint corrupted by mid-fault crash)", k, i, got[i], want[i])
					}
				}
			}
			if k == 1 {
				t.Fatal("the COW fault fired no persistence event")
			}
			t.Logf("%d COW fault events", k-1)
		})
	}
}

// TestCrashDuringSTW crashes one stop-the-world checkpoint at every
// persistence event it fires (hybrid-copy migration, COW backups, the
// commit, the release). Each restore must land on one committed round
// whole: the previous version with every page at its value, or the new
// version with every page at the value written before it.
//
// It runs under eADR only. Under ADR the round's commit becomes durable
// only at its last event, so all 56 events restore the previous round and
// the sweep never lands on the new one; with its both-outcomes check
// dropped it still passes with copyBackup's flush deleted, so an ADR run
// would check nothing more. TestCrashDuringCOWBackupAlloc and
// TestCrashAtEveryRestoreEvent carry the ADR sweeps.
func TestCrashDuringSTW(t *testing.T) {
	const pages = 8
	setup := func() (*Machine, *Process, uint64, func(byte)) {
		cfg := DefaultConfig()
		cfg.CheckpointEvery = 0
		cfg.SkipDefaultServices = true
		cfg.Checkpoint.HotThreshold = 1
		m := New(cfg)
		p, _ := m.NewProcess("app", 2)
		va, _, _ := p.Mmap(16, caps.PMODefault)
		write := func(v byte) {
			for i := 0; i < pages; i++ {
				m.Run(p, p.Thread(i), func(e *Env) error {
					return e.Write(va+uint64(i)*4096, []byte{v})
				})
			}
		}
		write(1)
		m.TakeCheckpoint()
		write(2) // faults -> pages become hot
		m.TakeCheckpoint()
		write(3)
		write(4)
		return m, p, va, write
	}

	var rolledBack, committed int
	for k := uint64(1); ; k++ {
		m, p, va, write := setup()
		prev := m.Ckpt.CommittedVersion()
		if !crashAtEvent(t, m, k, func() { m.TakeCheckpoint() }) {
			break
		}
		t.Run(fmt.Sprintf("event=%d", k), func(t *testing.T) {
			if err := m.Restore(); err != nil {
				t.Fatal(err)
			}
			var want byte
			switch v := m.Ckpt.CommittedVersion(); v {
			case prev:
				want = 2
				rolledBack++
			case prev + 1:
				want = 4
				committed++
			default:
				t.Fatalf("restored version %d, want %d or %d", v, prev, prev+1)
			}
			for i, v := range checkpointedSum(t, m, va, pages) {
				if v != want {
					t.Errorf("page %d = %d, want %d: not the restored round's value", i, v, want)
				}
			}
			// The machine continues working.
			write(9)
			if _, err := m.Run(p, p.MainThread(), func(e *Env) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
	}
	if rolledBack == 0 || committed == 0 {
		t.Fatalf("sweep restored the previous round %d times and the new one %d times; want both",
			rolledBack, committed)
	}
	t.Logf("%d events: %d restored the previous round, %d the new one", rolledBack+committed, rolledBack, committed)
}

// TestManyRandomCrashPoints crashes a periodic-checkpoint workload at a
// spread of persistence-event indices; after every restore the machine must
// pass its own consistency checks and keep running.
func TestManyRandomCrashPoints(t *testing.T) {
	setup := func() (*Machine, uint64, func()) {
		cfg := DefaultConfig()
		cfg.CheckpointEvery = simclock.Millisecond
		cfg.SkipDefaultServices = true
		m := New(cfg)
		p, _ := m.NewProcess("app", 2)
		va, _, _ := p.Mmap(64, caps.PMODefault)
		// Establish a first checkpoint.
		m.Run(p, p.MainThread(), func(e *Env) error { return e.Write(va, []byte{1}) })
		m.TakeCheckpoint()
		workload := func() {
			for i := 0; i < 2000; i++ {
				if _, err := m.Run(p, p.Thread(i), func(e *Env) error {
					return e.Write(va+uint64(i%64)*4096, []byte{byte(i)})
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		return m, va, workload
	}
	m, _, workload := setup()
	start := m.Memory.Events()
	workload()
	total := m.Memory.Events() - start
	if total == 0 {
		t.Fatal("workload fired no persistence event")
	}

	const points = 12
	for i := uint64(0); i < points; i++ {
		k := 1 + i*total/points
		t.Run(fmt.Sprintf("event=%d", k), func(t *testing.T) {
			m, va, workload := setup()
			if !crashAtEvent(t, m, k, workload) {
				t.Fatalf("event %d of %d never reached", k, total)
			}
			if err := m.Restore(); err != nil {
				t.Fatal(err)
			}
			if err := m.Alloc.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			// Machine still works.
			p := m.Process("app")
			if _, err := m.Run(p, p.MainThread(), func(e *Env) error {
				return e.Write(va, []byte{42})
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCrashAtEveryRestoreEvent crashes the first restore after a power
// failure at every persistence event it fires, then restores again. Every
// page lives in DRAM at the crash, so the restore copies its newest
// committed backup (rule 3) into the other slot as the version-zero
// runtime copy that the next restore trusts through rule 2: the half
// written before the third checkpoint lands in slot 1, the other half in
// slot 0 and is swapped into slot 1. Each second restore must reproduce
// every committed page bit-identically, with a clean manifest and a clean
// audit: a version-zero slot published before its copy was durable comes
// back degraded under ADR.
func TestCrashAtEveryRestoreEvent(t *testing.T) {
	const pages = 8
	for _, mode := range []mem.PersistMode{mem.ModeEADR, mem.ModeADR} {
		t.Run(mode.String(), func(t *testing.T) {
			setup := func() (*Machine, uint64) {
				cfg := DefaultConfig()
				cfg.CheckpointEvery = 0
				cfg.SkipDefaultServices = true
				cfg.Checkpoint.HotThreshold = 1
				cfg.Mem.Persist = mode
				cfg.Audit = true
				m := New(cfg)
				p, _ := m.NewProcess("app", 2)
				va, _, _ := p.Mmap(pages, caps.PMODefault)
				write := func(n int, v byte) {
					for i := 0; i < n; i++ {
						m.Run(p, p.Thread(i), func(e *Env) error {
							return e.Write(va+uint64(i)*4096, []byte{v})
						})
					}
				}
				write(pages, 1)
				m.TakeCheckpoint()
				write(pages, 2) // faults -> pages become hot
				m.TakeCheckpoint()
				write(pages/2, 3) // the hot pages now live in DRAM
				m.TakeCheckpoint()
				m.TakeCheckpoint()
				write(pages, 4) // uncommitted
				m.Crash()
				return m, va
			}
			want := make([]byte, pages)
			for i := range want {
				want[i] = 2
				if i < pages/2 {
					want[i] = 3
				}
			}

			k := uint64(1)
			for ; ; k++ {
				m, va := setup()
				if !crashAtEvent(t, m, k, func() {
					if err := m.Restore(); err != nil {
						t.Fatalf("event %d: first restore: %v", k, err)
					}
				}) {
					break
				}
				if err := m.Restore(); err != nil {
					t.Fatalf("event %d: %v", k, err)
				}
				if got := checkpointedSum(t, m, va, pages); !bytes.Equal(got, want) {
					t.Errorf("event %d: pages = %v, want %v", k, got, want)
				}
				if man := m.Ckpt.Manifest(); !man.Clean() {
					t.Errorf("event %d: manifest not clean: %d degraded, %d lost", k, len(man.Degraded), len(man.Lost))
				}
				if !m.LastAudit.Ok() {
					t.Errorf("event %d: restore audit: %v", k, m.LastAudit.Violations)
				}
			}
			if k == 1 {
				t.Fatal("the restore fired no persistence event")
			}
			t.Logf("%d restore events", k-1)
		})
	}
}
