package crashfuzz

import (
	"fmt"
	"testing"

	"treesls/internal/caps"
	"treesls/internal/kernel"
	"treesls/internal/mem"
)

// TestCrashFuzzADR is the headline acceptance run: ≥1000 injected power
// failures across ≥6 seeds under relaxed (ADR) persistency, every one
// restored and verified against the committed model.
func TestCrashFuzzADR(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5, 6}
	crashes := 175
	if testing.Short() {
		seeds = seeds[:3]
		crashes = 30
	}
	res, err := Run(Config{
		Mode:           mem.ModeADR,
		Seeds:          seeds,
		CrashesPerSeed: crashes,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fired=%d restores=%d commits=%d rollbacks=%d inFlightCommitted=%d atRisk=%d dropped=%d torn=%d tornRecords=%d degraded=%d",
		res.CrashesFired, res.Restores, res.Commits, res.Rollbacks, res.InFlightCommitted,
		res.LinesAtRisk, res.LinesDropped, res.LinesTorn, res.TornRecords, res.DegradedRestores)
	want := 1000
	if testing.Short() {
		want = len(seeds) * crashes * 9 / 10
	}
	if res.CrashesFired < want {
		t.Fatalf("only %d of %d armed crashes fired (want ≥%d)", res.CrashesFired, len(seeds)*crashes, want)
	}
	if res.Restores != res.CrashesFired {
		t.Fatalf("restores=%d != fired=%d", res.Restores, res.CrashesFired)
	}
	// Under ADR the damage model must actually bite: lines were at risk
	// and some were dropped or torn, yet every restore still verified.
	if res.LinesAtRisk == 0 || res.LinesDropped == 0 {
		t.Fatalf("ADR campaign exercised no crash damage (atRisk=%d dropped=%d)", res.LinesAtRisk, res.LinesDropped)
	}
}

// TestCrashFuzzEADR runs the same harness under the default eADR model,
// where every store is durable on landing and crashes lose nothing.
func TestCrashFuzzEADR(t *testing.T) {
	res, err := Run(Config{
		Mode:           mem.ModeEADR,
		Seeds:          []uint64{7, 8, 9},
		CrashesPerSeed: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CrashesFired == 0 {
		t.Fatal("no crashes fired")
	}
	if res.LinesAtRisk != 0 || res.LinesDropped != 0 || res.LinesTorn != 0 {
		t.Fatalf("eADR must not damage lines: atRisk=%d dropped=%d torn=%d",
			res.LinesAtRisk, res.LinesDropped, res.LinesTorn)
	}
}

// TestDeterministicReplay re-runs one seed and expects an identical result:
// the harness, the damage RNG, and the simulation are all deterministic.
func TestDeterministicReplay(t *testing.T) {
	cfg := Config{Mode: mem.ModeADR, Seeds: []uint64{42}, CrashesPerSeed: 25}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("replay diverged:\n  first  %+v\n  second %+v", a, b)
	}
}

// TestTornCommitRollsBack sweeps a crash across every persistence event of
// one checkpoint commit on fresh identical machines. Each outcome must be
// atomic: either the new version committed in full (new values visible) or
// recovery rolled back to the previous checkpoint (old values intact). The
// sweep must demonstrate at least one rollback — i.e. at least one crash
// point where the commit word did not survive — and at least one commit.
func TestTornCommitRollsBack(t *testing.T) {
	const pages = 8
	setup := func(seed uint64) (*kernel.Machine, *kernel.Process, uint64) {
		cfg := kernel.DefaultConfig()
		cfg.CheckpointEvery = 0
		cfg.SkipDefaultServices = true
		cfg.Seed = seed
		cfg.Mem.Persist = mem.ModeADR
		cfg.Mem.CrashSeed = seed
		m := kernel.New(cfg)
		p, err := m.NewProcess("app", 1)
		if err != nil {
			t.Fatal(err)
		}
		va, _, err := p.Mmap(pages, caps.PMODefault)
		if err != nil {
			t.Fatal(err)
		}
		return m, p, va
	}
	write := func(m *kernel.Machine, p *kernel.Process, va, base uint64) {
		for i := uint64(0); i < pages; i++ {
			if _, err := m.Run(p, p.MainThread(), func(e *kernel.Env) error {
				return e.WriteU64(va+i*mem.PageSize, base+i)
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	readAll := func(m *kernel.Machine, p *kernel.Process, va uint64) [pages]uint64 {
		var got [pages]uint64
		for i := uint64(0); i < pages; i++ {
			if _, err := m.Run(p, p.MainThread(), func(e *kernel.Env) error {
				v, err := e.ReadU64(va + i*mem.PageSize)
				got[i] = v
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
		return got
	}

	const oldBase, newBase = 0x0100, 0xA000
	rollbacks, commits := 0, 0
	for k := uint64(1); k < 4096; k++ {
		m, p, va := setup(k)
		write(m, p, va, oldBase)
		m.TakeCheckpoint() // version 1: the fallback state
		write(m, p, va, newBase)

		fired := func() (fired bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(mem.CrashError); ok {
						fired = true
						return
					}
					panic(r)
				}
			}()
			m.Memory.ArmCrashAfter(k)
			m.TakeCheckpoint() // version 2: the interrupted round
			return false
		}()
		m.Memory.DisarmCrash()
		if !fired {
			// k exceeded the number of events in one checkpoint: the
			// sweep has covered every crash point of the commit.
			if k == 1 {
				t.Fatal("checkpoint produced no persistence events")
			}
			break
		}

		m.Crash()
		if err := m.Restore(); err != nil {
			t.Fatalf("k=%d: restore: %v", k, err)
		}
		p = m.Process("app")
		got := readAll(m, p, va)
		switch ver := m.Ckpt.CommittedVersion(); ver {
		case 1:
			rollbacks++
			for i := uint64(0); i < pages; i++ {
				if got[i] != oldBase+i {
					t.Fatalf("k=%d: rolled back to v1 but page %d = %#x, want %#x", k, i, got[i], oldBase+i)
				}
			}
		case 2:
			commits++
			for i := uint64(0); i < pages; i++ {
				if got[i] != newBase+i {
					t.Fatalf("k=%d: committed v2 but page %d = %#x, want %#x", k, i, got[i], newBase+i)
				}
			}
		default:
			t.Fatalf("k=%d: restored to unexpected version %d", k, ver)
		}
	}
	t.Logf("commit sweep: %d rollbacks, %d commits", rollbacks, commits)
	if rollbacks == 0 {
		t.Fatal("sweep demonstrated no rollback to the previous checkpoint")
	}
	if commits == 0 {
		t.Fatal("sweep demonstrated no surviving commit")
	}
}

// TestResultStringable keeps the Result fields honest in log output.
func TestResultStringable(t *testing.T) {
	r := Result{CrashesFired: 3, Restores: 3}
	if s := fmt.Sprintf("%+v", r); s == "" {
		t.Fatal("empty")
	}
}
