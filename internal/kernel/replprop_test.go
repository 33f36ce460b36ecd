package kernel_test

import (
	"fmt"
	"math/rand"
	"testing"

	"treesls/internal/apps/kvstore"
	"treesls/internal/checkpoint"
	"treesls/internal/kernel"
	"treesls/internal/mem"
	"treesls/internal/obs/audit"
	"treesls/internal/repl"
)

// TestReplDeltaFoldProperty is the delta-stream correctness property: for
// EVERY checkpoint version retained in the replication ledger, folding the
// last full sync at or below it plus every incremental delta up to it — in
// order, exactly as the standby applies them — yields an image that installs
// and restores to the primary's recorded backup-tree audit digest for that
// version. The fold here is done by hand from the raw ledger, independent of
// the replicator's own failover path, so a bug in either the diff/fold
// algebra or the failover fold shows up as a digest mismatch rather than
// being self-consistently wrong.
func TestReplDeltaFoldProperty(t *testing.T) {
	for _, adr := range []bool{false, true} {
		name := "eadr"
		if adr {
			name = "adr"
		}
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					runReplDeltaFoldProperty(t, adr, seed)
				})
			}
		})
	}
}

func runReplDeltaFoldProperty(t *testing.T, adr bool, seed uint64) {
	rng := rand.New(rand.NewSource(int64(seed)))
	cfg := kernel.DefaultConfig()
	cfg.Cores = 2
	cfg.CheckpointEvery = 0
	cfg.Seed = seed
	cfg.Audit = true
	if adr {
		cfg.Mem.Persist = mem.ModeADR
		cfg.Mem.CrashSeed = seed
	}
	m := kernel.New(cfg)
	srv, err := kvstore.NewServer(m, kvstore.ServerConfig{
		Name: "kv", Threads: 2, HeapPages: 64, Buckets: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := repl.Attach(m, nil, repl.Config{FullSyncEvery: 4})
	m.TakeCheckpoint()

	for round := 0; round < 10; round++ {
		for i := 0; i < 5; i++ {
			k := []byte(fmt.Sprintf("k%d", rng.Intn(24)))
			v := []byte(fmt.Sprintf("r%d-%d", round, i))
			if _, _, err := srv.Set(rng.Intn(2), k, v); err != nil {
				t.Fatalf("round %d set: %v", round, err)
			}
		}
		m.TakeCheckpoint()
	}

	ledger := rep.Ledger()
	if len(ledger) < 4 {
		t.Fatalf("ledger retained only %d rounds", len(ledger))
	}
	fulls, incs := 0, 0
	for _, e := range ledger {
		if e.Full {
			fulls++
		} else {
			incs++
		}
	}
	if fulls == 0 || incs == 0 {
		t.Fatalf("ledger lacks coverage: %d full syncs, %d incrementals", fulls, incs)
	}

	for _, target := range ledger {
		// Fold base..target by hand, exactly as the standby applies them.
		base := -1
		for i := range ledger {
			if ledger[i].Full && ledger[i].Version <= target.Version {
				base = i
			}
		}
		if base < 0 {
			continue // GC dropped this version's fold base along with its generation
		}
		var img *checkpoint.ReplImage
		for i := base; i < len(ledger) && ledger[i].Version <= target.Version; i++ {
			img = checkpoint.FoldDelta(img, ledger[i].Delta)
		}
		sb := kernel.NewStandby(m.Config())
		lane := &sb.Cores[0].Lane
		if err := sb.Ckpt.InstallImage(lane, img); err != nil {
			t.Fatalf("v%d: install: %v", target.Version, err)
		}
		sb.Crash()
		if err := sb.Restore(); err != nil {
			t.Fatalf("v%d: restore: %v", target.Version, err)
		}
		if got := audit.BackupDigest(sb.Ckpt, sb.Memory); got != target.Digest {
			t.Errorf("v%d (full=%v): folded standby digest %#x, primary recorded %#x",
				target.Version, target.Full, got, target.Digest)
		}
	}
}
