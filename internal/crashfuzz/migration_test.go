package crashfuzz

// Migration regression for the fault-plane refactor: each legacy campaign
// is pinned bit-for-bit — the full Result struct plus an FNV-1a digest of
// its Go literal — for fixed seeds and fully-explicit configs (every config
// knob set, so no Defaults change can shift them; single-valued shapes are
// named constants beside each domain). The goldens were captured on
// the pre-refactor silo engines; the refactored engines must reproduce the
// exact same injection counts and digests or this test fails.
//
// To re-capture after an INTENTIONAL behavior change (never for the
// refactor itself), run with MIGRATION_CAPTURE=1 and paste the logged
// literals.

import (
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"testing"

	"treesls/internal/checkpoint"
	"treesls/internal/mem"
)

// resultDigest folds a campaign Result's Go literal into a 64-bit FNV-1a
// digest — the "same seeds, same digest" half of the migration contract.
func resultDigest(v interface{}) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v", v)
	return h.Sum64()
}

func checkGolden(t *testing.T, name string, got interface{}, want interface{}, wantDigest uint64) {
	t.Helper()
	if os.Getenv("MIGRATION_CAPTURE") != "" {
		t.Logf("golden %s: %#v", name, got)
		t.Logf("golden %s digest: %#x", name, resultDigest(got))
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s diverged from pre-refactor golden:\n got  %#v\n want %#v", name, got, want)
	}
	if d := resultDigest(got); d != wantDigest {
		t.Errorf("%s digest %#x, want %#x", name, d, wantDigest)
	}
}

func TestMigrationCrashGolden(t *testing.T) {
	for _, tc := range []struct {
		mode       mem.PersistMode
		want       Result
		wantDigest uint64
	}{
		{mode: mem.ModeADR, want: crashGoldenADR, wantDigest: crashGoldenADRDigest},
		{mode: mem.ModeEADR, want: crashGoldenEADR, wantDigest: crashGoldenEADRDigest},
	} {
		res, err := Run(Config{
			Mode:           tc.mode,
			Seeds:          []uint64{101, 102},
			CrashesPerSeed: 10,
			EventWindow:    96,
			StepsPerCrash:  400,
			Pages:          32,
			Threads:        4,
			Audit:          true,
			SerialWalk:     false,
		})
		if err != nil {
			t.Fatalf("%v: %v", tc.mode, err)
		}
		checkGolden(t, fmt.Sprintf("crash/%v", tc.mode), res, tc.want, tc.wantDigest)
	}
}

func TestMigrationNetGolden(t *testing.T) {
	res, err := RunNet(NetConfig{
		Mode:           mem.ModeADR,
		Seeds:          []uint64{201},
		CrashesPerSeed: 6,
		EventWindow:    64,
		StepsPerCrash:  600,
		Clients:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "net", res, netGolden, netGoldenDigest)
}

func TestMigrationMediaGolden(t *testing.T) {
	res, err := RunMedia(MediaConfig{
		Mode:               mem.ModeADR,
		Method:             checkpoint.MethodCOW,
		HybridCopy:         false,
		Seeds:              []uint64{301},
		InjectionsPerSeed:  12,
		Pages:              24,
		CrashFaults:        2,
		Replicas:           2,
		DisableChecksums:   false,
		CrashDuringRestore: true,
		ScrubEveryN:        3,
		Audit:              true,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "media", res, mediaGolden, mediaGoldenDigest)
}

func TestMigrationReplGolden(t *testing.T) {
	res, err := RunRepl(ReplConfig{
		Mode:           mem.ModeADR,
		Method:         checkpoint.MethodCOW,
		Hybrid:         false,
		Seeds:          []uint64{401},
		CrashesPerSeed: 4,
		EventWindow:    96,
		StepsPerCrash:  40,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "repl", res, replGolden, replGoldenDigest)
}

func TestMigrationClusterGolden(t *testing.T) {
	res, err := RunCluster(ClusterConfig{
		Mode:           mem.ModeADR,
		Seeds:          []uint64{501},
		CrashesPerSeed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cluster", res, clusterGolden, clusterGoldenDigest)
}

func TestMigrationReshardGolden(t *testing.T) {
	res, err := RunReshard(ReshardConfig{
		Mode:            mem.ModeADR,
		Seeds:           []uint64{601},
		ReshardsPerSeed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "reshard", res, reshardGolden, reshardGoldenDigest)
}
