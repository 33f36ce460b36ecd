package crashfuzz

import (
	"fmt"
	"testing"

	"treesls/internal/checkpoint"
	"treesls/internal/mem"
)

// copyConfigs spans the three page-copy strategies of the checkpoint
// manager; the media campaign must hold under every one of them.
var copyConfigs = []struct {
	name   string
	method checkpoint.CopyMethod
	hybrid bool
}{
	{"cow", checkpoint.MethodCOW, false},
	{"stop-and-copy", checkpoint.MethodStopAndCopy, false},
	{"hybrid", checkpoint.MethodCOW, true},
}

// TestMediaFaultCampaign is the tentpole acceptance run: ≥1000 targeted
// media faults across {eADR, ADR} × {COW, stop-and-copy, hybrid}, with
// background crash-time poisoning and crash-during-restore stacking on top.
// Every restored page must be bit-identical to the committed oracle or
// explicitly named in the restore manifest; the campaign must actually have
// exercised degradation (detected faults that forced an older version or a
// zeroed page).
func TestMediaFaultCampaign(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	injections := 60
	if testing.Short() {
		seeds = seeds[:2]
		injections = 15
	}
	var total MediaResult
	for _, mode := range []mem.PersistMode{mem.ModeEADR, mem.ModeADR} {
		for _, cc := range copyConfigs {
			res, err := RunMedia(MediaConfig{
				Mode:               mode,
				Method:             cc.method,
				HybridCopy:         cc.hybrid,
				Seeds:              seeds,
				InjectionsPerSeed:  injections,
				CrashFaults:        2,
				CrashDuringRestore: true,
				ScrubEveryN:        1,
			})
			if err != nil {
				t.Fatalf("mode=%v copy=%s: %v", mode, cc.name, err)
			}
			if res.SilentCorruptions != 0 {
				t.Fatalf("mode=%v copy=%s: %d silent corruptions", mode, cc.name, res.SilentCorruptions)
			}
			total.Injections += res.Injections
			total.Crashes += res.Crashes
			total.RestoreCrashes += res.RestoreCrashes
			total.PagesVerified += res.PagesVerified
			total.Degraded += res.Degraded
			total.Lost += res.Lost
			total.MetaRepairs += res.MetaRepairs
			total.ScrubRepairs += res.ScrubRepairs
			total.LinesPoisoned += res.LinesPoisoned
		}
	}
	t.Logf("injections=%d crashes=%d restoreCrashes=%d verified=%d degraded=%d lost=%d metaRepairs=%d scrubRepairs=%d poisonedLines=%d",
		total.Injections, total.Crashes, total.RestoreCrashes, total.PagesVerified,
		total.Degraded, total.Lost, total.MetaRepairs, total.ScrubRepairs, total.LinesPoisoned)
	want := 1000
	if testing.Short() {
		want = len(seeds) * injections * 6 * 8 / 10
	}
	if total.Injections < want {
		t.Fatalf("only %d targeted injections (want ≥%d)", total.Injections, want)
	}
	if total.Degraded+total.Lost == 0 {
		t.Fatal("campaign never exercised degradation: faults were not landing")
	}
	if total.RestoreCrashes == 0 {
		t.Fatal("no restore was crashed mid-flight")
	}
	if total.MetaRepairs == 0 {
		t.Fatal("commit-record/mirror faults never forced a metadata repair")
	}
	if total.PagesVerified == 0 {
		t.Fatal("nothing verified")
	}
}

// TestMediaBaselineSilentlyCorrupts is the ablation conviction: the same
// campaign with checksums disabled must let silent rot through — proving
// the checksummed tree is what provides the guarantee, not luck.
func TestMediaBaselineSilentlyCorrupts(t *testing.T) {
	res, err := RunMedia(MediaConfig{
		Mode:              mem.ModeADR,
		Seeds:             []uint64{9, 10},
		InjectionsPerSeed: 50,
		DisableChecksums:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("baseline: injections=%d silent=%d degraded=%d lost=%d",
		res.Injections, res.SilentCorruptions, res.Degraded, res.Lost)
	if res.SilentCorruptions == 0 {
		t.Fatal("checksum-disabled baseline never silently corrupted — the ablation proves nothing")
	}
}

// TestMediaReplicaRepair: with backup replicas on, detected corruption is
// repaired transparently instead of degrading the restore.
func TestMediaReplicaRepair(t *testing.T) {
	res, err := RunMedia(MediaConfig{
		Mode:              mem.ModeADR,
		Seeds:             []uint64{21, 22},
		InjectionsPerSeed: 40,
		Replicas:          2,
		ScrubEveryN:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("replicas: injections=%d repairs=%d degraded=%d lost=%d",
		res.Injections, res.ReplicaRepairs, res.Degraded, res.Lost)
	if res.SilentCorruptions != 0 {
		t.Fatalf("%d silent corruptions", res.SilentCorruptions)
	}
	if res.ReplicaRepairs == 0 {
		t.Fatal("replicas configured but no repair ever happened")
	}
}

// TestMediaReplicaMatrix pins the never-silently-corrupt contract over every
// copy method × hybrid copy × replica count × persistence mode: with
// checksums on, no cell may restore a silently corrupt page (a stale replica
// once "repaired" stop-and-copy backups back to old bytes); with checksums
// off, every cell must still be convicted.
func TestMediaReplicaMatrix(t *testing.T) {
	for _, method := range []checkpoint.CopyMethod{checkpoint.MethodCOW, checkpoint.MethodStopAndCopy} {
		for _, hybrid := range []bool{false, true} {
			for _, replicas := range []int{1, 2} {
				for _, mode := range []mem.PersistMode{mem.ModeEADR, mem.ModeADR} {
					cfg := MediaConfig{
						Mode:               mode,
						Method:             method,
						HybridCopy:         hybrid,
						Replicas:           replicas,
						Seeds:              []uint64{11, 12, 13, 14},
						InjectionsPerSeed:  10,
						CrashDuringRestore: true,
						ScrubEveryN:        2,
					}
					cell := fmt.Sprintf("method=%v hybrid=%v replicas=%d mode=%v", method, hybrid, replicas, mode)
					res, err := RunMedia(cfg)
					if err != nil {
						t.Errorf("%s: %v", cell, err)
					} else if res.SilentCorruptions != 0 {
						t.Errorf("%s: %d silent corruptions", cell, res.SilentCorruptions)
					}
					cfg.DisableChecksums = true
					base, err := RunMedia(cfg)
					if err != nil {
						t.Errorf("%s, checksums off: %v", cell, err)
					} else if base.SilentCorruptions == 0 {
						t.Errorf("%s, checksums off: no silent corruption — the baseline proves nothing", cell)
					}
					t.Logf("%s: repairs=%d degraded=%d lost=%d; checksums off: silent=%d",
						cell, res.ReplicaRepairs, res.Degraded, res.Lost, base.SilentCorruptions)
				}
			}
		}
	}
}

// TestMediaDeterministicReplay: the media campaign is bit-deterministic.
func TestMediaDeterministicReplay(t *testing.T) {
	cfg := MediaConfig{
		Mode: mem.ModeADR, Seeds: []uint64{33}, InjectionsPerSeed: 20,
		CrashFaults: 1, CrashDuringRestore: true, ScrubEveryN: 2,
	}
	a, err := RunMedia(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMedia(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("replay diverged:\n  first  %+v\n  second %+v", a, b)
	}
}

// TestCrashDuringRestore asserts the crash campaign's restore-reentrancy
// injection actually fires: some restores are themselves crashed and the
// re-entered recovery still verifies.
func TestCrashDuringRestore(t *testing.T) {
	res, err := Run(Config{
		Mode:           mem.ModeADR,
		Seeds:          []uint64{13, 14},
		CrashesPerSeed: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RestoreCrashes == 0 {
		t.Fatal("no restore was ever crashed mid-flight")
	}
	t.Logf("fired=%d restoreCrashes=%d", res.CrashesFired, res.RestoreCrashes)
}
