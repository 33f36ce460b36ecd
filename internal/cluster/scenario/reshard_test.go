package scenario

import (
	"fmt"
	"sort"
	"testing"
)

// The three reshard scripts the sweep exercises: scale-out, scale-in, and
// back-to-back (grow then immediately shrink a different member). All run a
// gated fleet whose traffic interleaves with the migration epoch, so crash
// injection lands inside scan, stream, dual-write and commit windows.
func reshardScripts() []Script {
	return []Script{
		{Name: "add-shard", Seed: 21, Shards: 3, Clients: 2, KeysPerClient: 2,
			Requests: 3, Gated: true,
			Reshards: []Reshard{{At: 60, Add: true}}},
		{Name: "remove-shard", Seed: 22, Shards: 3, Clients: 2, KeysPerClient: 2,
			Requests: 3, Gated: true,
			Reshards: []Reshard{{At: 60, Target: 1}}},
		{Name: "back-to-back", Seed: 23, Shards: 3, Clients: 2, KeysPerClient: 2,
			Requests: 4, Gated: true,
			Reshards: []Reshard{{At: 55, Add: true}, {At: 56, Target: 0}}},
	}
}

// reshardTargets lists the four crash targets a reshard script is swept
// against: whole-cluster power, the coordinator, a source shard (one that
// holds keys before the reshard) and the destination (the joining shard,
// which may not exist yet at low K — a logged no-op — or the leaving one).
func reshardTargets(sc Script) []int {
	src, dst := 0, sc.Shards
	if !sc.Reshards[0].Add {
		src, dst = 2, sc.Reshards[0].Target
	}
	return []int{TargetPower, TargetCoord, src, dst}
}

// ringStates enumerates every whole ring a script's run may legally end
// on: each scripted reshard either commits (advancing the version and
// changing membership) or aborts whole (ring untouched; an aborted add
// still consumed a machine id). Any crash must land on exactly one of
// these — anything else is the mixed ring the cut log exists to prevent.
func ringStates(sc Script) map[string]bool {
	ringKey := func(v uint64, members []int) string {
		return fmt.Sprintf("v%d:%v", v, members)
	}
	states := map[string]bool{}
	var rec func(v uint64, members []int, i, nextID int)
	rec = func(v uint64, members []int, i, nextID int) {
		if i == len(sc.Reshards) {
			states[ringKey(v, members)] = true
			return
		}
		r := sc.Reshards[i]
		if r.Add {
			// Aborted: the joiner's machine exists but the ring stands.
			rec(v, members, i+1, nextID+1)
			grown := append(append([]int(nil), members...), nextID)
			sort.Ints(grown)
			rec(v+1, grown, i+1, nextID+1)
			return
		}
		rec(v, members, i+1, nextID)
		var shrunk []int
		for _, m := range members {
			if m != r.Target {
				shrunk = append(shrunk, m)
			}
		}
		if len(shrunk) > 0 && len(shrunk) < len(members) {
			rec(v+1, shrunk, i+1, nextID)
		}
	}
	initial := make([]int, sc.Shards)
	for i := range initial {
		initial[i] = i
	}
	rec(1, initial, 0, sc.Shards)
	return states
}

// assertConverged checks a run ended on a whole ring from the script's
// legal set — exact version AND exact membership.
func assertConverged(t *testing.T, sc Script, r Result, where string) {
	t.Helper()
	got := fmt.Sprintf("v%d:%v", r.RingVersion, r.RingMembers)
	if !ringStates(sc)[got] {
		t.Errorf("%s: ended on ring %s, not a whole old/new ring of any scripted reshard", where, got)
	}
}

// TestReshardClean: each reshard script, uncrashed, commits every scripted
// migration, moves keys, reroutes the fleet, and stays clean under both
// oracles.
func TestReshardClean(t *testing.T) {
	for _, sc := range reshardScripts() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			r, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			assertSafe(t, sc, r)
			if want := uint64(len(sc.Reshards)); r.Migrations != want {
				t.Errorf("%d migrations committed, want %d (aborted %d)",
					r.Migrations, want, r.MigrationsAborted)
			}
			if r.KeysMoved == 0 {
				t.Error("no keys moved: the reshard was vacuous")
			}
			sc.fill()
			finalV := uint64(1 + len(sc.Reshards))
			if r.RingVersion != finalV {
				t.Errorf("ended on ring v%d, want v%d", r.RingVersion, finalV)
			}
			assertConverged(t, sc, r, "clean")
		})
	}
}

// BenchmarkReshardInjection times one injection of the reshard sweep: the
// add-shard script crashed by a whole-cluster power failure halfway through
// its clean run's events, with every oracle on.
func BenchmarkReshardInjection(b *testing.B) {
	base := reshardScripts()[0]
	total, err := EventCount(base)
	if err != nil {
		b.Fatal(err)
	}
	sc := base
	sc.Crashes = []Crash{{At: total / 2, Target: TargetPower}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		if n := len(r.Unjustified) + len(r.CutViolations) + len(r.OrderViolations) + len(r.LinearizeViolations); n != 0 {
			b.Fatalf("%d oracle violations", n)
		}
	}
}

// TestReshardCrashSweep is the tentpole's proof obligation: for each
// reshard script, crash at EVERY event boundary of the clean run, for each
// of the four targets — whole-cluster power, the coordinator (which owns
// the migration plan), a source shard, and the joining/leaving shard. Every
// single run must converge to exactly the old ring or exactly the new one,
// complete all traffic, and satisfy both the justification and the
// linearizability oracles.
func TestReshardCrashSweep(t *testing.T) {
	stride := uint64(1)
	if testing.Short() {
		stride = 11
	}
	for _, base := range reshardScripts() {
		base := base
		total, err := EventCount(base)
		if err != nil {
			t.Fatalf("%s: EventCount: %v", base.Name, err)
		}
		if total < 50 {
			t.Fatalf("%s: clean run generated only %d events; sweep would be vacuous", base.Name, total)
		}
		base.fill()
		for _, target := range reshardTargets(base) {
			target := target
			t.Run(fmt.Sprintf("%s/%s", base.Name, TargetName(target)), func(t *testing.T) {
				t.Parallel()
				skipped := 0
				for k := uint64(1); k <= total; k += stride {
					sc := base
					sc.Name = fmt.Sprintf("%s-k%d", base.Name, k)
					sc.Crashes = []Crash{{At: k, Target: target}}
					r, err := Run(sc)
					if err != nil {
						t.Fatalf("k=%d: %v", k, err)
					}
					skipped += r.CrashesSkipped
					if len(r.Unjustified) != 0 {
						t.Errorf("k=%d: external-synchrony violations: %v", k, r.Unjustified)
					}
					if len(r.CutViolations) != 0 {
						t.Errorf("k=%d: cut digest violations: %v", k, r.CutViolations)
					}
					if len(r.OrderViolations) != 0 {
						t.Errorf("k=%d: FIFO violations: %v", k, r.OrderViolations)
					}
					if len(r.LinearizeViolations) != 0 {
						t.Errorf("k=%d: linearizability violations: %v", k, r.LinearizeViolations)
					}
					if want := uint64(sc.Clients * sc.KeysPerClient * sc.Requests); r.Acked != want {
						t.Errorf("k=%d: acked %d, want %d", k, r.Acked, want)
					}
					assertConverged(t, sc, r, fmt.Sprintf("k=%d", k))
					if r.Migrations+r.MigrationsAborted < uint64(len(sc.Reshards)) {
						t.Errorf("k=%d: %d committed + %d aborted < %d scripted epochs",
							k, r.Migrations, r.MigrationsAborted, len(sc.Reshards))
					}
				}
				// A dest-targeted sweep must hit the window where the
				// joiner exists (otherwise the target never tested
				// anything) — and the pre-creation window must have been
				// exercised as logged no-ops.
				if target == base.Shards && skipped == 0 {
					t.Error("dest sweep never crossed the pre-creation no-op window")
				}
			})
		}
	}
}

// TestReshardUngatedConvicted: the same add-shard script with the gates
// off, strictly sequential per-key traffic (Window 1 + think time), and a
// power failure mid-migration. The linearizability checker must convict at
// least one crash point — an acknowledged write the recovered (old or new)
// ring cannot justify is observable as a stale oracle read.
func TestReshardUngatedConvicted(t *testing.T) {
	var linConvictions, justConvictions int
	for _, k := range []uint64{20, 45, 70, 100, 140} {
		sc := Script{Name: "ungated-reshard", Seed: 24, Shards: 3, Clients: 2,
			KeysPerClient: 2, Requests: 4, Window: 1, Think: 200, Gated: false,
			Reshards: []Reshard{{At: 30, Add: true}},
			Crashes:  []Crash{{At: k, Target: TargetPower}}}
		r, err := Run(sc)
		if err != nil {
			t.Fatalf("ungated k=%d: %v", k, err)
		}
		linConvictions += len(r.LinearizeViolations)
		justConvictions += len(r.Unjustified)

		// The gated control with the identical script must stay clean.
		sc.Name, sc.Gated = "gated-control", true
		g, err := Run(sc)
		if err != nil {
			t.Fatalf("gated k=%d: %v", k, err)
		}
		if len(g.LinearizeViolations) != 0 {
			t.Errorf("gated control k=%d: linearizability violations: %v", k, g.LinearizeViolations)
		}
		if len(g.Unjustified) != 0 {
			t.Errorf("gated control k=%d: justification violations: %v", k, g.Unjustified)
		}
		assertConverged(t, sc, g, fmt.Sprintf("gated k=%d", k))
	}
	if linConvictions == 0 {
		t.Error("linearizability checker never convicted the ungated baseline: the oracle has no teeth")
	}
	if justConvictions == 0 {
		t.Error("justification check never convicted the ungated baseline")
	}
}

// TestReshardDeterminism: a crashy reshard script is bit-identical across
// runs — CI repeats this under -race.
func TestReshardDeterminism(t *testing.T) {
	sc := Script{Name: "reshard-det", Seed: 25, Shards: 3, Clients: 3, Requests: 5, Gated: true,
		Reshards: []Reshard{{At: 28, Add: true}, {At: 29, Target: 1}},
		Crashes:  []Crash{{At: 45, Target: 3}, {At: 90, Target: TargetPower}}}
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Errorf("digests differ across identical runs: %#x vs %#x", a.Digest, b.Digest)
	}
	if a.Acked != b.Acked || a.FinalTime != b.FinalTime || a.RingVersion != b.RingVersion ||
		a.Migrations != b.Migrations || a.KeysMoved != b.KeysMoved || a.Events != b.Events {
		t.Errorf("results differ: %+v vs %+v", a, b)
	}
	sc.Seed = 26
	c, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if c.Digest == a.Digest {
		t.Error("different seed produced an identical digest")
	}
}
