package scenario

import (
	"testing"

	"treesls/internal/mem"
)

// assertSafe applies the invariants every gated cluster run must satisfy.
func assertSafe(t *testing.T, sc Script, r Result) {
	t.Helper()
	sc.fill()
	want := uint64(sc.Clients * sc.KeysPerClient * sc.Requests)
	if r.Acked != want {
		t.Errorf("%s: acked %d, want %d", sc.Name, r.Acked, want)
	}
	if len(r.Unjustified) != 0 {
		t.Errorf("%s: external-synchrony violations: %v", sc.Name, r.Unjustified)
	}
	if len(r.CutViolations) != 0 {
		t.Errorf("%s: cut digest violations: %v", sc.Name, r.CutViolations)
	}
	if len(r.OrderViolations) != 0 {
		t.Errorf("%s: per-key FIFO violations: %v", sc.Name, r.OrderViolations)
	}
	if r.DupAcks != 0 {
		t.Errorf("%s: %d duplicate acknowledgements (gated path must not re-release)", sc.Name, r.DupAcks)
	}
	if r.AuditViolations != 0 {
		t.Errorf("%s: %d state-digest audit violations", sc.Name, r.AuditViolations)
	}
	if len(r.LinearizeViolations) != 0 {
		t.Errorf("%s: linearizability violations: %v", sc.Name, r.LinearizeViolations)
	}
	if r.LinearizeOps == 0 {
		t.Errorf("%s: linearizability oracle saw no operations", sc.Name)
	}
	if r.Crashes+r.CrashesSkipped != len(sc.Crashes) {
		t.Errorf("%s: %d crashes fired + %d skipped, scripted %d",
			sc.Name, r.Crashes, r.CrashesSkipped, len(sc.Crashes))
	}
}

func TestCleanClusterRun(t *testing.T) {
	sc := Script{Name: "clean", Seed: 1, Shards: 3, Clients: 3, KeysPerClient: 2, Requests: 8, Gated: true}
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	assertSafe(t, sc, r)
	if r.Released < r.Acked {
		t.Errorf("released %d < acked %d: some acknowledgements bypassed the gates", r.Released, r.Acked)
	}
	if r.Retransmits != 0 {
		t.Errorf("clean run saw %d retransmits", r.Retransmits)
	}
	if r.Rounds == 0 || r.Cuts < 2 {
		t.Errorf("gated run completed with %d rounds / %d cuts", r.Rounds, r.Cuts)
	}
}

// tableScripts are gated crash scripts across shard counts, persist modes,
// crash targets and placements.
func tableScripts() []Script {
	return []Script{
		{Name: "early-power", Seed: 1, Gated: true,
			Crashes: []Crash{{At: 10, Target: TargetPower}}},
		{Name: "mid-shard0", Seed: 2, Gated: true,
			Crashes: []Crash{{At: 40, Target: 0}}},
		{Name: "mid-shard1", Seed: 3, Gated: true,
			Crashes: []Crash{{At: 40, Target: 1}}},
		{Name: "coordinator-loss", Seed: 4, Gated: true,
			Crashes: []Crash{{At: 35, Target: TargetCoord}}},
		{Name: "coord-then-power", Seed: 5, Gated: true,
			Crashes: []Crash{{At: 25, Target: TargetCoord}, {At: 70, Target: TargetPower}}},
		{Name: "shard-storm", Seed: 6, Shards: 3, Clients: 3, Gated: true,
			Crashes: []Crash{{At: 20, Target: 0}, {At: 50, Target: 1}, {At: 80, Target: 2}}},
		{Name: "double-power", Seed: 7, Gated: true,
			Crashes: []Crash{{At: 15, Target: TargetPower}, {At: 60, Target: TargetPower}}},
		{Name: "adr-power", Seed: 8, Gated: true, Persist: mem.ModeADR,
			Crashes: []Crash{{At: 30, Target: TargetPower}}},
		{Name: "adr-shard", Seed: 9, Gated: true, Persist: mem.ModeADR,
			Crashes: []Crash{{At: 45, Target: 1}}},
		{Name: "replicated-power", Seed: 10, Gated: true, Replicate: true,
			Crashes: []Crash{{At: 40, Target: TargetPower}}},
		{Name: "four-shards", Seed: 11, Shards: 4, Clients: 4, Gated: true,
			Crashes: []Crash{{At: 60, Target: 2}, {At: 110, Target: TargetCoord}}},
		{Name: "back-to-back", Seed: 12, Gated: true,
			Crashes: []Crash{{At: 30, Target: 0}, {At: 31, Target: 1}}},
	}
}

// TestScenarioTable runs every table script. Each must uphold the cluster
// invariant: client-visible responses are exactly a prefix of what the
// recovered cut justifies, and recovery digests match the announcement.
func TestScenarioTable(t *testing.T) {
	for _, sc := range tableScripts() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			r, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			assertSafe(t, sc, r)
		})
	}
}

// TestCrashAtEveryEvent sweeps a small gated script's entire event space
// for every crash target in turn: power, the coordinator, and each shard.
// The cluster invariant must hold at every single event boundary.
func TestCrashAtEveryEvent(t *testing.T) {
	base := Script{Name: "sweep", Seed: 13, Clients: 2, KeysPerClient: 2, Requests: 3, Gated: true}
	total, err := EventCount(base)
	if err != nil {
		t.Fatal(err)
	}
	if total < 20 {
		t.Fatalf("clean run generated only %d events; sweep would be vacuous", total)
	}
	stride := uint64(1)
	if testing.Short() {
		stride = 7
	}
	base.fill()
	for _, target := range []int{TargetPower, TargetCoord, 0, 1} {
		target := target
		t.Run(TargetName(target), func(t *testing.T) {
			for k := uint64(1); k <= total; k += stride {
				sc := base
				sc.Name = "sweep-k"
				sc.Crashes = []Crash{{At: k, Target: target}}
				r, err := Run(sc)
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				if len(r.Unjustified) != 0 {
					t.Errorf("k=%d: external-synchrony violations: %v", k, r.Unjustified)
				}
				if len(r.CutViolations) != 0 {
					t.Errorf("k=%d: cut digest violations: %v", k, r.CutViolations)
				}
				if len(r.OrderViolations) != 0 {
					t.Errorf("k=%d: FIFO violations: %v", k, r.OrderViolations)
				}
				if want := uint64(sc.Clients * sc.KeysPerClient * sc.Requests); r.Acked != want {
					t.Errorf("k=%d: acked %d, want %d", k, r.Acked, want)
				}
			}
		})
	}
}

// TestUngatedClusterConvicted proves the harness has teeth cluster-wide:
// with the gates off, responses leave at operation end, so a power failure
// between a response and its covering cut must produce at least one
// acknowledged-but-unjustified request somewhere — and the identical gated
// sweep must produce none.
func TestUngatedClusterConvicted(t *testing.T) {
	crashPoints := []uint64{10, 20, 35, 55, 80}
	var convictions int
	for _, k := range crashPoints {
		sc := Script{Name: "ungated", Seed: 14, Gated: false,
			Crashes: []Crash{{At: k, Target: TargetPower}}}
		r, err := Run(sc)
		if err != nil {
			t.Fatalf("ungated k=%d: %v", k, err)
		}
		convictions += len(r.Unjustified)

		sc.Name, sc.Gated = "gated-control", true
		g, err := Run(sc)
		if err != nil {
			t.Fatalf("gated k=%d: %v", k, err)
		}
		if len(g.Unjustified) != 0 {
			t.Errorf("gated control k=%d: violations: %v", k, g.Unjustified)
		}
	}
	if convictions == 0 {
		t.Error("ungated cluster survived every crash point: the harness cannot detect violations")
	}
}

// TestScenarioDeterminism runs a crashy multi-target script twice and
// demands bit-identical digests — CI runs this under -race.
func TestScenarioDeterminism(t *testing.T) {
	sc := Script{Name: "det", Seed: 15, Shards: 3, Clients: 3, Requests: 6, Gated: true, Replicate: true,
		Crashes: []Crash{{At: 20, Target: 1}, {At: 55, Target: TargetCoord}, {At: 90, Target: TargetPower}}}
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
	if a.Acked != b.Acked || a.FinalTime != b.FinalTime || a.Retransmits != b.Retransmits ||
		a.Rounds != b.Rounds || a.Events != b.Events {
		t.Errorf("results differ: %+v vs %+v", a, b)
	}

	// A different seed shifts jitter, crash damage and the keyspace draw,
	// and must change the digest.
	sc.Seed = 16
	c, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if c.Digest == a.Digest {
		t.Error("different seed produced an identical digest: seeds not flowing into the run")
	}
}
