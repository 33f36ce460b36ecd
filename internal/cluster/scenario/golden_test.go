package scenario

// Cross-commit schedule pins. TestScenarioDeterminism and
// TestReshardDeterminism compare two runs of the same build, so a change to
// the cluster step loop could alter every schedule without failing them.
// This table pins each script's event-log digest, final event counter and
// acknowledged count; a refactor of the harness or of the cluster step
// policy (cluster.(*Fleet).Advance) must reproduce it exactly.
//
// To re-capture after an INTENTIONAL behaviour change (never for a
// refactor), run with SCENARIO_CAPTURE=1 and paste the logged entries.

import (
	"fmt"
	"os"
	"testing"
)

// schedulePin is the part of a Result that identifies its schedule.
type schedulePin struct {
	Digest uint64
	Events uint64
	Acked  uint64
}

// pinnedScripts names every pinned run: the table scripts, the reshard
// scripts run clean, and each reshard script crashed mid-migration (8
// events after its first reshard fires, inside the streaming window for
// all three) once per sweep target.
func pinnedScripts() map[string]Script {
	out := map[string]Script{}
	for _, sc := range tableScripts() {
		out["table/"+sc.Name] = sc
	}
	for _, sc := range reshardScripts() {
		out["reshard/"+sc.Name] = sc
		sc.fill()
		for _, target := range reshardTargets(sc) {
			crashed := sc
			crashed.Crashes = []Crash{{At: sc.Reshards[0].At + 8, Target: target}}
			out[fmt.Sprintf("reshard/%s/%s", sc.Name, TargetName(target))] = crashed
		}
	}
	return out
}

var schedulePins = map[string]schedulePin{
	"reshard/add-shard":           {Digest: 0x7daff7fb69d37669, Events: 113, Acked: 12},
	"reshard/add-shard/coord":     {Digest: 0xf45d11a32efbf683, Events: 94, Acked: 12},
	"reshard/add-shard/power":     {Digest: 0xb74e668fed44a804, Events: 100, Acked: 12},
	"reshard/add-shard/shard0":    {Digest: 0x38314a1835447597, Events: 94, Acked: 12},
	"reshard/add-shard/shard3":    {Digest: 0x493644118d77f451, Events: 94, Acked: 12},
	"reshard/back-to-back":        {Digest: 0xd7145048d4e3b033, Events: 148, Acked: 16},
	"reshard/back-to-back/coord":  {Digest: 0xbe82700f537533e9, Events: 130, Acked: 16},
	"reshard/back-to-back/power":  {Digest: 0x6c6367599aa0859d, Events: 132, Acked: 16},
	"reshard/back-to-back/shard0": {Digest: 0x681e85cb2350c268, Events: 130, Acked: 16},
	"reshard/back-to-back/shard3": {Digest: 0xe250c6eea77ed831, Events: 130, Acked: 16},
	"reshard/remove-shard":        {Digest: 0x1e916fd5eb5f1e5d, Events: 103, Acked: 12},
	"reshard/remove-shard/coord":  {Digest: 0x3a830133d9ea7c28, Events: 94, Acked: 12},
	"reshard/remove-shard/power":  {Digest: 0xf5bea80a0e9b34c, Events: 99, Acked: 12},
	"reshard/remove-shard/shard1": {Digest: 0xd1257e712f9e6a86, Events: 99, Acked: 12},
	"reshard/remove-shard/shard2": {Digest: 0x918821a53f697b31, Events: 94, Acked: 12},
	"table/adr-power":             {Digest: 0xb05604d38d30b3cd, Events: 166, Acked: 24},
	"table/adr-shard":             {Digest: 0xcfb16106975909a, Events: 161, Acked: 24},
	"table/back-to-back":          {Digest: 0xe530a8e64398a5f4, Events: 167, Acked: 24},
	"table/coord-then-power":      {Digest: 0x3142e1ac1641f073, Events: 179, Acked: 24},
	"table/coordinator-loss":      {Digest: 0x5f72a8545a18406a, Events: 162, Acked: 24},
	"table/double-power":          {Digest: 0xe7003331f8a3e7e9, Events: 197, Acked: 24},
	"table/early-power":           {Digest: 0xf5ba326f8287f31f, Events: 174, Acked: 24},
	"table/four-shards":           {Digest: 0xc7aa979360ab070f, Events: 321, Acked: 48},
	"table/mid-shard0":            {Digest: 0x8d625f9a7e7c11e7, Events: 170, Acked: 24},
	"table/mid-shard1":            {Digest: 0x875d52e90f4d75f9, Events: 176, Acked: 24},
	"table/replicated-power":      {Digest: 0x18004cf514c5045d, Events: 177, Acked: 24},
	"table/shard-storm":           {Digest: 0x35979d510313a39d, Events: 262, Acked: 36},
}

func TestSchedulePins(t *testing.T) {
	capture := os.Getenv("SCENARIO_CAPTURE") != ""
	scripts := pinnedScripts()
	if !capture && len(scripts) != len(schedulePins) {
		t.Errorf("%d pinned scripts, %d pins", len(scripts), len(schedulePins))
	}
	for name, sc := range scripts {
		r, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := schedulePin{Digest: r.Digest, Events: r.Events, Acked: r.Acked}
		if capture {
			t.Logf("%q: {Digest: %#x, Events: %d, Acked: %d},", name, got.Digest, got.Events, got.Acked)
			continue
		}
		if want, ok := schedulePins[name]; !ok || got != want {
			t.Errorf("%s: schedule %+v, pinned %+v", name, got, want)
		}
	}
}
