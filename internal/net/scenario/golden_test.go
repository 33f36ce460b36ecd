package scenario

// Cross-commit schedule pins. TestScenarioDeterminism compares two runs of
// the same build, so a change to the client fleet (net.Fleet) or to the
// network could alter every single-machine schedule without failing it.
// This table pins each script's event-log digest, final event counter,
// acknowledged count and external-synchrony convictions; a refactor of the
// fleet, the network or this harness must reproduce it exactly.
//
// To re-capture after an INTENTIONAL behaviour change (never for a
// refactor), run with NET_SCENARIO_CAPTURE=1 and paste the logged entries.

import (
	"fmt"
	"os"
	"testing"
)

// netPin is the part of a Result that identifies its schedule.
type netPin struct {
	Digest      uint64
	Events      uint64
	Acked       uint64
	Unjustified int
}

// pinnedNetScripts names every pinned run: the table scripts, the clean
// run, and the ungated baseline at each of its crash points.
func pinnedNetScripts() map[string]Script {
	out := map[string]Script{"clean": cleanScript()}
	for _, sc := range tableScripts() {
		out["table/"+sc.Name] = sc
	}
	for _, k := range ungatedCrashPoints {
		out[fmt.Sprintf("ungated/k%d", k)] = ungatedScript(k)
	}
	return out
}

var netPins = map[string]netPin{
	"clean":                    {Digest: 0x6c8c19afd8e18491, Events: 200, Acked: 40, Unjustified: 0},
	"table/crash-storm":        {Digest: 0xc147263251e67004, Events: 122, Acked: 20, Unjustified: 0},
	"table/double-crash":       {Digest: 0x395f84c684da4466, Events: 131, Acked: 24, Unjustified: 0},
	"table/fast-interval":      {Digest: 0xd6650c2863c3e2af, Events: 96, Acked: 18, Unjustified: 0},
	"table/late-crash":         {Digest: 0xd5ecdb84081d1e8, Events: 60, Acked: 12, Unjustified: 0},
	"table/manual-checkpoints": {Digest: 0xa2491280d9f5dfd8, Events: 67, Acked: 12, Unjustified: 0},
	"table/many-clients":       {Digest: 0x4f9b7cbc61f25c04, Events: 211, Acked: 40, Unjustified: 0},
	"table/mid-run-crash":      {Digest: 0x9094d614dff793f5, Events: 131, Acked: 24, Unjustified: 0},
	"table/single-early-crash": {Digest: 0x222b153cd783bc6d, Events: 67, Acked: 12, Unjustified: 0},
	"table/slow-interval":      {Digest: 0x796fe7b32fb8f32d, Events: 96, Acked: 18, Unjustified: 0},
	"table/wide-window":        {Digest: 0x58f76f12db53f4f8, Events: 221, Acked: 32, Unjustified: 0},
	"ungated/k15":              {Digest: 0x6d0c0e6cd870a2f9, Events: 40, Acked: 12, Unjustified: 2},
	"ungated/k25":              {Digest: 0x11579837b9a3bb7, Events: 38, Acked: 12, Unjustified: 2},
	"ungated/k40":              {Digest: 0x8a410d4f1955f7ee, Events: 36, Acked: 12, Unjustified: 0},
	"ungated/k60":              {Digest: 0x8a410d4f1955f7ee, Events: 36, Acked: 12, Unjustified: 0},
	"ungated/k8":               {Digest: 0x62524ddfe8a03a1f, Events: 39, Acked: 12, Unjustified: 1},
}

func TestNetSchedulePins(t *testing.T) {
	capture := os.Getenv("NET_SCENARIO_CAPTURE") != ""
	scripts := pinnedNetScripts()
	if !capture && len(scripts) != len(netPins) {
		t.Errorf("%d pinned scripts, %d pins", len(scripts), len(netPins))
	}
	for name, sc := range scripts {
		r, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := netPin{Digest: r.Digest, Events: r.Events, Acked: r.Acked, Unjustified: len(r.Unjustified)}
		if capture {
			t.Logf("%q: {Digest: %#x, Events: %d, Acked: %d, Unjustified: %d},",
				name, got.Digest, got.Events, got.Acked, got.Unjustified)
			continue
		}
		if want, ok := netPins[name]; !ok || got != want {
			t.Errorf("%s: schedule %+v, pinned %+v", name, got, want)
		}
	}
}
