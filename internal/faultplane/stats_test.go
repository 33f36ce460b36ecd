package faultplane

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestCampaignStatsEmission(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign-stats.json")
	t.Setenv(CampaignStatsEnv, path)
	d := &fakeDomain{name: "emitted", worlds: map[uint64]*fakeWorld{
		1: cleanWorld(roundScript{fired: true}, roundScript{fired: true}),
	}}
	if _, err := RunCampaign(Spec{Seeds: []uint64{1}, RoundsPerSeed: 2}, d); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("stats file: %v", err)
	}
	var st Stats
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("stats line %q: %v", data, err)
	}
	if st.Domain != "emitted" || st.Injections != 2 || st.Recoveries != 2 {
		t.Fatalf("emitted stats %+v", st)
	}
	// The line also carries the campaign's host cost, which the returned
	// Stats do not.
	var host struct {
		HostMS             *float64 `json:"host_ms"`
		HostUSPerInjection *float64 `json:"host_us_per_injection"`
	}
	if err := json.Unmarshal(data, &host); err != nil {
		t.Fatalf("stats line %q: %v", data, err)
	}
	if host.HostMS == nil || host.HostUSPerInjection == nil {
		t.Fatalf("stats line %q lacks host_ms or host_us_per_injection", data)
	}
	if *host.HostMS < 0 || math.Abs(*host.HostUSPerInjection-*host.HostMS*1e3/2) > 1e-6 {
		t.Fatalf("host_ms %v, host_us_per_injection %v: want host_ms*1000/2 injections",
			*host.HostMS, *host.HostUSPerInjection)
	}
	// A second campaign appends a second line.
	d2 := &fakeDomain{name: "emitted2", worlds: map[uint64]*fakeWorld{1: cleanWorld(roundScript{fired: true})}}
	if _, err := RunCampaign(Spec{Seeds: []uint64{1}, RoundsPerSeed: 1}, d2); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(path)
	lines := 0
	for _, b := range data {
		if b == '\n' {
			lines++
		}
	}
	if lines != 2 {
		t.Fatalf("stats lines %d, want 2 (append semantics)", lines)
	}
}

func TestCampaignStatsUnsetIsSilent(t *testing.T) {
	t.Setenv(CampaignStatsEnv, "")
	st := Stats{Domain: "quiet"}
	emitStats(&st, time.Second) // must be a no-op, not an error or a file
}
