package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// testScale runs every workload at 1/50 of its benchmark size.
const testScale = 1.0 / 50

// runUnit runs one unit of w at the test scale and fails on any error or
// correctness problem.
func runUnit(t *testing.T, w benchWorkload, traced bool) *unit {
	t.Helper()
	c := config{seed: 1, scale: testScale}
	if traced {
		c.probe = newProbe()
	}
	u, err := w.run(c)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if len(u.problems) > 0 || u.failed != 0 || u.attempted == 0 {
		t.Fatalf("%s: attempted %d, failed %d, problems %v", w.name, u.attempted, u.failed, u.problems)
	}
	return u
}

// TestWorkloads checks, per workload, that two untraced units and a traced
// one give bit-identical simulated metrics with nothing failed, and that
// each layer does work exactly on the workloads meant to exercise it and
// none on those meant to bypass it.
func TestWorkloads(t *testing.T) {
	layers := map[string]map[string]float64{}
	for _, w := range workloads {
		a := runUnit(t, w, false)
		b := runUnit(t, w, false)
		tr := runUnit(t, w, true)
		for _, m := range []string{"sim_p50_us", "sim_p99_us", "sim_kops"} {
			if a.sim[m] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, m, a.sim[m])
			}
		}
		if !sameSim(a.sim, b.sim) {
			t.Errorf("%s: two runs differ: %v vs %v", w.name, a.sim, b.sim)
		}
		if !sameSim(a.sim, tr.sim) {
			t.Errorf("%s: traced run differs: %v vs %v", w.name, tr.sim, a.sim)
		}
		layers[w.name] = tr.layer
	}
	// Each mechanism, the workloads that exercise it and the ones that
	// bypass it.
	pairs := []struct {
		metric       string
		on, bypassed []string
	}{
		{"mem.flushes_per_kreq", []string{"kv-gated"}, []string{"kv-open-zipf", "cluster-cut"}},
		{"kernel.recovery_p50_us", []string{"kv-gated"}, []string{"kv-open-zipf", "cluster-cut"}},
		{"extsync.release_lag_p50_us", []string{"kv-gated", "cluster-cut"}, []string{"kv-open-zipf"}},
		{"kernel.queue_wait_p99_us", []string{"kv-open-zipf"}, []string{"kv-gated", "cluster-cut"}},
		{"checkpoint.cow_faults_per_kreq", []string{"kv-open-zipf"}, []string{"reshard-crash-sweep"}},
		{"repl.bytes_per_round", []string{"cluster-cut"}, []string{"kv-gated", "kv-open-zipf", "reshard-crash-sweep"}},
		{"cluster.round_sim_p50_us", []string{"cluster-cut"}, []string{"kv-gated", "kv-open-zipf", "reshard-crash-sweep"}},
		{"cluster.round_host_us", []string{"cluster-cut"}, []string{"kv-gated", "kv-open-zipf", "reshard-crash-sweep"}},
		{"scenario.events_per_run", []string{"reshard-crash-sweep"}, []string{"kv-gated", "kv-open-zipf", "cluster-cut"}},
		{"checkpoint.stw_p99_us", []string{"kv-gated", "kv-open-zipf", "cluster-cut"}, []string{"reshard-crash-sweep"}},
	}
	for _, p := range pairs {
		for _, w := range p.on {
			if layers[w][p.metric] <= 0 {
				t.Errorf("%s on %s = %v, want > 0", p.metric, w, layers[w][p.metric])
			}
		}
		for _, w := range p.bypassed {
			if layers[w][p.metric] != 0 {
				t.Errorf("%s on %s = %v, want 0 (bypassed)", p.metric, w, layers[w][p.metric])
			}
		}
	}
	// Every metric a workload sets is a declared per-layer metric.
	declared := map[string]bool{}
	for _, m := range perLayer {
		declared[m.name] = true
	}
	for w, l := range layers {
		for k := range l {
			if !declared[k] {
				t.Errorf("%s sets undeclared per-layer metric %s", w, k)
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []jm `json:"end_to_end"`
		PerLayer  []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d implemented", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why == "" {
			t.Errorf("workload %d: listed %q, implemented %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, listed []jm, want []metric, bounded bool) {
		if len(listed) != len(want) {
			t.Fatalf("%s: %d listed, %d reported", kind, len(listed), len(want))
		}
		for i, m := range want {
			l := listed[i]
			if l.Name != m.name || l.Unit != m.unit || l.Better != m.better || (l.Bound != nil) != bounded ||
				(bounded && *l.Bound != m.bound) {
				t.Errorf("%s %d: listed %+v, reported %+v", kind, i, l, m)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !strings.Contains(string(readme), "`"+m.name+"`") {
			t.Errorf("README.md does not describe %s", m.name)
		}
	}
}
