// Command benchmark is the TreeSLS repository benchmark. It drives four
// workloads through the packages' public APIs, checks their outputs, and
// prints every end-to-end metric (or, with --trace 1, every per-layer
// metric) by name and unit. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Build and run it from the repository root with
//
//	bash benchmark/run.sh --workload kv-gated --seed 1 --seconds 10 --trace 0
//
// See benchmark/README.md for the workloads, the metrics and how to read
// the trace.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// config parameterises one unit of a workload.
type config struct {
	seed int64
	// scale multiplies every size (1 = the benchmark; the package test
	// runs at 1/50).
	scale float64
	probe *probe // nil when untraced
}

// n scales a size, keeping at least 1.
func (c config) n(x int) int {
	if v := int(float64(x) * c.scale); v > 1 {
		return v
	}
	return 1
}

type benchWorkload struct {
	name, why string
	run       func(config) (*unit, error)
}

var workloads = []benchWorkload{
	{"kv-gated", "ADR machine, extsync-gated kvstore, closed-loop clients, power failure every 20 ms: the paper's external-synchrony and recovery path", kvGated},
	{"kv-open-zipf", "eADR machine, open-loop YCSB-A zipf over more pages than the DRAM cache: COW, hybrid copy and STW pauses queue arriving requests", kvOpenZipf},
	{"cluster-cut", "4 gated shards with hot standbys: every response waits for the consistent-cut round, repl deltas and cut digests", clusterCut},
	{"reshard-crash-sweep", "add-shard scenario crash-injected at every other event for four targets with every oracle on: host cost per injection", reshardSweep},
}

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed of every generated input (2 is the held-out seed)")
	seconds := flag.Float64("seconds", 10, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced measurement and reports per-layer metrics")
	out := flag.String("out", ".bench_build/trace", "directory for the traced run's Chrome trace and CPU profile")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	var ran bool
	ok := true
	for _, w := range workloads {
		if *name != "all" && *name != w.name {
			continue
		}
		ran = true
		rep, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, 1, *out)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		rep.print(os.Stdout)
		ok = ok && rep.Correct
	}
	if !ran {
		fatalf("unknown workload %q", *name)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result of one workload.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	workload string
	units    int
	notes    []string
	problems []string
	// e2e holds the end-to-end metrics also in a traced run, for display.
	e2e map[string]float64
}

// measure runs units of w while another one fits in the time left (at
// least one, and one traced one when traced). Untraced, the simulated
// metrics come from the first unit and every later unit must reproduce
// them exactly; host metrics and set-up time are medians over units.
// Traced, untraced and traced units alternate; the traced ones give the
// per-layer metrics, must reproduce the untraced simulated metrics, and
// the difference in host cost is the tracing overhead.
func measure(w benchWorkload, seed int64, seconds time.Duration, traced bool, scale float64, outDir string) (*report, error) {
	start := time.Now()
	var plain, withTrace []*unit
	var firstProbe *probe
	var firstProfile []byte
	fold := map[string]float64{}
	for len(plain) == 0 || (traced && len(withTrace) == 0) ||
		time.Since(start)*time.Duration(len(plain)+1)/time.Duration(len(plain)) <= seconds {
		u, err := w.run(config{seed: seed, scale: scale})
		if err != nil {
			return nil, err
		}
		plain = append(plain, u)
		if !traced {
			continue
		}
		p := newProbe()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		u, err = w.run(config{seed: seed, scale: scale, probe: p})
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		if err := foldProfile(prof.Bytes(), fold); err != nil {
			return nil, err
		}
		if firstProbe == nil {
			firstProbe, firstProfile = p, prof.Bytes()
		}
		withTrace = append(withTrace, u)
	}

	r := &report{workload: w.name, units: len(plain), Metrics: map[string]value{}, e2e: map[string]float64{}}
	first := plain[0]
	r.notes = first.notes
	for i, u := range append(append([]*unit(nil), plain...), withTrace...) {
		r.problems = append(r.problems, u.problems...)
		if !sameSim(u.sim, first.sim) {
			r.problems = append(r.problems, fmt.Sprintf("unit %d: simulated metrics %v differ from the first unit's %v", i, u.sim, first.sim))
		}
		r.Attempted += u.attempted
		r.Failed += u.failed
	}
	for k, v := range first.sim {
		r.e2e[k] = v
	}
	r.e2e["host_us_per_op"] = medianOf(plain, (*unit).hostUsPerOp)
	r.e2e["host_alloc_kb_per_op"] = medianOf(plain, (*unit).allocKBPerOp)
	r.e2e["setup_s"] = medianOf(plain, func(u *unit) float64 { return u.setup.Seconds() })

	if !traced {
		for _, m := range endToEnd {
			r.Metrics[m.name] = value{r.e2e[m.name], m.unit}
		}
	} else {
		layer := map[string]float64{}
		for _, m := range perLayer {
			layer[m.name] = medianOf(withTrace, func(u *unit) float64 { return u.layer[m.name] })
		}
		hostFracs(fold, layer)
		layer["trace.overhead_us_per_op"] = medianOf(withTrace, (*unit).hostUsPerOp) - r.e2e["host_us_per_op"]
		for _, m := range perLayer {
			r.Metrics[m.name] = value{layer[m.name], m.unit}
		}
		if firstProbe.dropped > 0 {
			r.notes = append(r.notes, fmt.Sprintf("trace kept the first %d spans; %d more calls were timed but not kept", len(firstProbe.spans), firstProbe.dropped))
		}
		if err := writeArtifacts(filepath.Join(outDir, w.name), firstProbe, firstProfile); err != nil {
			return nil, err
		}
		r.notes = append(r.notes, "trace and CPU profile written to "+filepath.Join(outDir, w.name))
	}
	r.Correct = len(r.problems) == 0 && r.Failed == 0
	return r, nil
}

// sameSim reports whether two units produced bit-identical simulated
// metrics.
func sameSim(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

func medianOf(us []*unit, f func(*unit) float64) float64 {
	xs := make([]float64, len(us))
	for i, u := range us {
		xs[i] = f(u)
	}
	return quantile(xs, 0.5)
}

func writeArtifacts(dir string, p *probe, profile []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu.pprof"), profile, 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return err
	}
	if err := p.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// print writes the human-readable lines, then the JSON result as the last
// line.
func (r *report) print(w *os.File) {
	fmt.Fprintf(w, "== %s (%d untraced units)\n", r.workload, r.units)
	for _, n := range r.notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	for _, m := range endToEnd {
		fmt.Fprintf(w, "   %-22s %14.4f %s\n", m.name, r.e2e[m.name], m.unit)
	}
	if _, ok := r.Metrics[perLayer[0].name]; ok {
		for _, m := range perLayer {
			fmt.Fprintf(w, "   %-40s %14.4f %-6s moves %s\n", m.name, r.Metrics[m.name].Value, m.unit, m.moves)
		}
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "   FAILED: %s\n", p)
	}
	fmt.Fprintf(w, "   attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
	b, err := json.Marshal(r)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Fprintf(w, "%s\n", b)
}
